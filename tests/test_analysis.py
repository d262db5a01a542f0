"""Epoch classification, sleep/wake rule, efficiency, and report shape."""

import numpy as np
import pytest

from sleepmon.analysis import (EpochClass, build_report, classify_epochs, format_report,
                               sleep_efficiency, sleep_wake)
from sleepmon.config import Config
from sleepmon.events import Event

C = EpochClass


class TestClassifyEpochs:
    def test_all_zero_is_calmness(self):
        assert classify_epochs(np.zeros(20)) == [C.CALMNESS] * 20

    def test_lower_bounds_inclusive(self):
        cfg = Config()
        got = classify_epochs([cfg.class_tiny, cfg.class_limb, cfg.class_full], cfg)
        assert got == [C.TINY_MOVEMENT, C.LIMB_MOVEMENT, C.FULL_POSTURE_CHANGE]

    def test_band_upper_bounds_exclusive(self):
        cfg = Config()
        bounds = [cfg.class_tiny, cfg.class_limb, cfg.class_full]
        got = classify_epochs([b - 1e-9 for b in bounds], cfg)
        assert got == [C.CALMNESS, C.TINY_MOVEMENT, C.LIMB_MOVEMENT]

    def test_out_of_view_span_between_spikes(self):
        cfg = Config(class_exit=0.3, class_absent=0.003, class_min_absent_epochs=10)
        peaks = [0.0, 0.5] + [0.001] * 60 + [0.5, 0.0]
        got = classify_epochs(peaks, cfg)
        assert got[0] == C.CALMNESS
        assert got[1] == C.FULL_POSTURE_CHANGE      # departure spike keeps its class
        assert got[2:62] == [C.OUT_OF_VIEW] * 60
        assert got[62] == C.FULL_POSTURE_CHANGE     # return spike keeps its class
        assert got[63] == C.CALMNESS

    def test_short_absence_not_out_of_view(self):
        cfg = Config(class_min_absent_epochs=10)
        peaks = [0.5] + [0.0] * 5 + [0.5]
        got = classify_epochs(peaks, cfg)
        assert C.OUT_OF_VIEW not in got

    def test_absence_with_no_return_extends_to_end(self):
        peaks = [0.5] + [0.0] * 15
        got = classify_epochs(peaks)
        assert got[1:] == [C.OUT_OF_VIEW] * 15

    def test_quiet_sleep_after_return_is_not_absence(self):
        # The return spike closes the span and must not open a new one.
        peaks = [0.5] + [0.0] * 15 + [0.5] + [0.0] * 15
        got = classify_epochs(peaks)
        assert got[1:16] == [C.OUT_OF_VIEW] * 15
        assert got[17:] == [C.CALMNESS] * 15

    def test_intermediate_activity_blocks_absence_start(self):
        # An epoch at tiny level right after the spike means nobody left.
        peaks = [0.5, 0.01] + [0.0] * 15
        got = classify_epochs(peaks)
        assert C.OUT_OF_VIEW not in got

    def test_out_of_view_requires_preceding_exit_spike(self):
        rng = np.random.default_rng(9)
        cfg = Config()
        for _ in range(50):
            peaks = rng.uniform(0, 1, 40)
            got = classify_epochs(peaks, cfg)
            for i, cls in enumerate(got):
                if cls == C.OUT_OF_VIEW:
                    assert any(peaks[j] >= cfg.class_exit for j in range(i))


class TestSleepWake:
    def test_mapping(self):
        classes = [C.FULL_POSTURE_CHANGE, C.LIMB_MOVEMENT, C.TINY_MOVEMENT,
                   C.CALMNESS, C.OUT_OF_VIEW]
        assert sleep_wake(classes).tolist() == [True, True, False, False, True]

    def test_all_calm_is_all_sleep(self):
        assert not sleep_wake([C.CALMNESS] * 7).any()

    def test_all_out_of_view_is_all_wake(self):
        assert sleep_wake([C.OUT_OF_VIEW] * 7).all()


class TestSleepEfficiency:
    def test_all_calm(self):
        assert sleep_efficiency([C.CALMNESS] * 10) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sleep_efficiency([])

    def test_identity_with_wake_fraction(self):
        rng = np.random.default_rng(1)
        members = list(C)
        for _ in range(50):
            classes = [members[i] for i in rng.integers(0, 5, rng.integers(1, 200))]
            eff = sleep_efficiency(classes)
            assert eff == 1.0 - np.mean(sleep_wake(classes))

    def test_trouble_sleeping_component_arithmetic(self):
        # 46.05% tiny + 35.13% calmness over 10000 epochs -> 81.18%, which
        # rounds to the published 81.2% within 0.05 points.
        classes = ([C.TINY_MOVEMENT] * 4605 + [C.CALMNESS] * 3513
                   + [C.FULL_POSTURE_CHANGE] * 170 + [C.LIMB_MOVEMENT] * 710
                   + [C.OUT_OF_VIEW] * 1002)
        assert abs(sleep_efficiency(classes) * 100 - 81.2) <= 0.05

    def test_successful_sleeping_component_arithmetic(self):
        # 53.26% + 40.5% -> 93.76% vs the published 93.79%.
        classes = ([C.TINY_MOVEMENT] * 5326 + [C.CALMNESS] * 4050
                   + [C.FULL_POSTURE_CHANGE] * 26 + [C.LIMB_MOVEMENT] * 370
                   + [C.OUT_OF_VIEW] * 228)
        assert abs(sleep_efficiency(classes) * 100 - 93.79) <= 0.05


class TestBuildReport:
    def test_all_calm_no_events(self):
        report = build_report([C.CALMNESS] * 3600, [], [], 3600)
        assert report.calm_pct == 100.0
        assert report.efficiency == 1.0
        assert report.light_pct == report.noise_pct == 0.0

    def test_light_coverage(self):
        report = build_report([C.CALMNESS] * 3600, [Event("light", 100, 135, 1.0, 0, 0)], [],
                              3600)
        assert report.light_pct == pytest.approx(1.0)

    def test_percentages_partition(self):
        rng = np.random.default_rng(4)
        members = list(C)
        for _ in range(20):
            classes = [members[i] for i in rng.integers(0, 5, rng.integers(1, 500))]
            r = build_report(classes, [], [], len(classes))
            total = r.full_pct + r.limb_pct + r.tiny_pct + r.calm_pct + r.out_of_view_pct
            assert total == pytest.approx(100.0, abs=0.1)

    def test_raising_tiny_threshold_never_reduces_calmness(self):
        rng = np.random.default_rng(6)
        peaks = rng.uniform(0, 0.05, 500)
        low = classify_epochs(peaks, Config(class_tiny=0.004))
        high = classify_epochs(peaks, Config(class_tiny=0.008))
        assert high.count(C.CALMNESS) >= low.count(C.CALMNESS)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_report([], [], [], 0)


class TestReportFormat:
    def test_golden_text(self):
        report = build_report([C.CALMNESS] * 3600, [], [], 3600)
        text = format_report(report, cole_efficiency=0.9, sadeh_efficiency=0.85)
        assert text.splitlines() == [
            "full_posture_changes_pct=0.00",
            "limb_movements_pct=0.00",
            "tiny_movements_pct=0.00",
            "calmness_pct=100.00",
            "out_of_view_pct=0.00",
            "light_event_pct=0.00",
            "noise_event_pct=0.00",
            "sleep_efficiency=1.0000",
            "cole_sleep_efficiency=0.9000",
            "sadeh_sleep_efficiency=0.8500",
            "duration_seconds=3600",
        ]

    def test_missing_actigraphy_marked(self):
        report = build_report([C.CALMNESS] * 10, [], [], 10)
        assert "cole_sleep_efficiency=n/a" in format_report(report)
