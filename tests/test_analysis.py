"""Epoch classification, sleep/wake rule, efficiency, and report shape."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sleepmon.analysis import (WAKE_CLASSES, EpochClass, build_report, classify_epochs,
                               format_report, sleep_efficiency, sleep_report)
from sleepmon.config import Config
from sleepmon.events import Event

C = EpochClass


def baseline_ref(peaks, c):
    """The per-epoch if-chain of the four baseline classes (oracle)."""
    classes = []
    for v in peaks:
        if v < c.class_tiny:
            classes.append(C.CALMNESS)
        elif v < c.class_limb:
            classes.append(C.TINY_MOVEMENT)
        elif v < c.class_full:
            classes.append(C.LIMB_MOVEMENT)
        else:
            classes.append(C.FULL_POSTURE_CHANGE)
    return classes


@st.composite
def class_configs(draw):
    """``Config()`` or a random valid set of ``class_*`` fields."""
    if draw(st.booleans()):
        return Config()
    tiny, limb, full, top = sorted(draw(st.lists(st.floats(1e-6, 1.0), min_size=4,
                                                 max_size=4, unique=True)))
    return Config(class_tiny=tiny, class_limb=limb, class_full=full,
                  class_exit=draw(st.sampled_from([full, top])),
                  class_absent=tiny * draw(st.floats(0.0, 0.99)),
                  class_min_absent_epochs=draw(st.integers(1, 5)))


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

    @settings(max_examples=80, deadline=None)
    @given(config=class_configs(), data=st.data())
    def test_bands_match_the_if_chain(self, config, data):
        bounds = [config.class_tiny, config.class_limb, config.class_full, config.class_exit]
        near = [x for b in bounds for x in (np.nextafter(b, -1.0), b, np.nextafter(b, 2.0))]
        peaks = data.draw(st.lists(st.sampled_from([0.0, 1.0] + near)
                                   | st.floats(0.0, 1.0), max_size=40))
        got, want = classify_epochs(peaks, config), baseline_ref(peaks, config)
        assert len(got) == len(want)
        # The out-of-view overlay re-labels epochs; every other one keeps its band.
        assert all(g in (w, C.OUT_OF_VIEW) for g, w in zip(got, want))
        if config.class_min_absent_epochs > len(peaks) - 1:
            assert got == want

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
    """The sleep/wake rule, read through the efficiency of single classes."""

    def test_mapping(self):
        classes = [C.FULL_POSTURE_CHANGE, C.LIMB_MOVEMENT, C.TINY_MOVEMENT,
                   C.CALMNESS, C.OUT_OF_VIEW]
        assert [sleep_efficiency([c]) for c in classes] == [0.0, 0.0, 1.0, 1.0, 0.0]

    def test_all_calm_is_all_sleep(self):
        assert sleep_efficiency([C.CALMNESS] * 7) == 1.0

    def test_all_out_of_view_is_all_wake(self):
        assert sleep_efficiency([C.OUT_OF_VIEW] * 7) == 0.0


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
            assert eff == 1.0 - np.mean([c in WAKE_CLASSES for c in classes])

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
        report = build_report([C.CALMNESS] * 3600, [], [])
        assert report.calm_pct == 100.0
        assert report.efficiency == 1.0
        assert report.light_pct == report.noise_pct == 0.0

    def test_light_coverage(self):
        report = build_report([C.CALMNESS] * 3600, [Event("light", 100, 135, 1.0, 0, 0)], [])
        assert report.light_pct == pytest.approx(1.0)

    def test_percentages_partition(self):
        rng = np.random.default_rng(4)
        members = list(C)
        for _ in range(20):
            classes = [members[i] for i in rng.integers(0, 5, rng.integers(1, 500))]
            r = build_report(classes, [], [])
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
            build_report([], [], [])


class TestReportFormat:
    def test_golden_text(self):
        report = build_report([C.CALMNESS] * 3600, [], [])
        text = format_report(replace(report, cole_efficiency=0.9, sadeh_efficiency=0.85))
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
        report = build_report([C.CALMNESS] * 10, [], [])
        assert "cole_sleep_efficiency=n/a" in format_report(report)


class TestSleepReport:
    def test_actigraphy_only_from_one_minute(self):
        short = sleep_report(np.zeros(59 * 30), [], [], 30)
        assert (short.cole_efficiency, short.sadeh_efficiency) == (None, None)
        assert short.duration_seconds == 59
        one_short = sleep_report(np.zeros(60 * 30 - 1), [], [], 30)
        assert (one_short.cole_efficiency, one_short.sadeh_efficiency) == (None, None)
        full = sleep_report(np.zeros(60 * 30), [], [], 30)
        assert (full.efficiency, full.cole_efficiency, full.sadeh_efficiency) == (1.0, 1.0, 1.0)

    def test_epochs_follow_the_video_rate(self):
        scores = np.zeros(119)
        scores[60] = 0.2
        one = sleep_report(scores, [], [], 1)
        two = sleep_report(scores, [], [], 2)
        assert (one.duration_seconds, two.duration_seconds) == (119, 59)
        assert one.full_pct == pytest.approx(100 / 119)
        assert two.full_pct == pytest.approx(100 / 59)
        assert one.cole_efficiency is not None and two.cole_efficiency is None

    def test_tiny_threshold_reaches_classes_and_counts(self):
        # 0.006 per frame is a tiny movement and 60 counts a minute, which
        # Cole scores wake; above the raised threshold it is calm, 0 counts.
        scores = np.full(120, 0.006)
        default = sleep_report(scores, [], [], 1)
        raised = sleep_report(scores, [], [], 1, Config(class_tiny=0.007))
        assert (default.tiny_pct, default.efficiency, default.cole_efficiency) == (100.0, 1.0, 0.0)
        assert (raised.calm_pct, raised.efficiency, raised.cole_efficiency) == (100.0, 1.0, 1.0)

    def test_event_coverage(self):
        light = [Event("light", 10, 19, 1.0, 0, 0)]
        noise = [Event("noise", 0, 4, 1.0, 0, 0), Event("noise", 50, 64, 1.0, 0, 0)]
        report = sleep_report(np.zeros(100), light, noise, 1)
        assert (report.light_pct, report.noise_pct) == (10.0, 20.0)
