"""Epoch aggregation, the three-point event rule (with oracle), clips."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sleepmon.config import CHANNELS, Config
from sleepmon.errors import ManifestMismatchError
from sleepmon.events import (EVENT_LOG_HEADER, Event, clip_range,
                             detect_events, epochize, epoch_peaks, format_epochs_csv,
                             format_event_log, parse_event_log, run_detector)
from sleepmon.scoring import format_scores_csv, make_models, score_session

from conftest import build_session


def detect_ref(counts):
    """Maximal-run characterization over zero-padded counts (oracle)."""
    c = [0] + [int(x) for x in counts] + [0]
    spans = []
    for s in range(1, len(c) - 1):
        if not c[s - 1] < c[s]:
            continue
        e = s
        while c[e] <= c[e + 1]:
            e += 1
        spans.append((s - 1, e - 1))
    maximal = [sp for sp in spans
               if not any(o != sp and o[0] <= sp[0] and sp[1] <= o[1] for o in spans)]
    return sorted(set(maximal))


def epoch_loops(series, threshold, frames_per_epoch):
    """Per-second counts above the threshold and peaks, one whole second at a time (oracle)."""
    counts, peaks = [], []
    for start in range(0, len(series) - frames_per_epoch + 1, frames_per_epoch):
        second = series[start:start + frames_per_epoch]
        counts.append(sum(1 for v in second if v > threshold))
        peaks.append(max(second))
    return counts, peaks


class TestEpochize:
    def test_all_zero(self):
        series = np.zeros(90)
        assert np.array_equal(epochize(series, 0.5, 30), [0, 0, 0])

    def test_all_above(self):
        series = np.full(60, 0.9)
        assert np.array_equal(epochize(series, 0.5, 30), [30, 30])

    def test_mixed_second(self):
        series = np.concatenate([np.full(10, 0.3), np.zeros(20)])
        assert np.array_equal(epochize(series, 0.1, 30), [10])

    def test_partial_final_second_dropped(self):
        series = np.full(75, 0.9)
        assert len(epochize(series, 0.5, 30)) == 2

    def test_threshold_is_strict(self):
        series = np.full(30, 0.5)
        assert epochize(series, 0.5, 30)[0] == 0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        series = rng.uniform(0, 1, 300)
        lo = epochize(series, 0.2, 30)
        hi = epochize(series, 0.6, 30)
        assert np.all(hi <= lo)

    @settings(max_examples=80, deadline=None)
    @given(fpe=st.integers(1, 60), n_epochs=st.integers(0, 12), tail=st.integers(0, 59),
           seed=st.integers(0, 2 ** 32 - 1),
           threshold=st.floats(-0.5, 1.5) | st.integers(0, 8).map(lambda k: k / 8))
    def test_counts_and_peaks_match_per_second_loops(self, fpe, n_epochs, tail, seed,
                                                     threshold):
        # Scores on a grid of eighths, so frames hit a grid threshold exactly.
        series = np.random.default_rng(seed).integers(0, 9, n_epochs * fpe + tail % fpe) / 8
        counts, peaks = epoch_loops(series.tolist(), threshold, fpe)
        got_counts, got_peaks = epochize(series, threshold, fpe), epoch_peaks(series, fpe)
        assert got_counts.dtype == np.int64 and got_counts.tolist() == counts
        assert got_peaks.dtype == np.float64 and got_peaks.tolist() == peaks


class TestDetectEvents:
    def test_rise_plateau_fall(self):
        assert detect_events([0, 0, 2, 3, 3, 1, 0]) == [(2, 4)]

    def test_all_zero(self):
        assert detect_events([0, 0, 0]) == []

    def test_isolated_spike_is_length_one(self):
        assert detect_events([5]) == [(0, 0)]

    def test_back_to_back_events(self):
        assert detect_events([3, 1, 2, 0]) == [(0, 0), (2, 2)]

    def test_matches_oracle_on_random_sequences(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            counts = rng.integers(0, 31, size=rng.integers(1, 60))
            assert detect_events(counts) == detect_ref(counts)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=40))
    def test_matches_oracle_property(self, counts):
        assert detect_events(counts) == detect_ref(counts)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=60))
    def test_spans_disjoint_and_ordered(self, counts):
        spans = detect_events(counts)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert s1 <= e1 < s2 <= e2


class TestClips:
    def test_motion_clip_with_margin(self):
        got = clip_range("motion", 10, 12, video_rate=30, audio_rate=16000,
                         frame_count=450, audio_samples=240000)
        assert got == (270, 419)

    def test_noise_clip_with_margin(self):
        got = clip_range("noise", 5, 5, video_rate=30, audio_rate=16000,
                         frame_count=300, audio_samples=160000)
        assert got == (64000, 112000)

    def test_clamped_at_session_start(self):
        got = clip_range("motion", 0, 0, video_rate=30, audio_rate=16000,
                         frame_count=90, audio_samples=48000)
        assert got[0] == 0

    def test_clamped_at_session_end(self):
        got = clip_range("motion", 2, 2, video_rate=30, audio_rate=16000,
                         frame_count=90, audio_samples=48000)
        assert got == (30, 89)

    def test_span_outside_session_rejected(self):
        with pytest.raises(ValueError):
            clip_range("motion", 2, 3, video_rate=30, audio_rate=16000,
                       frame_count=90, audio_samples=48000)


class TestDetectorConfig:
    """The detector's thresholds and burn-in are fields of ``Config``."""

    def test_threshold_range_checked(self):
        for ch, value in itertools.product(CHANNELS, [0.0, 1.0, -0.1, float("nan")]):
            with pytest.raises(ValueError, match=f"threshold for {ch} out of range"):
                Config(**{f"{ch}_threshold": value})
        with pytest.raises(ValueError, match="burn_in_seconds"):
            Config(burn_in_seconds=-1)

    def test_defaults(self):
        cfg = Config()
        assert [cfg.threshold(ch) for ch in CHANNELS] == [0.02, 0.05, 0.10]
        assert cfg.burn_in_seconds == 10
        s = build_session(frame_count=360, width=12, height=10, roi=(1, 1, 8, 8), seed=3)
        default, explicit = run_detector(s), run_detector(s, cfg)
        assert sum(map(len, default.events.values())) > 0
        for ch in CHANNELS:
            assert np.array_equal(default.scores[ch], explicit.scores[ch])
            assert np.array_equal(default.epochs[ch], explicit.epochs[ch])
        assert default.events == explicit.events


class TestRunDetector:
    def _static(self, seconds=12):
        n = seconds * 30
        s = build_session(frame_count=n, width=12, height=10, roi=(1, 1, 8, 8))
        return replace(s, depth=np.full((n, 10, 12), 900, np.uint16),
                       color=np.full((n, 10, 12, 3), 40, np.uint8),
                       audio=np.zeros(s.manifest.min_audio_samples, np.int16))

    def test_static_session_has_no_events(self):
        res = run_detector(self._static())
        assert all(len(v) == 0 for v in res.events.values())

    @pytest.mark.parametrize("stream", ["depth", "color"])
    def test_store_one_frame_short_never_reaches_the_detector(self, stream):
        s = self._static(1)
        with pytest.raises(ManifestMismatchError, match="manifest declares 30"):
            run_detector(replace(s, **{stream: getattr(s, stream)[:-1]}))

    @pytest.mark.parametrize("shape", [(8, 6), (10, 10)])
    def test_store_of_wrong_frames_never_reaches_the_detector(self, shape):
        s = build_session(frame_count=60)
        depth = np.full((60,) + shape, 900, np.uint16)
        with pytest.raises(ManifestMismatchError, match=f"depth store holds uint16 items of "
                                                        fr"shape \({shape[0]}, {shape[1]}\)"):
            run_detector(replace(s, depth=depth))

    def test_empty_session(self):
        s = build_session(frame_count=0)
        res = run_detector(s)
        assert all(len(v) == 0 for v in res.events.values())
        assert all(len(v) == 0 for v in res.epochs.values())

    def test_audio_perturbation_leaves_visual_events_alone(self):
        s1 = self._static(14)
        s2 = self._static(14)
        burst = np.zeros(s2.manifest.min_audio_samples, np.int16)
        burst[12 * 16000:13 * 16000] = 20000
        s2 = replace(s2, audio=burst)
        r1, r2 = run_detector(s1), run_detector(s2)
        assert len(r2.events["noise"]) == 1
        assert r1.events["motion"] == r2.events["motion"]
        assert r1.events["light"] == r2.events["light"]
        assert np.array_equal(r1.epochs["depth"], r2.epochs["depth"])

    def test_burn_in_zeroes_early_epochs(self):
        s = self._static(12)
        # loud audio during the burn-in window only
        loud = np.zeros(s.manifest.min_audio_samples, np.int16)
        loud[: 5 * 16000] = 20000
        s = replace(s, audio=loud)
        res = run_detector(s)
        assert len(res.events["noise"]) == 0
        assert np.all(res.epochs["audio"][:10] == 0)

    def test_config_thresholds_and_burn_in_apply(self):
        s = self._static(12)
        loud = np.zeros(s.manifest.min_audio_samples, np.int16)
        loud[: 5 * 16000] = 20000
        s = replace(s, audio=loud)
        config = Config(burn_in_seconds=0)
        res = run_detector(s, config)
        assert [(e.start_epoch, e.end_epoch) for e in res.events["noise"]] == [(0, 4)]
        quiet = run_detector(s, Config(burn_in_seconds=0, audio_threshold=0.99))
        assert quiet.events["noise"] == []

    def test_config_gmm_values_reach_both_models(self):
        s = build_session(frame_count=40, seed=3)
        config = Config(gmm_components=2, gmm_learning_rate=0.2, gmm_luma_initial_variance=100.0)
        got = run_detector(s, config).scores
        want = score_session(s, *make_models(s, config))
        default = run_detector(s).scores
        for ch in ("depth", "color"):
            assert np.array_equal(got[ch], want[ch])
            assert not np.array_equal(got[ch], default[ch])


class TestEpochPeaks:
    def test_peaks_are_per_second_maxima(self):
        values = np.zeros(60)
        values[10] = 0.5
        values[40] = 0.2
        peaks = epoch_peaks(values, 30)
        assert np.array_equal(peaks, [0.5, 0.2])
        for short in (np.zeros(0, np.int64), np.zeros(29, np.uint8), []):
            assert epoch_peaks(short, 30).dtype == np.float64


class TestEventLog:
    def test_format_golden(self):
        events = {"motion": [Event("motion", 2, 4, 0.125, 30, 179)],
                  "light": [], "noise": [Event("noise", 7, 7, 0.25, 96000, 144000)]}
        text = format_event_log(events)
        lines = text.splitlines()
        assert lines[0] == "channel,start_epoch,end_epoch,peak_score,clip_start,clip_end"
        assert lines[1] == "motion,2,4,0.125000,30,179"
        assert lines[2] == "noise,7,7,0.250000,96000,144000"

    def test_round_trip(self):
        events = {"motion": [Event("motion", 2, 4, 0.125, 30, 179)],
                  "light": [Event("light", 1, 1, 1.0, 0, 89)], "noise": []}
        parsed = parse_event_log(format_event_log(events))
        assert parsed["motion"] == events["motion"]
        assert parsed["light"] == events["light"]
        assert parsed["noise"] == []

    @pytest.mark.parametrize("rows", [
        ["motion,10,12,0.1,0,0", "motion,2,4,0.1,0,0"],    # unsorted
        ["motion,2,5,0.1,0,0", "motion,5,8,0.1,0,0"],      # overlapping by one epoch
        ["noise,1,1,0.1,0,0", "noise,1,1,0.1,0,0"],        # repeated
        ["light,6,5,1.0,0,0"],                             # ends before it starts
    ])
    def test_rejects_spans_not_sorted_and_disjoint(self, rows):
        with pytest.raises(ValueError, match="not sorted and disjoint"):
            parse_event_log("\n".join([EVENT_LOG_HEADER] + rows) + "\n")

    def test_order_is_checked_per_channel(self):
        text = "\n".join([EVENT_LOG_HEADER, "motion,10,12,0.1,0,0", "light,2,2,1.0,0,0",
                          "motion,13,13,0.1,0,0", "light,0,0,1.0,0,0"]) + "\n"
        with pytest.raises(ValueError, match="light spans"):
            parse_event_log(text)
        parsed = parse_event_log(text.replace("light,0,0", "light,3,3"))
        assert [(e.start_epoch, e.end_epoch) for e in parsed["motion"]] == [(10, 12), (13, 13)]

    def test_epochs_csv(self):
        epochs = {"depth": np.array([0, 3]), "color": np.array([1, 0]),
                  "audio": np.array([30, 2])}
        assert format_epochs_csv(epochs).splitlines() == [
            "epoch,depth,color,audio", "0,0,1,30", "1,3,0,2"]
        for ch in CHANNELS:
            with pytest.raises(ValueError, match="epoch series lengths differ"):
                format_epochs_csv(dict(epochs, **{ch: epochs[ch][:1]}))


class TestChannelTable:
    """``config.CHANNELS`` names the file columns and the event channels, in order."""

    def test_keys_are_the_csv_columns(self):
        n = np.zeros(1)
        scores = format_scores_csv({"depth": n, "color": n, "audio": n})
        epochs = format_epochs_csv({"depth": [0], "color": [0], "audio": [0]})
        for text in (scores, epochs):
            assert text.splitlines()[0].split(",")[1:] == list(CHANNELS)

    def test_values_are_the_event_log_channel_order(self):
        by_channel = {ch: [Event(ch, 0, 0, 0.5, 0, 0)] for ch in reversed(CHANNELS.values())}
        rows = format_event_log(by_channel).splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == list(CHANNELS.values())
        assert list(parse_event_log("\n".join([EVENT_LOG_HEADER] + rows))) == \
            list(CHANNELS.values())

    def test_detector_output_is_keyed_by_the_table(self):
        res = run_detector(build_session(frame_count=60))
        assert list(res.scores) == list(res.epochs) == list(CHANNELS)
        assert list(res.events) == list(CHANNELS.values())
        for v in res.scores.values():
            assert v.dtype == np.float64 and v.flags.c_contiguous and len(v) == 60
