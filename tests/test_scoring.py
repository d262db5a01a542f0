"""Score normalization, audio chunking, and whole-session scoring."""

import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sleepmon import background
from sleepmon.background import foreground_area
from sleepmon.config import CHANNELS
from sleepmon.errors import ManifestMismatchError
from sleepmon.scoring import (audio_score, chunk_bounds, exact_visual_scores, format_scores_csv,
                              make_models, parse_scores_csv, score_session)
from sleepmon.session import _THREAD_MIN_PX

from conftest import ScriptedFrames, build_session, force_helper_thread


class TestVisualScore:
    """A visual score is the foreground area over the roi area."""

    def test_empty_mask(self):
        assert foreground_area(np.zeros((350, 320), bool)) / 112000 == 0.0

    def test_full_mask(self):
        assert foreground_area(np.ones((350, 320), bool)) / 112000 == 1.0

    def test_fraction(self):
        mask = np.zeros((350, 320), bool)
        mask.ravel()[:11200] = True
        assert foreground_area(mask) / 112000 == pytest.approx(0.1)

    def test_doubling_area_doubles_score(self):
        mask1 = np.zeros((100, 100), bool)
        mask1[:10, :10] = True
        mask2 = np.zeros((100, 100), bool)
        mask2[:10, :20] = True
        assert foreground_area(mask2) / 10000 == 2 * (foreground_area(mask1) / 10000)


class TestChunkAudio:
    def test_known_boundaries(self):
        bounds = chunk_bounds(16000, 30, 30)
        assert len(bounds) == 31 and bounds[-1] == 16000
        assert np.diff(bounds)[0] == 533      # samples 0..532
        assert np.diff(bounds)[1] == 533      # samples 533..1065
        assert bounds[1] == 533 and bounds[2] == 1066

    def test_gapless_and_non_overlapping(self):
        bounds = chunk_bounds(16000, 30, 90)
        assert bounds[0] == 0
        assert np.all(np.diff(bounds) > 0)

    def test_underrun_names_first_incomplete_chunk(self):
        # Audio one sample short of the last chunk is rejected as the session
        # is built, so no chunk is ever scored short.
        with pytest.raises(ManifestMismatchError, match="^manifest mismatch: audio holds "
                           "15999 samples, need at least 16000$"):
            build_session(frame_count=30, width=12, height=10, roi=(1, 1, 8, 8),
                          audio=np.zeros(15999, np.int16))

    @settings(max_examples=100, deadline=None)
    @given(audio_rate=st.integers(1, 48000), video_rate=st.integers(1, 60),
           frame_count=st.integers(0, 200))
    def test_bounds_partition_the_prefix(self, audio_rate, video_rate, frame_count):
        bounds = chunk_bounds(audio_rate, video_rate, frame_count)
        assert len(bounds) == frame_count + 1
        assert bounds[0] == 0
        assert np.all(np.diff(bounds) >= 0)
        assert bounds[-1] == frame_count * audio_rate // video_rate


class TestAudioScore:
    def test_silence(self):
        assert audio_score(np.zeros(533, np.int16)) == 0.0

    def test_full_scale_dc(self):
        chunk = np.full(533, 32767, np.int16)
        assert audio_score(chunk) == 32767 / 32768

    def test_square_wave(self):
        chunk = np.tile(np.array([16384, -16384], np.int16), 266)
        assert audio_score(chunk) == 0.5

    def test_clamped_at_one(self):
        chunk = np.full(100, -32768, np.int16)
        assert audio_score(chunk) == 1.0

    def test_empty_chunk_rejected(self):
        with pytest.raises(ValueError, match="empty chunk"):
            audio_score(np.zeros(0, np.int16))


def _static_session(seconds=12, value=900, luma_value=50):
    n = seconds * 30
    man_kw = dict(frame_count=n, width=12, height=10, roi=(1, 1, 8, 8))
    s = build_session(**man_kw)
    return replace(s, depth=np.full((n, 10, 12), value, np.uint16),
                   color=np.full((n, 10, 12, 3), luma_value, np.uint8),
                   audio=np.zeros(s.manifest.min_audio_samples, np.int16))


class TestScoreSession:
    def test_static_silent_session_scores_near_zero(self):
        s = _static_session()
        scores = score_session(s, *make_models(s))
        burn = 10 * 30
        assert np.all(scores["depth"][burn:] < 0.01)
        assert np.all(scores["color"][burn:] < 0.01)
        assert np.all(scores["audio"] == 0.0)
        assert [len(v) for v in scores.values()] == [s.manifest.frame_count] * 3

    def test_scores_are_float64_arrays_keyed_by_channel(self):
        s = build_session(frame_count=5)
        scores = score_session(s, *make_models(s))
        assert list(scores) == list(CHANNELS)
        for v in scores.values():
            assert v.dtype == np.float64 and v.flags.c_contiguous

    def test_deterministic_across_runs(self):
        s = build_session(frame_count=60, width=12, height=10, roi=(1, 1, 8, 8), seed=3)
        out1 = score_session(s, *make_models(s))
        out2 = score_session(s, *make_models(s))
        for ch in CHANNELS:
            assert np.array_equal(out1[ch], out2[ch])

    def test_worker_count_does_not_change_output(self, monkeypatch):
        """One thread or two give bitwise-identical scores on a roi above
        ``_THREAD_MIN_PX`` whose zero-depth holes cross row-band edges."""
        monkeypatch.setattr(background, "_BAND_PX", 7 * 140)      # 7-row bands
        rng = np.random.default_rng(4)
        s = build_session(frame_count=40, width=150, height=140, roi=(5, 5, 140, 130))
        assert 140 * 130 >= _THREAD_MIN_PX
        depth = (1000 + rng.integers(-3, 4, s.depth.shape)).astype(np.uint16)
        depth[10:20, 30:90, 40:100] += 300
        depth[:, 8:30, 20:60] = 0                   # roi rows 3-24, from frame 0
        depth[rng.random(depth.shape) < 0.05] = 0
        color = (100 + rng.integers(-2, 3, s.color.shape)).astype(np.uint8)
        color[15:25] += 120
        s = replace(s, depth=depth, color=color)
        out = {}
        for threaded in (False, True):
            force_helper_thread(monkeypatch, threaded)
            out[threaded] = score_session(s, *make_models(s))
        assert list(out[True]) == list(out[False]) == list(CHANNELS)
        for ch in CHANNELS:
            assert np.array_equal(out[True][ch], out[False][ch])
        assert 0 < out[True]["depth"][15] < 1 and 0 < out[True]["color"][15] < 1

    @pytest.mark.parametrize("threaded", [False, True])
    @pytest.mark.parametrize("depth_fail, color_fail, want", [
        ((3, RuntimeError), None, "depth 3"),
        (None, (3, RuntimeError), "color 3"),
        ((5, RuntimeError), (3, RuntimeError), "color 3"),
        ((3, RuntimeError), (5, RuntimeError), "depth 3"),
        ((4, RuntimeError), (4, RuntimeError), "depth 4"),
        ((3, KeyboardInterrupt), (5, RuntimeError), "depth 3"),
    ])
    def test_error_of_the_first_failing_frame_depth_first(self, monkeypatch, threaded,
                                                          depth_fail, color_fail, want):
        force_helper_thread(monkeypatch, threaded)
        s = build_session(frame_count=12, width=12, height=10, roi=(1, 1, 8, 8), seed=6)
        models = make_models(s)
        for ch, fail in (("depth", depth_fail), ("color", color_fail)):
            at, exc = fail or (None, None)
            s = replace(s, **{ch: ScriptedFrames(getattr(s, ch), at=at,
                                                 exc=exc and exc(f"{ch} {at}"))})
        threads = threading.active_count()
        with pytest.raises((RuntimeError, KeyboardInterrupt), match=want):
            score_session(s, *models)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("failing", ["depth", "color"])
    def test_a_failure_stops_the_other_channel(self, monkeypatch, failing):
        force_helper_thread(monkeypatch, True)
        s = build_session(frame_count=40, width=12, height=10, roi=(1, 1, 8, 8), seed=7)
        models = make_models(s)
        other = "color" if failing == "depth" else "depth"
        s = replace(s, **{failing: ScriptedFrames(getattr(s, failing), at=1,
                                                  exc=RuntimeError("stop")),
                          other: ScriptedFrames(getattr(s, other), delay=0.01)})
        with pytest.raises(RuntimeError, match="stop"):
            score_session(s, *models)
        assert getattr(s, other).read[:2] == [0, 1] and len(getattr(s, other).read) < 10

    def test_audio_underrun_raises_before_any_frame_is_read(self):
        s = build_session(frame_count=30, width=12, height=10, roi=(1, 1, 8, 8), seed=8)
        depth, color = ScriptedFrames(s.depth), ScriptedFrames(s.color)
        # The short audio is rejected as the session is built, before scoring.
        with pytest.raises(ManifestMismatchError, match="audio holds 15999 samples"):
            replace(s, audio=s.audio[:-1], depth=depth, color=color)
        assert depth.read == [] and color.read == []

    def test_audio_rate_below_video_rate_is_rejected_before_scoring(self):
        # The manifest rejects the rates, so no session with them reaches the detector.
        with pytest.raises(ValueError, match="audio_rate 20 is below video_rate 30, so some "
                                             "video frames would have no audio"):
            build_session(frame_count=3, width=16, height=16, roi=(0, 0, 16, 16), audio_rate=20)

    def test_depth_series_ignores_color_stream(self):
        s1 = build_session(frame_count=45, width=12, height=10, roi=(1, 1, 8, 8), seed=5)
        s2 = build_session(frame_count=45, width=12, height=10, roi=(1, 1, 8, 8), seed=5)
        s2 = replace(s2, color=np.clip(s2.color.astype(np.int32) * 2, 0, 255).astype(np.uint8))
        d1 = score_session(s1, *make_models(s1))["depth"]
        d2 = score_session(s2, *make_models(s2))["depth"]
        assert np.array_equal(d1, d2)


class TestScoresCsv:
    def test_format_and_parse_round_trip(self):
        text = format_scores_csv({"depth": np.array([0.0, 0.1234567]),
                                  "color": np.array([1.0, 0.5]),
                                  "audio": np.array([0.25, 0.0])})
        assert text.splitlines()[0] == "frame,depth,color,audio"
        assert text.splitlines()[1] == "0,0.000000,1.000000,0.250000"
        assert text.splitlines()[2] == "1,0.123457,0.500000,0.000000"
        parsed = parse_scores_csv(text)
        assert parsed["depth"][1] == pytest.approx(0.123457)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            parse_scores_csv("frames,depth\n")

    def test_header_only_gives_empty_columns(self, recwarn):
        parsed = parse_scores_csv("frame,depth,color,audio\n")
        assert list(parsed) == list(CHANNELS)
        assert all(v.dtype == np.float64 and len(v) == 0 for v in parsed.values())
        assert len(recwarn) == 0

    def test_lengths_must_agree(self):
        with pytest.raises(ValueError, match="lengths differ"):
            format_scores_csv({"depth": np.zeros(2), "color": np.zeros(2),
                               "audio": np.zeros(1)})

    @pytest.mark.parametrize("body", [
        "0,0.1,0.2\n",                      # a field short
        "0,0.1,0.2,0.3,0.4\n",              # a field over
        "0,0.1,0.2,0.3\n1,0.1,0.2\n",        # ragged rows
        "0,x,0.2,0.3\n",                    # not a number
        "0,,0.2,0.3\n",                     # empty field
        "1,0.1,0.2,0.3\n0,0.1,0.2,0.3\n",    # shuffled frames
        "0,0.1,0.2,0.3\n2,0.1,0.2,0.3\n",    # a gap in the frames
        "0,0.1,0.2,0.3\n0,0.1,0.2,0.3\n",    # a repeated frame
        "0.5,0.1,0.2,0.3\n",                # a fractional frame
    ])
    def test_malformed_rows_rejected(self, body):
        with pytest.raises(ValueError):
            parse_scores_csv("frame,depth,color,audio\n" + body)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 3), max_size=50))
    def test_parse_is_bit_equal_to_per_cell_float(self, rows):
        cols = np.array(rows, np.float64).reshape(-1, 3).T
        text = format_scores_csv(dict(zip(CHANNELS, cols)))
        ref = {ch: [] for ch in CHANNELS}
        for line in text.splitlines()[1:]:
            for ch, cell in zip(CHANNELS, line.split(",")[1:]):
                ref[ch].append(float(cell))
        parsed = parse_scores_csv(text)
        assert list(parsed) == list(CHANNELS)
        for ch in CHANNELS:
            assert parsed[ch].dtype == np.float64
            assert parsed[ch].tobytes() == np.array(ref[ch], np.float64).tobytes()


def per_row_scores_csv(scores):
    """Reference formatter: one f-string per row."""
    d, c, a = (scores[ch] for ch in CHANNELS)
    lines = ["frame," + ",".join(CHANNELS)]
    for i in range(len(d)):
        lines.append(f"{i},{d[i]:.6f},{c[i]:.6f},{a[i]:.6f}")
    return "\n".join(lines) + "\n"


# -0.0, subnormals, 1.0, and values on and beside the six-decimal rounding edge.
EDGE_SCORES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.0, np.nextafter(1.0, 0.0),
               5e-7, np.nextafter(5e-7, 0.0), np.nextafter(5e-7, 1.0), 1.5e-6, 2.5e-6,
               0.1234565, np.nextafter(0.1234565, 0.0), np.nextafter(0.1234565, 1.0),
               0.9999995, np.nextafter(0.9999995, 1.0), np.nextafter(0.9999995, 0.0)]


class TestScoresCsvBytes:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.one_of(st.sampled_from(EDGE_SCORES), st.floats(0.0, 1.0),
                                          st.floats(allow_nan=False))] * 3), max_size=60))
    @example([tuple(EDGE_SCORES[i:i + 3]) for i in range(len(EDGE_SCORES) - 2)])
    def test_bytes_equal_per_row_formatting(self, rows):
        cols = np.array(rows, np.float64).reshape(-1, 3).T
        scores = dict(zip(CHANNELS, cols))
        assert format_scores_csv(scores) == per_row_scores_csv(scores)

    def test_negative_zero_and_subnormal_rows(self):
        z = np.array([-0.0, 5e-324, np.nextafter(5e-7, 0.0), np.nextafter(5e-7, 1.0)])
        text = format_scores_csv({"depth": z, "color": z, "audio": z})
        assert [line.split(",")[1] for line in text.splitlines()[1:]] == [
            "-0.000000", "0.000000", "0.000000", "0.000001"]


def _area_and_counts():
    return st.integers(1, 10 ** 6 - 1).flatmap(
        lambda area: st.tuples(st.just(area),
                               st.lists(st.integers(0, area), min_size=1, max_size=20)))


class TestExactVisualScores:
    @settings(max_examples=200, deadline=None)
    @given(_area_and_counts())
    @example((2667, [8, 0, 2667]))                 # 127x21 roi: 8/2667 prints as 0.003000
    @example((10 ** 6 - 1, [1, 499_999, 500_000, 10 ** 6 - 2]))
    def test_recovers_the_library_scores_bit_for_bit(self, area_counts):
        area, counts = area_counts
        raw = np.array([k / area for k in counts])
        zeros = np.zeros(len(raw))
        text = format_scores_csv({"depth": raw, "color": zeros, "audio": zeros})
        got = exact_visual_scores(parse_scores_csv(text)["depth"], area)
        assert got.dtype == np.float64
        assert got.tobytes() == raw.tobytes()

    @pytest.mark.parametrize("area", [0, 10 ** 6, 640 * 480 * 4])
    def test_area_outside_the_exact_range_rejected(self, area):
        with pytest.raises(ValueError, match="roi area"):
            exact_visual_scores(np.zeros(3), area)
