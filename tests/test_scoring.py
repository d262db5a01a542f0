"""Score normalization, audio chunking, and whole-session scoring."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sleepmon.errors import AudioUnderrunError
from sleepmon.scoring import (audio_score, chunk_audio, chunk_bounds, exact_visual_scores,
                              format_scores_csv, make_models, parse_scores_csv,
                              score_session, visual_score, ScoreSeries)

from conftest import build_session


class TestVisualScore:
    def test_empty_mask(self):
        assert visual_score(np.zeros((350, 320), bool), 112000) == 0.0

    def test_full_mask(self):
        assert visual_score(np.ones((350, 320), bool), 112000) == 1.0

    def test_fraction(self):
        mask = np.zeros((350, 320), bool)
        mask.ravel()[:11200] = True
        assert visual_score(mask, 112000) == pytest.approx(0.1)

    def test_doubling_area_doubles_score(self):
        mask1 = np.zeros((100, 100), bool)
        mask1[:10, :10] = True
        mask2 = np.zeros((100, 100), bool)
        mask2[:10, :20] = True
        assert visual_score(mask2, 10000) == 2 * visual_score(mask1, 10000)

    def test_area_mismatch_rejected(self):
        with pytest.raises(ValueError):
            visual_score(np.zeros((4, 4), bool), 17)


class TestChunkAudio:
    def test_known_boundaries(self):
        audio = np.zeros(16000, np.int16)
        chunks = chunk_audio(audio, 16000, 30, 30)
        assert len(chunks) == 30
        assert len(chunks[0]) == 533          # samples 0..532
        assert len(chunks[1]) == 533          # samples 533..1065
        bounds = chunk_bounds(16000, 30, 30)
        assert bounds[1] == 533 and bounds[2] == 1066

    def test_gapless_and_non_overlapping(self):
        bounds = chunk_bounds(16000, 30, 90)
        assert bounds[0] == 0
        assert np.all(np.diff(bounds) > 0)

    def test_underrun_names_first_incomplete_chunk(self):
        audio = np.zeros(15999, np.int16)
        with pytest.raises(AudioUnderrunError, match="audio underrun at chunk 29"):
            chunk_audio(audio, 16000, 30, 30)

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
    s.depth = np.full((n, 10, 12), value, np.uint16)
    s.color = np.full((n, 10, 12, 3), luma_value, np.uint8)
    s.audio = np.zeros(s.manifest.min_audio_samples, np.int16)
    return s


class TestScoreSession:
    def test_static_silent_session_scores_near_zero(self):
        s = _static_session()
        d, c, a = score_session(s, *make_models(s))
        burn = 10 * 30
        assert np.all(d.values[burn:] < 0.01)
        assert np.all(c.values[burn:] < 0.01)
        assert np.all(a.values == 0.0)
        assert len(d) == len(c) == len(a) == s.manifest.frame_count

    def test_deterministic_across_runs(self):
        s = build_session(frame_count=60, width=12, height=10, roi=(1, 1, 8, 8), seed=3)
        out1 = score_session(s, *make_models(s))
        out2 = score_session(s, *make_models(s))
        for a, b in zip(out1, out2):
            assert np.array_equal(a.values, b.values)

    def test_worker_count_does_not_change_output(self):
        s = build_session(frame_count=60, width=12, height=10, roi=(1, 1, 8, 8), seed=4)
        seq = score_session(s, *make_models(s), workers=1)
        par = score_session(s, *make_models(s), workers=3)
        for a, b in zip(seq, par):
            assert np.array_equal(a.values, b.values)

    def test_depth_series_ignores_color_stream(self):
        s1 = build_session(frame_count=45, width=12, height=10, roi=(1, 1, 8, 8), seed=5)
        s2 = build_session(frame_count=45, width=12, height=10, roi=(1, 1, 8, 8), seed=5)
        s2.color = np.clip(s2.color.astype(np.int32) * 2, 0, 255).astype(np.uint8)
        d1, _, _ = score_session(s1, *make_models(s1))
        d2, _, _ = score_session(s2, *make_models(s2))
        assert np.array_equal(d1.values, d2.values)


class TestScoresCsv:
    def test_format_and_parse_round_trip(self):
        d = ScoreSeries("depth", np.array([0.0, 0.1234567]))
        c = ScoreSeries("color", np.array([1.0, 0.5]))
        a = ScoreSeries("audio", np.array([0.25, 0.0]))
        text = format_scores_csv(d, c, a)
        assert text.splitlines()[0] == "frame,depth,color,audio"
        assert text.splitlines()[1] == "0,0.000000,1.000000,0.250000"
        assert text.splitlines()[2] == "1,0.123457,0.500000,0.000000"
        parsed = parse_scores_csv(text)
        assert parsed["depth"][1] == pytest.approx(0.123457)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            parse_scores_csv("frames,depth\n")


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
        zeros = ScoreSeries("color", np.zeros(len(raw)))
        text = format_scores_csv(ScoreSeries("depth", raw), zeros, zeros)
        got = exact_visual_scores(parse_scores_csv(text)["depth"], area)
        assert got.dtype == np.float64
        assert got.tobytes() == raw.tobytes()

    @pytest.mark.parametrize("area", [0, 10 ** 6, 640 * 480 * 4])
    def test_area_outside_the_exact_range_rejected(self, area):
        with pytest.raises(ValueError, match="roi area"):
            exact_visual_scores(np.zeros(3), area)
