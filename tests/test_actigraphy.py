"""Cole and Sadeh scorers against hand values and brute-force reimplementations."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sleepmon.actigraphy import cole_sleep_wake, counts_from_scores, sadeh_sleep_wake
from sleepmon.analysis import sleep_report

COLE_W = {-4: 106, -3: 54, -2: 58, -1: 76, 0: 230, 1: 74, 2: 67}


def cole_ref(counts):
    """Direct per-minute evaluation of the weighted window (oracle)."""
    n = len(counts)

    def at(i):
        return counts[i] if 0 <= i < n else 0

    wake = []
    for t in range(n):
        d = 0.001 * sum(w * at(t + k) for k, w in COLE_W.items())
        wake.append(d >= 1.0)
    return wake


def sadeh_ref(counts):
    """Direct per-minute evaluation of the probability-of-sleep rule (oracle)."""
    n = len(counts)

    def at(i):
        return counts[i] if 0 <= i < n else 0

    wake = []
    for t in range(n):
        window11 = [at(t + k) for k in range(-5, 6)]
        avg = sum(window11) / 11.0
        nat = sum(1 for x in window11 if 50 <= x < 100)
        window6 = [at(t + k) for k in range(-5, 1)]
        sd = statistics.stdev(window6)
        lg = math.log(at(t) + 1.0)
        ps = 7.601 - 0.065 * avg - 1.08 * nat - 0.056 * sd - 0.703 * lg
        wake.append(ps < 0.0)
    return wake


def counts_ref(scores, video_rate, threshold):
    """Per-minute activity counts, one whole minute at a time (oracle)."""
    per_minute = 60 * video_rate
    return [round(1000.0 * sum(max(v - threshold, 0.0) for v in scores[m:m + per_minute]))
            for m in range(0, len(scores) - per_minute + 1, per_minute)]


class TestCountsFromScores:
    def test_all_zero_scores(self):
        assert np.array_equal(counts_from_scores(np.zeros(3600), 30), np.zeros(2, np.int64))

    def test_single_frame_excess(self):
        scores = np.zeros(1800)
        scores[100] = 0.005 + 0.1
        assert counts_from_scores(scores, 30).tolist() == [100]

    def test_linearity_before_rounding(self):
        scores = np.zeros(1800)
        scores[0:10] = 0.005 + 0.004
        single = counts_from_scores(scores, 30)[0]
        scores[0:10] = 0.005 + 0.008
        assert counts_from_scores(scores, 30)[0] == 2 * single

    def test_partial_minute_dropped(self):
        assert len(counts_from_scores(np.zeros(1800 + 900), 30)) == 1

    @settings(max_examples=40, deadline=None)
    @given(video_rate=st.integers(1, 60), minutes=st.integers(0, 3),
           tail=st.integers(0, 3599), seed=st.integers(0, 2 ** 32 - 1),
           threshold=st.integers(0, 1024))
    def test_matches_per_minute_loop(self, video_rate, minutes, tail, seed, threshold):
        # Scores and threshold on a grid of 1/1024: every sum is exact in any order,
        # and a count can land on a half, which both sides round to even.
        per_minute = 60 * video_rate
        scores = np.random.default_rng(seed).integers(
            0, 1025, minutes * per_minute + tail % per_minute) / 1024
        want = counts_ref(scores.tolist(), video_rate, threshold / 1024)
        got = counts_from_scores(scores, video_rate, threshold / 1024)
        assert got.dtype == np.int64 and got.tolist() == want

    def test_too_short_has_no_counts(self):
        got = counts_from_scores(np.zeros(1799), 30)
        assert got.dtype == np.int64 and got.shape == (0,)


class TestCole:
    def test_all_zero_counts_sleep(self):
        assert not cole_sleep_wake(np.zeros(30, np.int64)).any()

    def test_single_spike_wakes_only_its_minute(self):
        counts = np.zeros(9, np.int64)
        counts[4] = 5
        wake = cole_sleep_wake(counts)
        # D at the spike = 0.001 * 230 * 5 = 1.15; every neighbor stays < 1.
        assert wake[4]
        assert wake.sum() == 1

    def test_constant_one_stays_asleep(self):
        wake = cole_sleep_wake(np.ones(20, np.int64))
        # D = 0.001 * (106+54+58+76+230+74+67) = 0.665 everywhere inside.
        assert not wake.any()

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            counts = rng.integers(0, 40, size=rng.integers(1, 50))
            assert cole_sleep_wake(counts).tolist() == cole_ref(counts.tolist())

    def test_boundaries_zero_padded(self):
        for n in range(1, 11):
            counts = np.full(n, 3, np.int64)
            assert cole_sleep_wake(counts).tolist() == cole_ref([3] * n)

    def test_huge_uniform_activity_is_all_wake(self):
        assert cole_sleep_wake(np.full(30, 10_000, np.int64)).all()


class TestSadeh:
    def test_all_zero_counts_sleep(self):
        # PS = 7.601 with every other term zero.
        assert not sadeh_sleep_wake(np.zeros(30, np.int64)).any()

    def test_large_spike_wakes_its_minute(self):
        counts = np.zeros(21, np.int64)
        counts[10] = 1000
        assert sadeh_sleep_wake(counts)[10]

    def test_nat_band_dominates_constant_75(self):
        assert sadeh_sleep_wake(np.full(30, 75, np.int64)).all()

    def test_matches_brute_force(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            counts = rng.integers(0, 200, size=rng.integers(1, 50))
            assert sadeh_sleep_wake(counts).tolist() == sadeh_ref(counts.tolist())

    def test_boundaries_zero_padded(self):
        for n in range(1, 11):
            counts = np.full(n, 60, np.int64)
            assert sadeh_sleep_wake(counts).tolist() == sadeh_ref([60] * n)

    def test_huge_uniform_activity_is_all_wake(self):
        assert sadeh_sleep_wake(np.full(30, 10_000, np.int64)).all()


class TestCompareEfficiencies:
    """The camera, Cole and Sadeh efficiencies that ``sleep_report`` sets side by side."""

    def test_all_sleep_everywhere(self):
        report = sleep_report(np.zeros(3600), [], [], 30)
        assert report.efficiency == report.cole_efficiency == report.sadeh_efficiency == 1.0


class TestSleepFraction:
    """The Cole and Sadeh efficiencies are the sleeping fractions of their minutes."""

    def test_fraction(self):
        # A count of 10 in the first of four minutes: Cole scores only that
        # minute wake (0.23 * 10 >= 1 > 0.076 * 10).
        scores = np.zeros(240)
        scores[0] = 0.005 + 0.01
        wake = cole_sleep_wake(counts_from_scores(scores, 1))
        assert wake.tolist() == [True, False, False, False]
        assert sleep_report(scores, [], [], 1).cole_efficiency == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sleep_report(np.zeros(0), [], [], 30)
