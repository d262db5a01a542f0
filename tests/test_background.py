"""Background model behavior, morphology (with brute-force oracle), areas."""

import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sleepmon import background
from sleepmon.background import BackgroundModel, foreground_area, luma, morph_smooth
from sleepmon.config import Config

_F = np.float32
CONFIG = Config()
ALPHA = CONFIG.gmm_learning_rate
T = CONFIG.gmm_background_fraction


def erode_ref(mask):
    """Literal per-definition 3x3 erosion; out-of-grid is background."""
    h, w = mask.shape
    out = np.zeros_like(mask, bool)
    for i in range(h):
        for j in range(w):
            ok = True
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    ii, jj = i + di, j + dj
                    v = mask[ii, jj] if 0 <= ii < h and 0 <= jj < w else False
                    ok = ok and bool(v)
            out[i, j] = ok
    return out


def dilate_ref(mask):
    h, w = mask.shape
    out = np.zeros_like(mask, bool)
    for i in range(h):
        for j in range(w):
            any_ = False
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < h and 0 <= jj < w and mask[ii, jj]:
                        any_ = True
            out[i, j] = any_
    return out


def smooth_ref(mask):
    opened = dilate_ref(erode_ref(mask))
    return erode_ref(dilate_ref(opened))


masks_8x8 = hnp.arrays(bool, (8, 8))


# The zero-padded array morphology the bitset one replaced, kept verbatim as
# the oracle (``array_morph_smooth`` is the former ``morph_smooth``).
def _erode3(mask: np.ndarray) -> np.ndarray:
    h, w = mask.shape
    p = np.zeros((h + 2, w + 2), bool)
    p[1:-1, 1:-1] = mask
    rows = p[:-2] & p[1:-1] & p[2:]
    return rows[:, :-2] & rows[:, 1:-1] & rows[:, 2:]


def _dilate3(mask: np.ndarray) -> np.ndarray:
    h, w = mask.shape
    p = np.zeros((h + 2, w + 2), bool)
    p[1:-1, 1:-1] = mask
    rows = p[:-2] | p[1:-1] | p[2:]
    return rows[:, :-2] | rows[:, 1:-1] | rows[:, 2:]


def _open3(mask: np.ndarray) -> np.ndarray:
    """Binary opening with a 3x3 square element; out-of-grid is background."""
    return _dilate3(_erode3(mask))


def _close3(mask: np.ndarray) -> np.ndarray:
    """Binary closing with a 3x3 square element; out-of-grid is background."""
    return _erode3(_dilate3(mask))


def array_morph_smooth(mask: np.ndarray) -> np.ndarray:
    """Opening then closing with a 3x3 square element.

    Removes isolated speckle while leaving solid regions (anything containing
    a 3x3 block) intact; never creates foreground in a neighborhood that was
    entirely background.
    """
    return _close3(_open3(np.asarray(mask, bool)))


def _test_mask(rng, shape, kind):
    """A sparse, half-full, dense or blob mask: blobs are rectangles plus speckle."""
    if kind == "blob":
        mask = rng.random(shape) < 0.02
        h, w = shape
        for _ in range(rng.integers(1, 6)):
            y, x = rng.integers(0, h), rng.integers(0, w)
            mask[y:y + rng.integers(1, h + 1), x:x + rng.integers(1, w + 1)] = True
        return mask
    return rng.random(shape) < {"sparse": 0.05, "half": 0.5, "dense": 0.95}[kind]


MASK_KINDS = ("sparse", "half", "dense", "blob")
# Non-bool inputs read nonzero as foreground, as ``np.asarray(mask, bool)`` does.
MASK_DTYPES = {"bool": (bool, True), "uint8": (np.uint8, 3), "int64": (np.int64, -1),
               "float32": (np.float32, 0.5)}


class SeedModel:
    """The per-plane kernel the stacked one replaced, kept verbatim as the oracle."""

    def __init__(self, params, first_frame, channel="depth"):
        self.params = params
        self.channel = channel
        self.shape = first_frame.shape
        k = params.components
        x0 = first_frame.astype(_F)
        self._w = [np.ones(self.shape, _F)] + [np.zeros(self.shape, _F) for _ in range(k - 1)]
        self._mu = [x0.copy()] + [np.zeros(self.shape, _F) for _ in range(k - 1)]
        self._var = [np.full(self.shape, params.initial_variance, _F) for _ in range(k)]
        if channel == "depth":
            self._never_observed = np.asarray(first_frame) == 0
            self._has_never = bool(self._never_observed.any())
        else:
            self._never_observed = np.zeros(self.shape, bool)
            self._has_never = False
        self.reordered_px = 0  # pixels whose rank order changed, summed over frames

    @property
    def weights(self):
        return np.stack(self._w, axis=2)

    @property
    def means(self):
        return np.stack(self._mu, axis=2)

    @property
    def variances(self):
        return np.stack(self._var, axis=2)

    @property
    def never_observed(self):
        return self._never_observed.copy()

    def update_and_classify(self, frame):
        p = self.params
        k = p.components
        w, mu, var = self._w, self._mu, self._var
        alpha = _F(p.learning_rate)
        one_minus = _F(1.0 - p.learning_rate)
        mk2 = _F(p.match_k * p.match_k)

        skip = None
        saved = None
        if self.channel == "depth":
            zeros = np.asarray(frame) == 0
            if zeros.any():
                skip = zeros
                saved = ([a.copy() for a in w], [a.copy() for a in mu],
                         [a.copy() for a in var])
        reseed = None
        if self._has_never:
            reseed = self._never_observed.copy()
            if skip is not None:
                reseed &= ~skip
            if not reseed.any():
                reseed = None

        x = frame.astype(_F, copy=False)

        matched = []
        taken = None
        for i in range(k):
            d = x - mu[i]
            near = d * d <= mk2 * var[i]
            if taken is None:
                f = near
                taken = near.copy()
            else:
                f = near & ~taken
                taken |= near
            matched.append(f)
        any_match = taken
        none_match = ~any_match

        w_pre = matched[0] * w[0]
        for i in range(1, k):
            w_pre = w_pre + matched[i] * w[i]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            rho = np.clip(alpha / w_pre, alpha, _F(1.0)).astype(_F, copy=False)

        floor = _F(p.variance_floor)
        for i in range(k):
            np.multiply(w[i], one_minus, out=w[i], where=any_match)
            np.add(w[i], alpha, out=w[i], where=matched[i])
            np.add(mu[i], rho * (x - mu[i]), out=mu[i], where=matched[i])
            d = x - mu[i]
            vn = var[i] + rho * (d * d - var[i])
            np.copyto(var[i], np.maximum(vn, floor), where=matched[i])

        np.copyto(w[k - 1], _F(p.replacement_weight), where=none_match)
        np.copyto(mu[k - 1], x, where=none_match)
        np.copyto(var[k - 1], _F(p.initial_variance), where=none_match)

        total = w[0].copy()
        for i in range(1, k):
            total += w[i]
        for i in range(k):
            w[i] /= total

        metric = [w[i] * w[i] / var[i] for i in range(k)]
        rank = [np.zeros(self.shape, np.int8) for _ in range(k)]
        for i in range(k):
            for j in range(k):
                if j < i:
                    rank[i] += metric[j] >= metric[i]
                elif j > i:
                    rank[i] += metric[j] > metric[i]
        order_changed = any(bool((rank[i] != i).any()) for i in range(k))
        self.reordered_px += int(np.logical_or.reduce([rank[i] != i for i in range(k)]).sum())

        matched_rank = matched[0] * rank[0]
        for i in range(1, k):
            matched_rank = matched_rank + matched[i] * rank[i]

        if order_changed:
            for planes in (w, mu, var):
                old = [a for a in planes]
                for dest in range(k):
                    acc = old[k - 1]
                    for src in range(k - 2, -1, -1):
                        acc = np.where(rank[src] == dest, old[src], acc)
                    planes[dest] = acc

        prefix = np.zeros(self.shape, _F)
        acc = np.zeros(self.shape, _F)
        for r in range(1, k):
            acc = acc + w[r - 1]
            prefix = np.where(matched_rank == r, acc, prefix)
        foreground = none_match | (prefix > _F(p.background_fraction))

        if reseed is not None:
            for i in range(k):
                np.copyto(self._w[i], _F(1.0 if i == 0 else 0.0), where=reseed)
                np.copyto(self._mu[i], x if i == 0 else _F(0.0), where=reseed)
                np.copyto(self._var[i], _F(p.initial_variance), where=reseed)
            foreground &= ~reseed
            self._never_observed &= ~reseed
            self._has_never = bool(self._never_observed.any())
        if skip is not None:
            sw, smu, svar = saved
            for i in range(k):
                np.copyto(self._w[i], sw[i], where=skip)
                np.copyto(self._mu[i], smu[i], where=skip)
                np.copyto(self._var[i], svar[i], where=skip)
            foreground &= ~skip
        self._w, self._mu, self._var = w, mu, var
        return foreground


def seed_params(config, channel):
    """The one-channel parameter record ``SeedModel`` reads, built from a ``Config``."""
    return SimpleNamespace(
        components=config.gmm_components, match_k=config.gmm_match_k,
        learning_rate=config.gmm_learning_rate,
        background_fraction=config.gmm_background_fraction,
        initial_variance=getattr(config, f"gmm_{channel}_initial_variance"),
        variance_floor=config.gmm_variance_floor,
        replacement_weight=config.gmm_replacement_weight)


def _bits(a):
    return np.ascontiguousarray(a, np.float32).view(np.uint32)


def _oracle_frames(rng, channel, shape, n, hole_p):
    """Frames mixing repeats, constant frames, small noise and big jumps.

    Depth frames get zero holes with probability ``hole_p`` per pixel, frame 0
    included, so pixels start never-observed and are re-seeded later.
    """
    top = 2047 if channel == "depth" else 255
    levels = rng.integers(1, top + 1, 4)
    frames = [np.full(shape, levels[0], np.float32)]
    for _ in range(n):
        mode = rng.integers(4)
        if mode == 0:
            f = frames[-1].copy()
        elif mode == 1:
            f = np.full(shape, rng.choice(levels), np.float32)
        elif mode == 2:
            f = rng.choice(levels, shape) + rng.integers(-3, 4, shape)
        else:
            f = rng.integers(1, top + 1, shape)
        frames.append(np.clip(f, 1, top).astype(np.float32))
    if channel == "depth":
        for f in frames:
            f[rng.random(shape) < hole_p] = 0.0
    return frames


class TestModelInit:
    def test_constant_frame_seeds_single_component(self):
        frame = np.full((5, 7), 1000.0, np.float32)
        m = BackgroundModel(CONFIG, frame, "depth")
        assert np.allclose(m.weights[:, :, 0], 1.0)
        assert np.allclose(m.weights[:, :, 1:], 0.0)
        assert np.allclose(m.means[:, :, 0], 1000.0)
        assert np.allclose(m.variances, CONFIG.gmm_depth_initial_variance)

    @pytest.mark.parametrize("channel, want", [("depth", 400.0), ("luma", 100.0)])
    def test_each_channel_seeds_its_own_initial_variance(self, channel, want):
        config = Config(gmm_depth_initial_variance=400.0, gmm_luma_initial_variance=100.0)
        frame = np.full((3, 4), 50.0, np.float32)
        frame[1, 1] = 0.0
        m = BackgroundModel(config, frame, channel)
        assert np.all(m.variances == want)
        # Replaced components (a jump) and re-seeded pixels (depth) take it too.
        m.update_and_classify(np.full((3, 4), 250.0, np.float32))
        assert np.all(m.variances == want)

    def test_zero_learning_rate_rejected(self):
        with pytest.raises(ValueError, match="learning rate out of range"):
            Config(gmm_learning_rate=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["gmm_match_k", "gmm_variance_floor",
                                      "gmm_depth_initial_variance"],
                             ids=["match_k", "variance_floor", "initial_variance"])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            Config(**{name: value})

    def test_depth_zero_pixel_flagged_never_observed(self):
        frame = np.full((4, 4), 900.0, np.float32)
        frame[2, 2] = 0.0
        m = BackgroundModel(CONFIG, frame, "depth")
        assert m.never_observed[2, 2]
        assert not m.never_observed[0, 0]

    def test_never_observed_reseeds_on_first_reading(self):
        frame = np.full((4, 4), 900.0, np.float32)
        frame[2, 2] = 0.0
        m = BackgroundModel(CONFIG, frame, "depth")
        later = np.full((4, 4), 900.0, np.float32)
        later[2, 2] = 1500.0
        mask = m.update_and_classify(later)
        assert not mask[2, 2]  # first valid reading is background, not motion
        assert not m.never_observed[2, 2]
        assert m.means[2, 2, 0] == 1500.0

    def test_update_rejects_frame_of_wrong_shape(self):
        m = BackgroundModel(CONFIG, np.full((4, 4), 1.0, np.float32), "depth")
        with pytest.raises(ValueError, match="dimension mismatch"):
            m.update_and_classify(np.full((5, 5), 1.0, np.float32))


class TestModelUpdate:
    def test_constant_input_stays_background(self):
        frame = np.full((6, 6), 700.0, np.float32)
        m = BackgroundModel(CONFIG, frame, "depth")
        for _ in range(500):
            mask = m.update_and_classify(frame)
        assert not mask.any()
        assert np.allclose(m.means[:, :, 0], 700.0)

    def test_large_jump_is_all_foreground(self):
        frame = np.full((6, 6), 700.0, np.float32)
        m = BackgroundModel(CONFIG, frame, "depth")
        for _ in range(200):
            m.update_and_classify(frame)
        jump = frame + 100.0 * math.sqrt(CONFIG.gmm_depth_initial_variance)
        assert m.update_and_classify(jump).all()

    def test_new_scene_absorbed_within_weight_bound(self):
        # A fresh constant value must become background within
        # ceil(ln(T)/ln(1-alpha)) frames of weight accumulation.
        bound = math.ceil(math.log(T) / math.log(1.0 - ALPHA))
        a = np.full((4, 4), 500.0, np.float32)
        b = np.full((4, 4), 1500.0, np.float32)
        m = BackgroundModel(CONFIG, a, "depth")
        for _ in range(50):
            m.update_and_classify(a)
        frames_until_clear = None
        for t in range(1, bound + 1):
            if not m.update_and_classify(b).any():
                frames_until_clear = t
                break
        assert frames_until_clear is not None and frames_until_clear <= bound

    def test_weights_normalized_and_variance_floored_always(self):
        rng = np.random.default_rng(11)
        m = BackgroundModel(CONFIG, rng.uniform(0, 2000, (5, 5)).astype(np.float32), "depth")
        for _ in range(300):
            frame = rng.uniform(0, 2000, (5, 5)).astype(np.float32)
            m.update_and_classify(frame)
            assert np.all(np.abs(m.weights.sum(axis=2) - 1.0) <= 1e-6)
            assert np.all(m.variances >= CONFIG.gmm_variance_floor)

    def test_depth_zero_skips_update_and_reads_background(self):
        frame = np.full((4, 4), 800.0, np.float32)
        m = BackgroundModel(CONFIG, frame, "depth")
        for _ in range(20):
            m.update_and_classify(frame)
        before_w = m.weights.copy()
        dropout = frame.copy()
        dropout[1, 1] = 0.0
        mask = m.update_and_classify(dropout)
        assert not mask[1, 1]
        assert np.array_equal(m.weights[1, 1], before_w[1, 1])

    def test_noise_robustness_after_burn_in(self):
        rng = np.random.default_rng(7)
        base = np.full((40, 40), 1000.0)
        m = BackgroundModel(CONFIG, np.rint(base + rng.normal(0, 2, base.shape)).astype(np.float32), "depth")
        for _ in range(300):
            m.update_and_classify(np.rint(base + rng.normal(0, 2, base.shape)).astype(np.float32))
        rates = []
        for _ in range(300):
            mask = m.update_and_classify(np.rint(base + rng.normal(0, 2, base.shape)).astype(np.float32))
            rates.append(mask.mean())
        assert np.mean(rates) < 0.01

    def test_depth_model_blind_to_luma_scaling(self):
        # The two channels share no state: scaling what the luma model sees
        # cannot change what the depth model produces.
        rng = np.random.default_rng(3)
        depth_frames = [np.rint(700 + rng.normal(0, 2, (6, 6))).astype(np.float32)
                        for _ in range(50)]
        m1 = BackgroundModel(CONFIG, depth_frames[0], "depth")
        m2 = BackgroundModel(CONFIG, depth_frames[0], "depth")
        lum = BackgroundModel(CONFIG, np.full((6, 6), 40.0, np.float32), "luma")
        masks1 = [m1.update_and_classify(f) for f in depth_frames]
        out2 = []
        for f in depth_frames:
            lum.update_and_classify(np.full((6, 6), 80.0, np.float32))
            out2.append(m2.update_and_classify(f))
        assert all(np.array_equal(a, b) for a, b in zip(masks1, out2))

    def test_same_input_same_output(self):
        rng = np.random.default_rng(5)
        frames = [rng.uniform(0, 2000, (8, 8)).astype(np.float32) for _ in range(40)]
        runs = []
        for _ in range(2):
            m = BackgroundModel(CONFIG, frames[0], "depth")
            runs.append([m.update_and_classify(f).copy() for f in frames])
        assert all(np.array_equal(a, b) for a, b in zip(*runs))


class TestStackedKernelOracle:
    @settings(max_examples=200, deadline=None)
    @given(channel=st.sampled_from(["depth", "luma"]),
           components=st.integers(1, 4),
           shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
           n=st.integers(1, 25),
           rate=st.sampled_from([0.01, 0.2, 0.7]),
           fraction=st.sampled_from([0.3, 0.7, 1.0]),
           hole_p=st.sampled_from([0.0, 0.1, 0.5]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bitwise_equal_to_seed_kernel(self, channel, components, shape, n, rate,
                                          fraction, hole_p, seed):
        config = Config(gmm_components=components, gmm_learning_rate=rate,
                        gmm_background_fraction=fraction)
        frames = _oracle_frames(np.random.default_rng(seed), channel, shape, n, hole_p)
        _assert_matches_seed_kernel(BackgroundModel(config, frames[0], channel),
                                    SeedModel(seed_params(config, channel), frames[0], channel),
                                    frames[1:])

    @pytest.mark.parametrize("channel", ["depth", "luma"])
    @pytest.mark.parametrize("seed", range(4))
    def test_multi_band_bitwise_equal_to_seed_kernel(self, channel, seed):
        # 9 rows in bands of 2: four full bands and a one-row band.
        config = Config(gmm_components=1 + seed, gmm_learning_rate=0.2)
        frames = _oracle_frames(np.random.default_rng(seed), channel, (9, 7), 25, 0.1)
        with mock.patch.object(background, "_BAND_PX", 2 * 7):
            m = BackgroundModel(config, frames[0], channel)
        assert len(m._bands) == 5
        _assert_matches_seed_kernel(m, SeedModel(seed_params(config, channel), frames[0], channel),
                                    frames[1:])


def _assert_matches_seed_kernel(m, ref, frames):
    for f in frames:
        assert np.array_equal(m.update_and_classify(f), ref.update_and_classify(f))
        for attr in ("weights", "means", "variances"):
            assert np.array_equal(_bits(getattr(m, attr)), _bits(getattr(ref, attr))), attr
        assert np.array_equal(m.never_observed, ref.never_observed)


class TestBandSplit:
    @settings(max_examples=100, deadline=None)
    @given(channel=st.sampled_from(["depth", "luma"]),
           components=st.integers(1, 4),
           shape=st.tuples(st.integers(1, 12), st.integers(1, 8)),
           n=st.integers(1, 15),
           rate=st.sampled_from([0.01, 0.2, 0.7]),
           hole_p=st.sampled_from([0.0, 0.1, 0.5]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bitwise_equal_for_any_band_split(self, channel, components, shape, n, rate,
                                              hole_p, seed):
        config = Config(gmm_components=components, gmm_learning_rate=rate)
        frames = _oracle_frames(np.random.default_rng(seed), channel, shape, n, hole_p)
        h, w = shape
        runs = []
        for rows in (h, 1, 2, 3):
            with mock.patch.object(background, "_BAND_PX", rows * w):
                m = BackgroundModel(config, frames[0], channel)
            assert len(m._bands) == -(-h // rows)
            runs.append([(m.update_and_classify(f), _bits(m.weights), _bits(m.means),
                          _bits(m.variances), m.never_observed) for f in frames[1:]])
        for split in runs[1:]:
            for got, want in zip(split, runs[0]):
                assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("shape, heights", [((350, 320), [117, 117, 116]),
                                                ((480, 640), [69] * 6 + [66])])
    def test_band_layout_at_sensor_scale(self, shape, heights):
        # ceil(h*w / _BAND_PX) bands of ceil(h / bands) rows: the paper roi
        # in three balanced bands, a whole 640x480 frame in seven.
        m = BackgroundModel(CONFIG, np.ones(shape, _F), "luma")
        cuts = [b.rows for b in m._bands]
        assert [c.stop - c.start for c in cuts] == heights
        assert np.array_equal(np.concatenate([np.arange(shape[0])[c] for c in cuts]),
                              np.arange(shape[0]))


class TestModelMemory:
    def test_update_scratch_below_one_stack_at_sensor_scale(self):
        # 480x640, K=3: the work buffers are sized to one row band, never to
        # a whole (K, H, W) stack.
        shape, k = (480, 640), 3
        rng = np.random.default_rng(5)
        first = rng.integers(1, 2048, shape).astype(np.float32)
        frame = np.clip(first + rng.integers(-2, 3, shape), 1, 2047).astype(np.float32)
        first[:16] = 0  # never-observed rows, re-seeded by the frame
        frame[rng.random(shape) < 0.03] = 0
        config = Config(gmm_components=k)
        tracemalloc.start()
        try:
            m = BackgroundModel(config, first, "depth")
            setup = tracemalloc.get_traced_memory()[0]
            m.update_and_classify(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        state = sum(getattr(m, a).nbytes
                    for a in ("weights", "means", "variances", "never_observed"))
        assert peak - state < k * shape[0] * shape[1] * np.dtype(np.float32).itemsize
        # In units of one K-wide float32 band buffer: two of them, a K-wide
        # and a (K-1)-wide bool buffer, three float32 and four bool planes
        # make 3.75 at K=3, and the update's temporaries (the frame's mask,
        # the rank sort's gathers) add about 1.5.  A third K-wide float32
        # buffer would make these 4.75 and about 6.25.
        k_band = k * (m._bands[0].rows.stop * shape[1]) * np.dtype(np.float32).itemsize
        assert setup - state < 4 * k_band
        assert peak - state < 6 * k_band


class TestRankSortGather:
    @pytest.mark.parametrize("channel", ["depth", "luma"])
    @pytest.mark.parametrize("components", [2, 3, 4])
    def test_rank_swaps_bitwise_equal_to_seed_kernel(self, components, channel):
        # Each pixel cycles through its own levels in blocks of its own length,
        # so a newer component outgrows an older one and ranks swap on some
        # frames for some pixels; the last column holds still and never swaps.
        config = Config(gmm_components=components, gmm_learning_rate=0.2)
        rng = np.random.default_rng(components)
        shape = (5, 6)
        period = rng.integers(3, 12, shape)
        period[:, -1] = 10 ** 6
        n_levels = min(components, 3)
        levels = rng.integers(20, 250, (n_levels,) + shape)
        frames = []
        for t in range(90):
            level = np.take_along_axis(levels, ((t // period) % n_levels)[None], 0)[0]
            frames.append((level + rng.integers(-1, 2, shape)).astype(np.float32))
        m = BackgroundModel(config, frames[0], channel)
        ref = SeedModel(seed_params(config, channel), frames[0], channel)
        for f in frames[1:]:
            assert np.array_equal(m.update_and_classify(f), ref.update_and_classify(f))
            for attr in ("weights", "means", "variances"):
                assert np.array_equal(_bits(getattr(m, attr)), _bits(getattr(ref, attr))), attr
        assert ref.reordered_px > 0


class TestLuma:
    def test_gray_frame_maps_to_its_value(self):
        frame = np.full((3, 3, 3), 200, np.uint8)
        assert np.all(luma(frame) == 200.0)

    def test_weighted_sum(self):
        frame = np.zeros((1, 1, 3), np.uint8)
        frame[0, 0] = (255, 0, 0)
        assert luma(frame)[0, 0] == np.rint(0.299 * 255)

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2).map(lambda s: s + (3,))))
    def test_equals_whole_frame_float64_cast(self, frame):
        c = frame.astype(np.float64)
        ref = np.rint(0.299 * c[..., 0] + 0.587 * c[..., 1] + 0.114 * c[..., 2]).astype(_F)
        assert np.array_equal(_bits(luma(frame)), _bits(ref))


class TestMorphSmooth:
    def test_empty_mask_unchanged(self):
        mask = np.zeros((10, 10), bool)
        assert not morph_smooth(mask).any()

    def test_isolated_pixel_removed(self):
        mask = np.zeros((10, 10), bool)
        mask[4, 4] = True
        assert not morph_smooth(mask).any()

    def test_solid_block_unchanged(self):
        mask = np.zeros((14, 14), bool)
        mask[2:12, 2:12] = True
        assert np.array_equal(morph_smooth(mask), mask)

    @settings(max_examples=200, deadline=None)
    @given(masks_8x8)
    def test_matches_brute_force_oracle(self, mask):
        assert np.array_equal(morph_smooth(mask), smooth_ref(mask))

    @settings(max_examples=100, deadline=None)
    @given(masks_8x8)
    def test_opening_is_idempotent(self, mask):
        once = _open3(mask)
        assert np.array_equal(_open3(once), once)

    @settings(max_examples=100, deadline=None)
    @given(masks_8x8)
    def test_smoothed_area_bounded_by_dilation(self, mask):
        assert foreground_area(morph_smooth(mask)) <= foreground_area(dilate_ref(mask))

    @settings(max_examples=100, deadline=None)
    @given(masks_8x8)
    def test_never_creates_foreground_in_empty_neighborhoods(self, mask):
        smoothed = morph_smooth(mask)
        grown = dilate_ref(mask)  # pixels with any foreground in their 3x3
        assert not np.any(smoothed & ~grown)


def _check_against_array_oracle(mask):
    out = morph_smooth(mask)
    assert np.array_equal(out, array_morph_smooth(mask))
    assert out.dtype == bool and out.shape == np.shape(mask)
    assert out.flags.c_contiguous and out.flags.writeable
    assert not np.shares_memory(out, mask)


class TestBitsetMorphOracle:
    @settings(max_examples=400, deadline=None)
    @given(shape=st.tuples(st.integers(1, 70), st.integers(1, 70)),
           kind=st.sampled_from(MASK_KINDS), dtype=st.sampled_from(sorted(MASK_DTYPES)),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(shape=(1, 1), kind="dense", dtype="bool", seed=0)
    @example(shape=(1, 70), kind="dense", dtype="bool", seed=1)
    @example(shape=(70, 1), kind="dense", dtype="bool", seed=2)
    @example(shape=(3, 70), kind="half", dtype="bool", seed=3)
    @example(shape=(70, 3), kind="blob", dtype="uint8", seed=4)
    def test_bit_equal_to_array_morphology(self, shape, kind, dtype, seed):
        mask = _test_mask(np.random.default_rng(seed), shape, kind)
        np_dtype, on = MASK_DTYPES[dtype]
        _check_against_array_oracle(np.where(mask, on, 0).astype(np_dtype))

    @pytest.mark.parametrize("shape", [(350, 320), (480, 640)])
    @pytest.mark.parametrize("kind", MASK_KINDS)
    def test_bit_equal_at_sensor_scale(self, shape, kind):
        rng = np.random.default_rng(sum(shape) + MASK_KINDS.index(kind))
        _check_against_array_oracle(_test_mask(rng, shape, kind))

    def test_full_and_empty_grids(self):
        for shape in ((1, 1), (2, 9), (9, 2), (64, 64)):
            _check_against_array_oracle(np.ones(shape, bool))
            _check_against_array_oracle(np.zeros(shape, bool))

    def test_input_left_unchanged(self):
        mask = _test_mask(np.random.default_rng(9), (20, 30), "blob")
        before = mask.copy()
        morph_smooth(mask)[:] = True
        assert np.array_equal(mask, before)


class TestForegroundArea:
    def test_empty(self):
        assert foreground_area(np.zeros((5, 5), bool)) == 0

    def test_full_roi(self):
        assert foreground_area(np.ones((350, 320), bool)) == 112000

    def test_block(self):
        mask = np.zeros((20, 20), bool)
        mask[3:13, 5:15] = True
        assert foreground_area(mask) == 100
