"""Adaptive per-pixel Gaussian-mixture background models and mask smoothing.

Each visual channel (depth, luma) keeps an independent model: every pixel is
described by K weighted Gaussians kept sorted by weight/sqrt(variance)
descending.  A new frame updates the first matching component per pixel and
classifies the pixel against the high-weight prefix of the mixture.  The two
channels share no state, so depth masks are immune to lighting changes by
construction.  A model reads its mixture parameters from the ``gmm_*`` fields
of a ``config.Config``, its initial variance from the field of its channel.

State is stored as stacked (K, H, W) float32 arrays.  A frame is folded in
ceil(H*W / _BAND_PX) horizontal row bands of equal height (the last may be
shorter): a fixed sequence of ufuncs runs over each band's (K, rows, W) view
of the state into work buffers sized to one band, two of them K deep.  Each
numpy call releases the interpreter lock and takes it back, so when the depth
and the luma model run on two threads the calls per frame, and with them the
band count, set the cost of the lock hand-offs.  Masked updates are
arithmetic selects on 0/1 masks, exact while squared residuals stay finite
(any 16-bit depth or 8-bit luma frame).  Updates are per-pixel independent
(no cross-pixel reads), so the result is bitwise independent of the band
split and of any data-parallel schedule; updating one model from two frames
concurrently is not supported.

Depth pixels holding 0 mean "no reading" from the sensor: they are classified
background and leave the model untouched.  A pixel whose very first
observation is 0 is flagged never-observed and is re-seeded from its first
valid reading instead of treating that reading as foreground.

Masks are smoothed as one Python-integer bitset with a zero guard bit after
each row: shifts bring in zeros at the guard and past the first and last rows,
and dilations are masked to the grid, so out-of-grid pixels stay background.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

from .config import Config

_F = np.float32

# Pixels per row band: a frame folds in ceil(H*W / _BAND_PX) bands of equal
# height, the 320x350 paper roi in three of 117/117/116 rows and a 640x480
# frame in seven of 69 rows (the last 66).  Each of a band's 45-65 numpy
# calls releases the interpreter lock and takes it back, so with the depth and
# the luma model on two threads fewer bands mean fewer hand-offs; a band's
# state and buffers (about 3 MB at this size) do not fit a core's 2 MB L2 at
# any size tried.  ``detect`` in-process on the bench's detect_paper input
# (2-vCPU Xeon, medians of 5 runs) at 2**15 / 3 << 14 / 2**16 / 2**17 px:
# 187 / 203 / 209 / 192 fps on two CPUs, 124 / 136 / 118 / 111 fps under
# ``taskset -c 0``, peak RSS 51.2 / 51.9 / 54.0 / 61.6 MB: the fastest size on
# one CPU, within noise of the fastest on two, at under 1 MB more memory.
_BAND_PX = 3 << 14


def luma(color_frame: np.ndarray) -> np.ndarray:
    """Collapse an (H, W, 3) rgb frame to rounded luma, as float32."""
    # The float64 sums of a whole-frame cast from one block a third its size;
    # as the largest per-frame allocation it keeps frame-loop memory recycled.
    y, t = np.empty((2,) + color_frame.shape[:2])
    np.multiply(color_frame[..., 0], 0.299, out=y, dtype=np.float64)
    np.multiply(color_frame[..., 1], 0.587, out=t, dtype=np.float64)
    y += t
    np.multiply(color_frame[..., 2], 0.114, out=t, dtype=np.float64)
    y += t
    return np.rint(y, out=y).astype(_F)


class BackgroundModel:
    """Per-pixel Gaussian mixture over one single-valued channel."""

    def __init__(self, config: Config, first_frame: np.ndarray, channel: str):
        if channel not in ("depth", "luma"):
            raise ValueError(f"unknown channel kind {channel!r}")
        if first_frame.ndim != 2:
            raise ValueError("first observation must be a 2-D single-channel frame")
        self.config = config
        self.channel = channel
        initial_variance = getattr(config, f"gmm_{channel}_initial_variance")
        self.shape = first_frame.shape
        k = config.gmm_components
        stack = (k,) + self.shape
        self._w = np.zeros(stack, _F)
        self._w[0] = 1.0
        self._mu = np.zeros(stack, _F)
        self._mu[0] = first_frame
        self._var = np.full(stack, initial_variance, _F)
        self._never_observed = np.zeros(self.shape, bool)
        if channel == "depth":
            np.equal(first_frame, 0, out=self._never_observed)
        self._alpha = _F(config.gmm_learning_rate)
        self._decay = _F(1.0 - config.gmm_learning_rate)
        self._match_k2 = _F(config.gmm_match_k * config.gmm_match_k)
        self._floor = _F(config.gmm_variance_floor)
        self._new_weight = _F(config.gmm_replacement_weight)
        self._new_var = _F(initial_variance)
        self._fraction = _F(config.gmm_background_fraction)
        # ``nb`` bands of equal height (the last may be shorter), each one's
        # views of the state and of one band's work buffers, reused by every
        # band and frame; ``unseen``: never-observed pixels are left in the band.
        h, width = self.shape
        nb = max(1, -(-h * width // _BAND_PX))
        rows = max(1, -(-h // nb))
        plane, band = (rows, width), (k, rows, width)
        bufs = {**{n: np.empty(plane, _F) for n in ("x", "rho", "plane")},
                **{n: np.empty(plane, bool) for n in ("skip", "valid", "seen", "test")},
                **{n: np.empty(band, _F) for n in ("t", "r")},
                "near": np.empty(band, bool), "up": np.empty((k - 1,) + plane, bool)}
        self._bands = []
        for top in range(0, h, rows):
            cut, n = np.s_[..., top:top + rows, :], min(rows, h - top)
            self._bands.append(SimpleNamespace(
                rows=slice(top, top + n), w=self._w[cut], mu=self._mu[cut], var=self._var[cut],
                never=self._never_observed[cut], unseen=bool(self._never_observed[cut].any()),
                **{name: buf[..., :n, :] for name, buf in bufs.items()}))

    # Copies of the mixture, stacked (H, W, K); for inspection/tests.
    @property
    def weights(self) -> np.ndarray:
        return np.moveaxis(self._w, 0, 2).copy()

    @property
    def means(self) -> np.ndarray:
        return np.moveaxis(self._mu, 0, 2).copy()

    @property
    def variances(self) -> np.ndarray:
        return np.moveaxis(self._var, 0, 2).copy()

    @property
    def never_observed(self) -> np.ndarray:
        return self._never_observed.copy()

    def update_and_classify(self, frame: np.ndarray) -> np.ndarray:
        """Fold one frame into the model and return the boolean foreground mask.

        Matched component: weights decay toward it, its mean and variance move
        with rate rho = alpha / matched_weight (clamped to [alpha, 1]).  No
        match: the lowest-ranked component is replaced by a low-weight
        component centered on the observation.  A pixel is foreground unless
        its matched component sits inside the smallest weight prefix
        exceeding ``background_fraction``.
        """
        if frame.shape != self.shape:
            raise ValueError(
                f"dimension mismatch: frame {frame.shape} vs model {self.shape}")
        foreground = np.empty(self.shape, bool)
        for b in self._bands:
            self._update_band(b, frame[b.rows], foreground[b.rows])
        return foreground

    def _update_band(self, b: SimpleNamespace, frame: np.ndarray, foreground: np.ndarray):
        """Fold band ``b`` of a frame into the model; its mask goes to ``foreground``."""
        k = self.config.gmm_components
        w, mu, var, rho, plane = b.w, b.mu, b.var, b.rho, b.plane
        t, r, near, test = b.t, b.r, b.near, b.test
        alpha = self._alpha

        # Skipped pixels ("no reading") match nothing, are never replaced and
        # are normalized by 1, so every update below leaves them as they are.
        skip = valid = reseed = None
        if self.channel == "depth" and not frame.all():
            skip = np.equal(frame, 0, out=b.skip)
            valid = np.logical_not(skip, out=b.valid)
        if b.unseen:
            reseed = b.never.copy() if valid is None else b.never & valid
            reseed = reseed if reseed.any() else None

        # Only read below, so a float32 frame (luma) needs no copy.
        x = frame
        if frame.dtype != _F:
            x = b.x
            np.copyto(x, frame, casting="unsafe")

        # First matching component in rank order: ``near`` becomes one-hot
        # per matched pixel and ``seen`` marks the pixels with a match.
        np.subtract(x, mu, out=t)
        t *= t
        np.multiply(var, self._match_k2, out=r)
        np.less_equal(t, r, out=near)
        if valid is not None:
            near &= valid
        seen = near[0]
        for i in range(1, k):
            np.greater(near[i], seen, out=near[i])
            seen = np.logical_or(seen, near[i], out=b.seen)
        # Weights decay by 1 - alpha where any component matched: ``none``
        # is still ~seen here, so the factor is 1 at skipped pixels too.
        none = np.logical_not(seen, out=foreground)
        np.multiply(seen, self._decay, out=plane)
        plane += none
        if valid is not None:
            none &= valid

        # ``r`` holds the match as 0/1.  At most one component matches, so
        # the sum is the matched weight or 0.
        np.copyto(r, near)
        np.multiply(r, w, out=t)
        np.add.reduce(t, axis=0, out=rho)
        # Dividing by max(w, alpha) never divides by 0 and already caps rho at 1.
        np.maximum(rho, alpha, out=rho)
        np.divide(alpha, rho, out=rho)
        np.maximum(rho, alpha, out=rho)

        # Masked updates as exact arithmetic selects: an unmatched component
        # sees only x1 and +0, which leave finite values bit-exact (variances
        # already sit at or above the floor).  ``mu`` has not moved when
        # x - mu is taken the second time, so it equals the match residual.
        w *= plane
        np.multiply(r, alpha, out=t)
        w += t
        r *= rho
        np.subtract(x, mu, out=t)
        t *= r
        mu += t
        np.subtract(x, mu, out=t)
        t *= t
        t -= var
        t *= r
        var += t
        np.maximum(var, self._floor, out=var)

        if none.any():
            np.copyto(w[k - 1], self._new_weight, where=none)
            np.copyto(mu[k - 1], x, where=none)
            np.copyto(var[k - 1], self._new_var, where=none)

        np.add.reduce(w, axis=0, out=plane)
        if skip is not None:
            plane *= valid
            plane += skip
        w /= plane

        # Rank by weight/sqrt(variance) descending via the equivalent
        # weight**2/variance (weights are non-negative); ties keep the
        # earlier component first.  A pixel whose metric never rises along
        # the components is already in that order, so only the rest sort.
        np.multiply(w, w, out=t)
        t /= var
        np.greater(t[1:], t[:-1], out=b.up)
        moved = np.flatnonzero(np.logical_or.reduce(b.up, axis=0))
        if moved.size:
            order = np.argsort(-t.reshape(k, -1)[:, moved], axis=0, kind="stable")
            for a in (w, mu, var, near):
                flat = a.reshape(k, -1)
                flat[:, moved] = flat[order, moved]

        # Background iff the weight of the components ranked above the
        # matched one does not exceed the fraction threshold.  The prefix
        # sums start at w[0], which equals 0 + w[0] bit for bit.
        prefix = w[0]
        for i in range(1, k):
            if i > 1:
                prefix = np.add(prefix, w[i - 1], out=plane)
            np.greater(prefix, self._fraction, out=test)
            test &= near[i]
            foreground |= test

        if reseed is not None:
            np.copyto(w, _F(0.0), where=reseed)
            np.copyto(w[0], _F(1.0), where=reseed)
            np.copyto(mu, _F(0.0), where=reseed)
            np.copyto(mu[0], x, where=reseed)
            np.copyto(var, self._new_var, where=reseed)
            foreground &= ~reseed
            b.never &= ~reseed
            b.unseen = bool(b.never.any())


@functools.lru_cache(maxsize=16)
def _grid(h: int, w: int) -> int:
    """Bitset of the in-grid pixels of an (h, w) mask packed at row stride w + 1."""
    return ((1 << w) - 1) * ((1 << (w + 1) * h) - 1) // ((1 << w + 1) - 1)


def morph_smooth(mask: np.ndarray) -> np.ndarray:
    """Opening then closing with a 3x3 square element; out-of-grid is background.

    Removes isolated speckle while leaving solid regions (anything containing
    a 3x3 block) intact; never creates foreground in a neighborhood that was
    entirely background.
    """
    h, w = np.shape(mask)
    s = w + 1
    padded = np.zeros((h, s), bool)
    padded[:, :w] = mask
    x = int.from_bytes(np.packbits(padded, bitorder="little").tobytes(), "little")
    grid = _grid(h, w)
    x &= (x << 1) & (x >> 1)
    x &= (x << s) & (x >> s)
    for _ in range(2):
        x |= x << 1 | x >> 1  # strays in the guard column stay there until & grid
        x = (x | x << s | x >> s) & grid
    x &= (x << 1) & (x >> 1)
    x &= (x << s) & (x >> s)
    bits = np.unpackbits(np.frombuffer(x.to_bytes((h * s + 7) // 8, "little"), np.uint8),
                         count=h * s, bitorder="little")
    return bits.reshape(h, s)[:, :w].astype(bool)


def foreground_area(mask: np.ndarray) -> int:
    """Number of foreground pixels in a mask."""
    return int(np.count_nonzero(mask))
