"""Adaptive per-pixel Gaussian-mixture background models and mask smoothing.

Each visual channel (depth, luma) keeps an independent model: every pixel is
described by K weighted Gaussians kept sorted by weight/sqrt(variance)
descending.  A new frame updates the first matching component per pixel and
classifies the pixel against the high-weight prefix of the mixture.  The two
channels share no state, so depth masks are immune to lighting changes by
construction.  A model reads its mixture parameters from the ``gmm_*`` fields
of a ``config.Config``, its initial variance from the field of its channel.

State is stored as stacked (K, H, W) float32 arrays.  A frame is folded in
horizontal row bands of about 2**15 pixels: a fixed sequence of ufuncs runs
over each band's (K, rows, W) view of the state into work buffers sized to
one band, so the working set stays in a core's L2 cache.  Masked updates are
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

# Pixels per row band.  Measured on the 320x350 roi: 16 k-56 k are equally
# fast, smaller bands pay per-band dispatch, larger ones spill out of L2.
_BAND_PX = 1 << 15


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

    def __init__(self, config: Config, first_frame: np.ndarray,
                 channel: str = "depth"):
        if channel not in ("depth", "luma"):
            raise ValueError(f"unknown channel kind {channel!r}")
        if first_frame.ndim != 2:
            raise ValueError("first observation must be a 2-D single-channel frame")
        self.config = config
        self.channel = channel
        self._initial_variance = getattr(config, f"gmm_{channel}_initial_variance")
        self.shape = first_frame.shape
        k = config.gmm_components
        stack = (k,) + self.shape
        self._w = np.zeros(stack, _F)
        self._w[0] = 1.0
        self._mu = np.zeros(stack, _F)
        self._mu[0] = first_frame
        self._var = np.full(stack, self._initial_variance, _F)
        self._never_observed = np.zeros(self.shape, bool)
        if channel == "depth":
            np.equal(first_frame, 0, out=self._never_observed)
        # One band's work buffers, reused by every band and frame, and each
        # band's views of them and of the state; ``unseen``: never-observed
        # pixels are left in the band.
        h, width = self.shape
        rows = max(1, min(h, _BAND_PX // max(width, 1)))
        plane, band = (rows, width), (k, rows, width)
        bufs = {**{n: np.empty(plane, _F) for n in ("x", "rho", "plane")},
                **{n: np.empty(plane, bool) for n in ("skip", "valid", "seen", "test")},
                **{n: np.empty(band, _F) for n in ("d", "t", "r")},
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
        c = self.config
        k = c.gmm_components
        w, mu, var, x, rho, plane = b.w, b.mu, b.var, b.x, b.rho, b.plane
        d, t, r, near, seen, test = b.d, b.t, b.r, b.near, b.seen, b.test
        alpha = _F(c.gmm_learning_rate)

        # Skipped pixels ("no reading") match nothing, are never replaced and
        # are normalized by 1, so every update below leaves them as they are.
        skip = valid = reseed = None
        if self.channel == "depth" and not frame.all():
            skip = np.equal(frame, 0, out=b.skip)
            valid = np.logical_not(skip, out=b.valid)
        if b.unseen:
            reseed = b.never.copy() if valid is None else b.never & valid
            reseed = reseed if reseed.any() else None

        np.copyto(x, frame, casting="unsafe")

        # First matching component in rank order: ``near`` becomes one-hot
        # per matched pixel and ``seen`` marks the pixels with a match.
        np.subtract(x, mu, out=d)
        np.multiply(d, d, out=t)
        np.multiply(var, _F(c.gmm_match_k * c.gmm_match_k), out=r)
        np.less_equal(t, r, out=near)
        if valid is not None:
            near &= valid
        np.copyto(seen, near[0])
        for i in range(1, k):
            np.greater(near[i], seen, out=near[i])
            seen |= near[i]
        none = np.logical_not(seen, out=foreground)
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
        # already sit at or above the floor).  Weights decay by 1 - alpha
        # where any component matched.
        np.multiply(seen, _F(1.0 - c.gmm_learning_rate), out=plane)
        plane += ~seen
        w *= plane
        np.multiply(r, alpha, out=t)
        w += t
        r *= rho
        np.multiply(r, d, out=t)
        mu += t
        np.subtract(x, mu, out=d)
        d *= d
        d -= var
        d *= r
        var += d
        np.maximum(var, _F(c.gmm_variance_floor), out=var)

        if none.any():
            np.copyto(w[k - 1], _F(c.gmm_replacement_weight), where=none)
            np.copyto(mu[k - 1], x, where=none)
            np.copyto(var[k - 1], _F(self._initial_variance), where=none)

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
        # matched one does not exceed the fraction threshold.
        plane.fill(0.0)
        for i in range(1, k):
            plane += w[i - 1]
            np.greater(plane, _F(c.gmm_background_fraction), out=test)
            test &= near[i]
            foreground |= test

        if reseed is not None:
            np.copyto(w, _F(0.0), where=reseed)
            np.copyto(w[0], _F(1.0), where=reseed)
            np.copyto(mu, _F(0.0), where=reseed)
            np.copyto(mu[0], x, where=reseed)
            np.copyto(var, _F(self._initial_variance), where=reseed)
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
