"""Adaptive per-pixel Gaussian-mixture background models and mask smoothing.

Each visual channel (depth, luma) keeps an independent model: every pixel is
described by K weighted Gaussians kept sorted by weight/sqrt(variance)
descending.  A new frame updates the first matching component per pixel and
classifies the pixel against the high-weight prefix of the mixture.  The two
channels share no state, so depth masks are immune to lighting changes by
construction.

State is stored as stacked (K, H, W) float32 arrays and a frame is a fixed
sequence of whole-stack ufuncs into work buffers the model owns, which keeps
a 320x350 grid well above real-time rate on a single core.  Masked updates
are arithmetic selects on 0/1 masks, exact while squared residuals stay
finite (any 16-bit depth or 8-bit luma frame).  Updates are per-pixel
independent (no cross-pixel reads), so the result is bitwise independent of
any data-parallel schedule; updating one model from two frames concurrently
is not supported.

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
from dataclasses import dataclass

import numpy as np

DEPTH_CHANNEL = "depth"
LUMA_CHANNEL = "luma"

_F = np.float32


@dataclass(frozen=True)
class GmmParams:
    """Mixture parameters; defaults are the standard operating point.

    ``initial_variance`` is channel-scaled: 50**2 for raw depth units,
    30**2 for 8-bit luma.
    """

    components: int = 3
    match_k: float = 2.5
    learning_rate: float = 0.01
    background_fraction: float = 0.7
    initial_variance: float = 50.0 ** 2
    variance_floor: float = 4.0
    replacement_weight: float = 0.05

    def __post_init__(self):
        if self.components < 1:
            raise ValueError("components must be >= 1")
        if not 0.0 < self.learning_rate < 1.0:
            raise ValueError("learning rate out of range (0, 1)")
        if not 0.0 < self.background_fraction <= 1.0:
            raise ValueError("background fraction out of range (0, 1]")
        if self.match_k <= 0.0:
            raise ValueError("match_k must be positive")
        if self.variance_floor <= 0.0:
            raise ValueError("variance floor must be positive")
        if self.initial_variance < self.variance_floor:
            raise ValueError("initial variance must be >= variance floor")
        if not 0.0 < self.replacement_weight < 1.0:
            raise ValueError("replacement weight out of range (0, 1)")


DEPTH_PARAMS = GmmParams(initial_variance=50.0 ** 2)
LUMA_PARAMS = GmmParams(initial_variance=30.0 ** 2)


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

    def __init__(self, params: GmmParams, first_frame: np.ndarray,
                 channel: str = DEPTH_CHANNEL):
        if channel not in (DEPTH_CHANNEL, LUMA_CHANNEL):
            raise ValueError(f"unknown channel kind {channel!r}")
        if first_frame.ndim != 2:
            raise ValueError("first observation must be a 2-D single-channel frame")
        self.params = params
        self.channel = channel
        self.shape = first_frame.shape
        stack = (params.components,) + self.shape
        self._w = np.zeros(stack, _F)
        self._w[0] = 1.0
        self._mu = np.zeros(stack, _F)
        self._mu[0] = first_frame
        self._var = np.full(stack, params.initial_variance, _F)
        self._never_observed = np.zeros(self.shape, bool)
        if channel == DEPTH_CHANNEL:
            np.equal(first_frame, 0, out=self._never_observed)
        # Work buffers reused every frame: fresh (K, H, W) temporaries page-fault in anew.
        self._x, self._rho, self._plane = (np.empty(self.shape, _F) for _ in range(3))
        self._skip, self._valid, self._seen, self._test = (np.empty(self.shape, bool)
                                                           for _ in range(4))
        self._d, self._t, self._r = (np.empty(stack, _F) for _ in range(3))
        self._near, self._up = np.empty(stack, bool), np.empty((stack[0] - 1,) + self.shape, bool)

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
        p = self.params
        k = p.components
        w, mu, var = self._w, self._mu, self._var
        x, rho, plane = self._x, self._rho, self._plane
        d, t, r, near, seen, test = self._d, self._t, self._r, self._near, self._seen, self._test
        alpha = _F(p.learning_rate)

        # Skipped pixels ("no reading") match nothing, are never replaced and
        # are normalized by 1, so every update below leaves them as they are.
        skip = valid = reseed = None
        if self.channel == DEPTH_CHANNEL and not frame.all():
            skip = np.equal(frame, 0, out=self._skip)
            valid = np.logical_not(skip, out=self._valid)
        if self._never_observed.any():
            reseed = self._never_observed.copy() if valid is None else self._never_observed & valid
            reseed = reseed if reseed.any() else None

        np.copyto(x, frame, casting="unsafe")

        # First matching component in rank order: ``near`` becomes one-hot
        # per matched pixel and ``seen`` marks the pixels with a match.
        np.subtract(x, mu, out=d)
        np.multiply(d, d, out=t)
        np.multiply(var, _F(p.match_k * p.match_k), out=r)
        np.less_equal(t, r, out=near)
        if valid is not None:
            near &= valid
        np.copyto(seen, near[0])
        for i in range(1, k):
            np.greater(near[i], seen, out=near[i])
            seen |= near[i]
        none = ~seen
        if valid is not None:
            none &= valid

        # ``r`` holds the match as 0/1.  At most one component matches, so
        # the sum is the matched weight or 0.
        np.copyto(r, near)
        np.multiply(r, w, out=t)
        np.add.reduce(t, axis=0, out=rho)
        with np.errstate(divide="ignore"):
            np.divide(alpha, rho, out=rho)
        np.clip(rho, alpha, _F(1.0), out=rho)

        # Masked updates as exact arithmetic selects: an unmatched component
        # sees only x1 and +0, which leave finite values bit-exact (variances
        # already sit at or above the floor).  Weights decay by 1 - alpha
        # where any component matched.
        np.multiply(seen, _F(1.0 - p.learning_rate), out=plane)
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
        np.maximum(var, _F(p.variance_floor), out=var)

        if none.any():
            np.copyto(w[k - 1], _F(p.replacement_weight), where=none)
            np.copyto(mu[k - 1], x, where=none)
            np.copyto(var[k - 1], _F(p.initial_variance), where=none)

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
        np.greater(t[1:], t[:-1], out=self._up)
        moved = np.flatnonzero(np.logical_or.reduce(self._up, axis=0))
        if moved.size:
            order = np.argsort(-t.reshape(k, -1)[:, moved], axis=0, kind="stable")
            for a in (w, mu, var, near):
                flat = a.reshape(k, -1)
                flat[:, moved] = flat[order, moved]

        # Background iff the weight of the components ranked above the
        # matched one does not exceed the fraction threshold.
        foreground = none
        plane.fill(0.0)
        for i in range(1, k):
            plane += w[i - 1]
            np.greater(plane, _F(p.background_fraction), out=test)
            test &= near[i]
            foreground |= test

        if reseed is not None:
            np.copyto(w, _F(0.0), where=reseed)
            np.copyto(w[0], _F(1.0), where=reseed)
            np.copyto(mu, _F(0.0), where=reseed)
            np.copyto(mu[0], x, where=reseed)
            np.copyto(var, _F(p.initial_variance), where=reseed)
            foreground &= ~reseed
            self._never_observed &= ~reseed
        return foreground


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
