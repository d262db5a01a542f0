"""Flat key=value configuration for the detection pipeline.

``Config`` is the one parameter record of the detector: every tunable of the
two background models (the seven Stauffer & Grimson mixture parameters, with
one initial variance per channel), the event detector and the epoch
classifier is one named field, defined, defaulted and range-checked here
only.  ``run_detector`` and ``sleepmon detect`` take it, and the models and
the classifier read its fields directly.  The config file is its text form
(see ``kvtext``): unknown keys are rejected, missing keys fall back to the
defaults, and the values actually applied are echoed to a sidecar file next
to the detection outputs.  Threading is not a field: ``score_session``
picks it from the roi size and the usable CPUs (``session.use_helper_thread``).

``CHANNELS`` is the one table of channel names: its keys name the score
channels (the ``scores.csv`` and ``epochs.csv`` columns, in file order) and
its values the event channel each one feeds (the ``events.log`` channels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kvtext import from_pairs, read_pairs, to_pairs, write_pairs

# Score channel -> the event channel it feeds, in file order.
CHANNELS = {"depth": "motion", "color": "light", "audio": "noise"}


@dataclass(frozen=True)
class Config:
    # Per-pixel mixtures; the initial variance is channel-scaled (50**2 raw
    # depth units, 30**2 for 8-bit luma).
    gmm_components: int = 3
    gmm_match_k: float = 2.5
    gmm_learning_rate: float = 0.01
    gmm_background_fraction: float = 0.7
    gmm_depth_initial_variance: float = 2500.0
    gmm_luma_initial_variance: float = 900.0
    gmm_variance_floor: float = 4.0
    gmm_replacement_weight: float = 0.05
    # Frame-score thresholds per score channel, and the model warm-up whose
    # epochs are zeroed before event detection.
    depth_threshold: float = 0.02
    color_threshold: float = 0.05
    audio_threshold: float = 0.10
    burn_in_seconds: int = 10
    # Peak-score class boundaries plus the out-of-view machine parameters.
    class_tiny: float = 0.005
    class_limb: float = 0.02
    class_full: float = 0.10
    class_exit: float = 0.30
    class_absent: float = 0.003
    class_min_absent_epochs: int = 10

    def __post_init__(self):
        if self.gmm_components < 1:
            raise ValueError("components must be >= 1")
        if not 0.0 < self.gmm_learning_rate < 1.0:
            raise ValueError("learning rate out of range (0, 1)")
        if not 0.0 < self.gmm_background_fraction <= 1.0:
            raise ValueError("background fraction out of range (0, 1]")
        if not (math.isfinite(self.gmm_match_k) and self.gmm_match_k > 0.0):
            raise ValueError("match_k must be finite and positive")
        if not (math.isfinite(self.gmm_variance_floor) and self.gmm_variance_floor > 0.0):
            raise ValueError("variance floor must be finite and positive")
        for v in (self.gmm_depth_initial_variance, self.gmm_luma_initial_variance):
            if not (math.isfinite(v) and v >= self.gmm_variance_floor):
                raise ValueError("initial variance must be finite and >= variance floor")
        if not 0.0 < self.gmm_replacement_weight < 1.0:
            raise ValueError("replacement weight out of range (0, 1)")
        if not 0.0 < self.class_tiny < self.class_limb < self.class_full <= self.class_exit <= 1.0:
            raise ValueError("class thresholds must satisfy 0 < tiny < limb < full <= exit <= 1")
        if not 0.0 <= self.class_absent < self.class_tiny:
            raise ValueError("absent ceiling must satisfy 0 <= absent < tiny")
        if self.class_min_absent_epochs < 1:
            raise ValueError("min_absent_epochs must be >= 1")
        for ch in CHANNELS:
            if not 0.0 < self.threshold(ch) < 1.0:
                raise ValueError(f"threshold for {ch} out of range (0, 1)")
        if self.burn_in_seconds < 0:
            raise ValueError("burn_in_seconds must be >= 0")

    def threshold(self, channel: str) -> float:
        """Frame-score threshold of a score channel (a key of ``CHANNELS``)."""
        return getattr(self, f"{channel}_threshold")


def read_config(path) -> Config:
    return from_pairs(Config, read_pairs(path), "config", required=False)


def write_config(config: Config, path) -> None:
    write_pairs(path, to_pairs(config))
