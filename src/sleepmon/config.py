"""Flat key=value configuration for the detection pipeline.

``Config`` is the one parameter object of the detector: ``run_detector`` and
``sleepmon detect`` both take it.  Every tunable of the background models, the
event detector, and the epoch classifier appears under one named field, whose
default is read from the module that owns the parameter; the config file is
its text form (see ``kvtext``).  Unknown keys are rejected and values are
range-checked by the owning module when the typed parameter objects are built.
Missing keys fall back to defaults, and the values actually applied are echoed
to a sidecar file next to the detection outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import ClassThresholds
from .background import DEPTH_PARAMS, LUMA_PARAMS, GmmParams
from .kvtext import from_pairs, read_pairs, to_pairs, write_pairs
from .scoring import CHANNELS


@dataclass(frozen=True)
class Config:
    gmm_components: int = GmmParams.components
    gmm_match_k: float = GmmParams.match_k
    gmm_learning_rate: float = GmmParams.learning_rate
    gmm_background_fraction: float = GmmParams.background_fraction
    gmm_depth_initial_variance: float = DEPTH_PARAMS.initial_variance
    gmm_luma_initial_variance: float = LUMA_PARAMS.initial_variance
    gmm_variance_floor: float = GmmParams.variance_floor
    gmm_replacement_weight: float = GmmParams.replacement_weight
    # Frame-score thresholds per score channel, and the model warm-up whose
    # epochs are zeroed before event detection.
    depth_threshold: float = 0.02
    color_threshold: float = 0.05
    audio_threshold: float = 0.10
    burn_in_seconds: int = 10
    class_tiny: float = ClassThresholds.tiny
    class_limb: float = ClassThresholds.limb
    class_full: float = ClassThresholds.full
    class_exit: float = ClassThresholds.exit
    class_absent: float = ClassThresholds.absent
    class_min_absent_epochs: int = ClassThresholds.min_absent_epochs
    workers: int = 1

    def __post_init__(self):
        # Construct the typed parameter objects so every value is
        # range-checked by the module that owns it.
        self.depth_params()
        self.luma_params()
        self.class_thresholds()
        for ch in CHANNELS:
            if not 0.0 < self.threshold(ch) < 1.0:
                raise ValueError(f"threshold for {ch} out of range (0, 1)")
        if self.burn_in_seconds < 0:
            raise ValueError("burn_in_seconds must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def _gmm(self, initial_variance: float) -> GmmParams:
        return GmmParams(
            components=self.gmm_components, match_k=self.gmm_match_k,
            learning_rate=self.gmm_learning_rate,
            background_fraction=self.gmm_background_fraction,
            initial_variance=initial_variance,
            variance_floor=self.gmm_variance_floor,
            replacement_weight=self.gmm_replacement_weight)

    def depth_params(self) -> GmmParams:
        return self._gmm(self.gmm_depth_initial_variance)

    def luma_params(self) -> GmmParams:
        return self._gmm(self.gmm_luma_initial_variance)

    def threshold(self, channel: str) -> float:
        """Frame-score threshold of a score channel (a key of ``CHANNELS``)."""
        return getattr(self, f"{channel}_threshold")

    def class_thresholds(self) -> ClassThresholds:
        return ClassThresholds(tiny=self.class_tiny, limb=self.class_limb,
                               full=self.class_full, exit=self.class_exit,
                               absent=self.class_absent,
                               min_absent_epochs=self.class_min_absent_epochs)


def read_config(path) -> Config:
    return from_pairs(Config, read_pairs(path), "config", required=False)


def write_config(config: Config, path) -> None:
    write_pairs(path, to_pairs(config))
