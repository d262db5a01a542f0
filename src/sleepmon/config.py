"""Flat key=value configuration for the detection pipeline.

Every tunable of the background models, the event detector, and the epoch
classifier appears under one named key; unknown keys are rejected and values
are range-checked by the owning module when the typed parameter objects are
built.  Missing keys fall back to defaults, and the values actually applied
are echoed to a sidecar file next to the detection outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .analysis import ClassThresholds
from .background import GmmParams
from .events import DetectorConfig
from .kvtext import read_pairs, write_pairs


@dataclass
class Config:
    gmm_components: int = 3
    gmm_match_k: float = 2.5
    gmm_learning_rate: float = 0.01
    gmm_background_fraction: float = 0.7
    gmm_depth_initial_variance: float = 50.0 ** 2
    gmm_luma_initial_variance: float = 30.0 ** 2
    gmm_variance_floor: float = 4.0
    gmm_replacement_weight: float = 0.05
    depth_threshold: float = 0.02
    color_threshold: float = 0.05
    audio_threshold: float = 0.10
    burn_in_seconds: int = 10
    class_tiny: float = 0.005
    class_limb: float = 0.02
    class_full: float = 0.10
    class_exit: float = 0.30
    class_absent: float = 0.003
    class_min_absent_epochs: int = 10
    workers: int = 1

    def __post_init__(self):
        # Construct the typed parameter objects so every value is
        # range-checked by the module that owns it.
        self.depth_params()
        self.luma_params()
        self.detector_config()
        self.class_thresholds()
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

    def detector_config(self) -> DetectorConfig:
        return DetectorConfig(thresholds={"depth": self.depth_threshold,
                                          "color": self.color_threshold,
                                          "audio": self.audio_threshold},
                              burn_in_seconds=self.burn_in_seconds)

    def class_thresholds(self) -> ClassThresholds:
        return ClassThresholds(tiny=self.class_tiny, limb=self.class_limb,
                               full=self.class_full, exit=self.class_exit,
                               absent=self.class_absent,
                               min_absent_epochs=self.class_min_absent_epochs)


# Annotations are strings here (``from __future__ import annotations``).
_INT_KEYS = {f.name for f in fields(Config) if f.type == "int"}


def read_config(path) -> Config:
    pairs = read_pairs(path)
    known = {f.name for f in fields(Config)}
    kwargs = {}
    for key, value in pairs:
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        if key in kwargs:
            raise ValueError(f"duplicate config key {key!r}")
        kwargs[key] = int(value) if key in _INT_KEYS else float(value)
    return Config(**kwargs)


def write_config(config: Config, path) -> None:
    pairs = []
    for f in fields(Config):
        v = getattr(config, f.name)
        pairs.append((f.name, str(v) if f.name in _INT_KEYS else repr(float(v))))
    write_pairs(path, pairs)
