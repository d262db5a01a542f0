"""Multimodal sleep monitoring from synchronized depth, color, and audio.

Dual per-pixel Gaussian-mixture background models turn depth and luma frames
into normalized activity scores, audio is scored by windowed RMS, and a
one-second epoch detector finds motion, light, and noise events.  Epoch
classification yields a component breakdown and sleep efficiency, with
Cole/Sadeh actigraphy scorers as cross-checks, plus a seeded scenario
synthesizer for ground-truthed end-to-end evaluation.
"""

from .actigraphy import (cole_sleep_wake, compare_efficiencies, counts_from_scores,
                         sadeh_sleep_wake)
from .analysis import (ClassThresholds, EpochClass, SleepReport, build_report,
                       classify_epochs, sleep_efficiency, sleep_wake)
from .background import BackgroundModel, GmmParams, foreground_area, luma, morph_smooth
from .config import Config, read_config, write_config
from .errors import (AudioUnderrunError, CorruptSessionError, InvalidDepthError,
                     ManifestMismatchError, PipelineError, RoiBoundsError)
from .events import (DetectionResult, DetectorConfig, Event, detect_events, epochize,
                     epoch_peaks, record_clips, run_detector)
from .scoring import (ScoreSeries, audio_score, chunk_audio, score_session,
                      visual_score)
from .session import (Session, SessionManifest, crop_roi, load_session,
                      sessions_equal, write_session)
from .synth import GroundTruth, Scenario, TimelineItem, generate, preset

__version__ = "0.1.0"

__all__ = [
    "AudioUnderrunError", "BackgroundModel", "ClassThresholds", "Config",
    "CorruptSessionError", "DetectionResult", "DetectorConfig", "EpochClass",
    "Event", "GmmParams", "GroundTruth", "InvalidDepthError",
    "ManifestMismatchError", "PipelineError", "RoiBoundsError", "Scenario",
    "ScoreSeries", "Session", "SessionManifest", "SleepReport", "TimelineItem",
    "audio_score", "build_report", "chunk_audio", "classify_epochs",
    "cole_sleep_wake", "compare_efficiencies", "counts_from_scores", "crop_roi",
    "detect_events", "epochize", "epoch_peaks", "foreground_area", "generate",
    "load_session", "luma", "morph_smooth", "preset",
    "read_config", "record_clips", "run_detector", "sadeh_sleep_wake",
    "score_session", "sessions_equal", "sleep_efficiency", "sleep_wake",
    "visual_score", "write_config", "write_session",
]
