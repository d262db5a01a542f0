"""Per-frame scores for the three channels, normalized to a common [0, 1] scale.

Visual channels score the smoothed foreground area divided by the roi area;
audio scores the RMS of the chunk aligned to each video frame slot, divided
by PCM full scale (32768).  Fixed denominators keep scores deterministic and
comparable across channels; nothing depends on future data.

The three channels can be scored in parallel with each other (their models
share no state); frames within a channel are strictly sequential.  Output is
identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import background
from .background import BackgroundModel, foreground_area, luma, morph_smooth
from .errors import AudioUnderrunError
from .session import Session, crop_roi

DEPTH = "depth"
COLOR = "color"
AUDIO = "audio"
CHANNELS = (DEPTH, COLOR, AUDIO)

PCM_FULL_SCALE = 32768.0


@dataclass
class ScoreSeries:
    """Channel name plus one score per video-frame slot."""

    channel: str
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def visual_score(mask: np.ndarray, roi_area: int) -> float:
    """Foreground fraction of the roi."""
    if roi_area != mask.shape[0] * mask.shape[1]:
        raise ValueError("roi_area must equal mask width x height")
    return foreground_area(mask) / roi_area


def chunk_bounds(audio_rate: int, video_rate: int, frame_count: int) -> np.ndarray:
    """Sample index boundaries; chunk i covers [bounds[i], bounds[i+1])."""
    idx = np.arange(frame_count + 1, dtype=np.int64)
    return idx * audio_rate // video_rate


def chunk_audio(audio: np.ndarray, audio_rate: int, video_rate: int,
                frame_count: int) -> list[np.ndarray]:
    """Split the stream prefix into one window per video frame slot.

    Chunk i covers samples floor(i*audio_rate/video_rate) ..
    floor((i+1)*audio_rate/video_rate) - 1; windows are gapless and
    non-overlapping.
    """
    bounds = chunk_bounds(audio_rate, video_rate, frame_count)
    if frame_count and len(audio) < bounds[-1]:
        first_bad = int(np.searchsorted(bounds[1:], len(audio), side="right"))
        raise AudioUnderrunError(
            f"audio underrun at chunk {first_bad}: stream holds {len(audio)} samples, "
            f"chunk needs samples up to {int(bounds[first_bad + 1]) - 1}")
    return [audio[bounds[i]:bounds[i + 1]] for i in range(frame_count)]


def audio_score(chunk: np.ndarray) -> float:
    """RMS of the chunk over PCM full scale, clamped to [0, 1]."""
    if len(chunk) == 0:
        raise ValueError("empty chunk")
    x = chunk.astype(np.float64)
    rms = np.sqrt(np.mean(x * x))
    return min(rms / PCM_FULL_SCALE, 1.0)


def _score_visual(session: Session, model: BackgroundModel, kind: str) -> np.ndarray:
    man = session.manifest
    n = man.frame_count
    roi = man.roi
    roi_area = roi[2] * roi[3]
    out = np.empty(n, np.float64)
    if kind == DEPTH:
        for i in range(n):
            mask = model.update_and_classify(crop_roi(session.depth_frame(i), roi))
            out[i] = foreground_area(morph_smooth(mask)) / roi_area
    else:
        for i in range(n):
            mask = model.update_and_classify(luma(crop_roi(session.color_frame(i), roi)))
            out[i] = foreground_area(morph_smooth(mask)) / roi_area
    return out


def _score_audio(session: Session) -> np.ndarray:
    man = session.manifest
    chunks = chunk_audio(session.audio, man.audio_rate, man.video_rate, man.frame_count)
    return np.array([audio_score(c) for c in chunks], np.float64)


def make_models(session: Session, depth_params=None, luma_params=None):
    """Seed one model per visual channel from frame 0 of the session."""
    if session.manifest.frame_count == 0:
        raise ValueError("cannot initialize models on an empty session")
    roi = session.manifest.roi
    dp = depth_params if depth_params is not None else background.DEPTH_PARAMS
    lp = luma_params if luma_params is not None else background.LUMA_PARAMS
    depth_model = BackgroundModel(dp, crop_roi(session.depth_frame(0), roi).astype(np.float32),
                                  background.DEPTH_CHANNEL)
    color_model = BackgroundModel(lp, luma(crop_roi(session.color_frame(0), roi)),
                                  background.LUMA_CHANNEL)
    return depth_model, color_model


def score_session(session: Session, depth_model: BackgroundModel,
                  color_model: BackgroundModel, workers: int = 1
                  ) -> tuple[ScoreSeries, ScoreSeries, ScoreSeries]:
    """Run both background models over the session and score all channels.

    ``workers=1`` runs the channels sequentially; ``workers>1`` scores them
    in parallel threads.  The two produce bitwise-identical series.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1:
        d = _score_visual(session, depth_model, DEPTH)
        c = _score_visual(session, color_model, COLOR)
        a = _score_audio(session)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            fd = pool.submit(_score_visual, session, depth_model, DEPTH)
            fc = pool.submit(_score_visual, session, color_model, COLOR)
            fa = pool.submit(_score_audio, session)
            d, c, a = fd.result(), fc.result(), fa.result()
    return (ScoreSeries(DEPTH, d), ScoreSeries(COLOR, c), ScoreSeries(AUDIO, a))


def format_scores_csv(depth: ScoreSeries, color: ScoreSeries, audio: ScoreSeries) -> str:
    """CSV export: header ``frame,depth,color,audio``, six decimal places."""
    if not (len(depth) == len(color) == len(audio)):
        raise ValueError("score series lengths differ")
    lines = ["frame,depth,color,audio"]
    for i in range(len(depth)):
        lines.append(f"{i},{depth.values[i]:.6f},{color.values[i]:.6f},{audio.values[i]:.6f}")
    return "\n".join(lines) + "\n"


def exact_visual_scores(parsed: np.ndarray, roi_area: int) -> np.ndarray:
    """The float64 visual scores behind six-decimal values read from scores.csv.

    A visual score is ``k / roi_area`` for an integer foreground area ``k``,
    and ``format_scores_csv`` writes it within 5e-7, so ``parsed * roi_area``
    lies within ``roi_area * 5e-7`` of ``k``.  Below an area of 10**6 that is
    under 0.5, so ``rint`` gives back ``k`` and ``k / roi_area`` the value the
    library computed, bit for bit.
    """
    if not 0 < roi_area < 10 ** 6:
        raise ValueError(f"roi area {roi_area} outside (0, 10**6): six-decimal visual "
                         "scores no longer determine the foreground area")
    return np.rint(np.asarray(parsed, np.float64) * roi_area) / roi_area


def parse_scores_csv(text: str) -> dict[str, np.ndarray]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "frame,depth,color,audio":
        raise ValueError("bad scores csv header")
    cols = {DEPTH: [], COLOR: [], AUDIO: []}
    for ln in lines[1:]:
        _, d, c, a = ln.split(",")
        cols[DEPTH].append(float(d))
        cols[COLOR].append(float(c))
        cols[AUDIO].append(float(a))
    return {k: np.array(v, np.float64) for k, v in cols.items()}
