"""Per-frame scores for the three channels, normalized to a common [0, 1] scale.

Visual channels score the smoothed foreground area divided by the roi area;
audio scores the RMS of the chunk aligned to each video frame slot, divided
by PCM full scale (32768).  Fixed denominators keep scores deterministic and
comparable across channels; nothing depends on future data.

Channel naming follows the one table ``config.CHANNELS``: its keys name the
score channels (the ``scores.csv`` and ``epochs.csv`` columns, in file order)
and its values the event channel each one feeds (the ``events.log``
channels).  Scores are plain float64 arrays
keyed by score channel.

The two models share no state, so ``score_session`` folds the depth and the
luma frames in on two threads when ``session.use_helper_thread`` holds for the
roi size; frames within a channel are strictly sequential.  Output is
bitwise identical on one thread or two.
"""

from __future__ import annotations

import io

import numpy as np

from .background import BackgroundModel, foreground_area, luma, morph_smooth
from .config import CHANNELS, Config
from .session import Session, crop_roi, run_frame_loops, use_helper_thread

PCM_FULL_SCALE = 32768.0


def chunk_bounds(audio_rate: int, video_rate: int, frame_count: int) -> np.ndarray:
    """Sample index boundaries; chunk i covers [bounds[i], bounds[i+1])."""
    idx = np.arange(frame_count + 1, dtype=np.int64)
    return idx * audio_rate // video_rate


def audio_score(chunk: np.ndarray) -> float:
    """RMS of the chunk over PCM full scale, clamped to [0, 1]."""
    if len(chunk) == 0:
        raise ValueError("empty chunk")
    x = chunk.astype(np.float64)
    rms = np.sqrt(np.mean(x * x))
    return min(rms / PCM_FULL_SCALE, 1.0)


def _model_input(session: Session, channel: str, i: int) -> np.ndarray:
    """Frame ``i`` as the ``channel`` model sees it: the depth roi or the luma of the color roi."""
    roi = session.manifest.roi
    if channel == "depth":
        return crop_roi(session.depth_frame(i), roi)
    return luma(crop_roi(session.color_frame(i), roi))


def _score_audio(session: Session) -> np.ndarray:
    """``audio_score`` of each frame slot's chunk, read one chunk at a time.

    Chunk i covers samples ``chunk_bounds(...)[i]`` up to ``[i + 1]``; the
    chunks are gapless and non-overlapping, and the last ends at
    ``min_audio_samples``, which a ``Session`` holds by construction.  Each
    chunk is let go before the next is read, so a mapped stream keeps about
    one window in memory.
    """
    man = session.manifest
    audio = session.audio
    bounds = chunk_bounds(man.audio_rate, man.video_rate, man.frame_count)
    scores = np.empty(man.frame_count, np.float64)
    for i in range(man.frame_count):
        scores[i] = audio_score(audio[bounds[i]:bounds[i + 1]])
    return scores


def make_models(session: Session, config: Config = Config()):
    """Seed the depth and the luma model from frame 0 of the session."""
    if session.manifest.frame_count == 0:
        raise ValueError("cannot initialize models on an empty session")
    return tuple(BackgroundModel(config, _model_input(session, ch, 0), ch)
                 for ch in ("depth", "luma"))


def score_session(session: Session, depth_model: BackgroundModel,
                  color_model: BackgroundModel) -> dict[str, np.ndarray]:
    """Run both background models over the session and score all channels.

    Returns one float64 array per score channel.  A ``Session`` agrees with
    its manifest once built, so the audio covers every frame slot.  Audio is
    scored first, then the depth and the color frames by
    ``session.run_frame_loops``: the color model on a helper thread when
    ``session.use_helper_thread`` holds for the roi area, otherwise on the
    caller after the depth model.  Both give bitwise-identical scores and
    raise the same error: that of the failing frame with the lowest index,
    its depth error before its color error.  No thread is left running on
    return or raise.
    """
    man = session.manifest
    audio = _score_audio(session)
    roi_area = man.roi[2] * man.roi[3]
    depth = np.empty(man.frame_count, np.float64)
    color = np.empty(man.frame_count, np.float64)

    def step(model, out):
        def score(i):
            mask = model.update_and_classify(_model_input(session, model.channel, i))
            out[i] = foreground_area(morph_smooth(mask)) / roi_area
        return score

    run_frame_loops(man.frame_count, step(depth_model, depth), step(color_model, color),
                    use_helper_thread(roi_area))
    return {"depth": depth, "color": color, "audio": audio}


def format_scores_csv(scores: dict) -> str:
    """CSV export: header ``frame,depth,color,audio``, six decimal places."""
    d, c, a = (np.asarray(scores[ch]).tolist() for ch in CHANNELS)
    if not len(d) == len(c) == len(a):
        raise ValueError("score series lengths differ")
    rows = map("%d,%.6f,%.6f,%.6f".__mod__, zip(range(len(d)), d, c, a))
    return "\n".join(["frame," + ",".join(CHANNELS), *rows]) + "\n"


def check_roi_area(roi_area: int) -> None:
    """Raise ``ValueError`` unless ``exact_visual_scores`` holds for ``roi_area``: 0 < area < 10**6.

    ``detect`` checks this before it reads a frame, so that it writes no
    ``scores.csv`` that ``report`` cannot read back.
    """
    if not 0 < roi_area < 10 ** 6:
        raise ValueError(f"roi area {roi_area} outside (0, 10**6): six-decimal visual "
                         "scores no longer determine the foreground area")


def exact_visual_scores(parsed: np.ndarray, roi_area: int) -> np.ndarray:
    """The float64 visual scores behind six-decimal values read from scores.csv.

    A visual score is ``k / roi_area`` for an integer foreground area ``k``,
    and ``format_scores_csv`` writes it within 5e-7, so ``parsed * roi_area``
    lies within ``roi_area * 5e-7`` of ``k``.  Below an area of 10**6 that is
    under 0.5, so ``rint`` gives back ``k`` and ``k / roi_area`` the value the
    library computed, bit for bit; ``check_roi_area`` rejects any other area.
    """
    check_roi_area(roi_area)
    return np.rint(np.asarray(parsed, np.float64) * roi_area) / roi_area


def parse_scores_csv(text: str) -> dict[str, np.ndarray]:
    """The score columns of a ``format_scores_csv`` text, as float64 arrays.

    The header must be the first line and the frame column must count
    ``0..n-1``; a header-only text gives empty columns.
    """
    header, _, body = text.partition("\n")
    if header.rstrip("\r") != "frame," + ",".join(CHANNELS):
        raise ValueError("bad scores csv header")
    if not body or body.isspace():
        return {ch: np.empty(0, np.float64) for ch in CHANNELS}
    table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2, comments=None)
    if table.shape[1] != 1 + len(CHANNELS):
        raise ValueError(f"scores csv rows hold {table.shape[1]} fields, not {1 + len(CHANNELS)}")
    if not np.array_equal(table[:, 0], np.arange(len(table))):
        raise ValueError("scores csv frame column does not count 0..n-1")
    return dict(zip(CHANNELS, np.ascontiguousarray(table[:, 1:].T)))
