"""Epoch aggregation and per-channel event detection.

Scores are folded into one-second epochs by counting the frame slots whose
score exceeds the channel's frame threshold.  Events are then read off the
count sequence with a three-point comparison: outside an event, a rise from
the previous epoch starts one; inside an event, it continues while the next
epoch's count is at least as large, and ends (inclusively) at the epoch where
the count drops.  Virtual zero-count epochs surround the sequence so the
rule is well defined at both ends; an isolated one-epoch spike is a valid
length-1 event.

Channel naming: depth activity yields ``motion`` events, luma activity
``light`` events, and audio activity ``noise`` events.  Each event carries a
clip reference covering its span plus a one-second margin each side, clamped
to the session: a frame index range (inclusive) for motion and light, a
sample index range (end-exclusive) for noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scoring import AUDIO, COLOR, DEPTH, ScoreSeries, make_models, score_session
from .session import Session

MOTION = "motion"
LIGHT = "light"
NOISE = "noise"
EVENT_CHANNELS = (MOTION, LIGHT, NOISE)

SCORE_TO_EVENT = {DEPTH: MOTION, COLOR: LIGHT, AUDIO: NOISE}

CLIP_MARGIN_SECONDS = 1


@dataclass
class DetectorConfig:
    """Frame-score thresholds per channel plus the model warm-up interval."""

    thresholds: dict = field(default_factory=lambda: {DEPTH: 0.02, COLOR: 0.05, AUDIO: 0.10})
    burn_in_seconds: int = 10

    def __post_init__(self):
        for ch in (DEPTH, COLOR, AUDIO):
            t = self.thresholds.get(ch)
            if t is None or not 0.0 < t < 1.0:
                raise ValueError(f"threshold for {ch} out of range (0, 1)")
        if self.burn_in_seconds < 0:
            raise ValueError("burn_in_seconds must be >= 0")


@dataclass
class Event:
    channel: str
    start_epoch: int
    end_epoch: int
    peak_score: float
    clip_start: int
    clip_end: int


def epochize(series: ScoreSeries | np.ndarray, threshold: float,
             frames_per_epoch: int = 30) -> np.ndarray:
    """Per-second counts of frame slots scoring above the threshold.

    A final partial second is dropped.
    """
    values = series.values if isinstance(series, ScoreSeries) else np.asarray(series)
    n_epochs = len(values) // frames_per_epoch
    trimmed = values[:n_epochs * frames_per_epoch]
    above = trimmed > threshold
    return above.reshape(n_epochs, frames_per_epoch).sum(axis=1).astype(np.int64)


def detect_events(counts) -> list[tuple[int, int]]:
    """Scan epoch counts into disjoint, ordered (start, end) spans.

    Both ends are inclusive.  The sequence is treated as if padded with a
    zero-count epoch on each side.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = len(counts)
    spans = []
    in_event = False
    start = 0
    prev = 0
    for t in range(n):
        cur = int(counts[t])
        nxt = int(counts[t + 1]) if t + 1 < n else 0
        if not in_event:
            if prev < cur:
                in_event = True
                start = t
        if in_event:
            if not cur <= nxt:
                spans.append((start, t))
                in_event = False
        prev = cur
    return spans


def epoch_peaks(series: ScoreSeries | np.ndarray, frames_per_epoch: int = 30) -> np.ndarray:
    """Per-second maximum frame score (used for classification and events)."""
    values = series.values if isinstance(series, ScoreSeries) else np.asarray(series)
    n_epochs = len(values) // frames_per_epoch
    trimmed = values[:n_epochs * frames_per_epoch]
    if n_epochs == 0:
        return np.empty(0, np.float64)
    return trimmed.reshape(n_epochs, frames_per_epoch).max(axis=1)


def clip_range(channel: str, start_epoch: int, end_epoch: int, *, video_rate: int,
               audio_rate: int, frame_count: int, audio_samples: int) -> tuple[int, int]:
    """Clip bounds for an event span, with a one-second margin each side.

    Motion and light events reference video frames (inclusive range); noise
    events reference audio samples (end-exclusive range).
    """
    n_epochs = frame_count // video_rate
    if start_epoch < 0 or end_epoch >= n_epochs or start_epoch > end_epoch:
        raise ValueError(
            f"event span [{start_epoch}, {end_epoch}] outside session of {n_epochs} epochs")
    lo_s = start_epoch - CLIP_MARGIN_SECONDS
    hi_s = end_epoch + 1 + CLIP_MARGIN_SECONDS
    if channel == NOISE:
        lo = max(lo_s * audio_rate, 0)
        hi = min(hi_s * audio_rate, audio_samples)
        return int(lo), int(hi)
    lo = max(lo_s * video_rate, 0)
    hi = min(hi_s * video_rate - 1, frame_count - 1)
    return int(lo), int(hi)


def record_clips(channel: str, start_epoch: int, end_epoch: int,
                 session: Session) -> tuple[int, int]:
    """Clip reference for an event span within a session (see clip_range)."""
    man = session.manifest
    return clip_range(channel, start_epoch, end_epoch,
                      video_rate=man.video_rate, audio_rate=man.audio_rate,
                      frame_count=man.frame_count, audio_samples=len(session.audio))


@dataclass
class DetectionResult:
    scores: dict
    epochs: dict
    events: dict
    config: DetectorConfig


def run_detector(session: Session, config: DetectorConfig | None = None, *,
                 depth_params=None, luma_params=None, workers: int = 1) -> DetectionResult:
    """Score the session, epoch-aggregate, and detect events on all channels.

    Epochs inside the burn-in interval are forced to zero counts before
    detection so model warm-up cannot fabricate events.
    """
    if config is None:
        config = DetectorConfig()
    man = session.manifest
    if man.frame_count == 0:
        empty = {ch: ScoreSeries(ch, np.empty(0, np.float64)) for ch in (DEPTH, COLOR, AUDIO)}
        return DetectionResult(scores=empty,
                               epochs={ch: np.empty(0, np.int64) for ch in (DEPTH, COLOR, AUDIO)},
                               events={ch: [] for ch in EVENT_CHANNELS},
                               config=config)
    depth_model, color_model = make_models(session, depth_params, luma_params)
    d, c, a = score_session(session, depth_model, color_model, workers=workers)
    scores = {DEPTH: d, COLOR: c, AUDIO: a}
    fpe = man.video_rate
    epochs = {}
    events = {}
    for ch, series in scores.items():
        counts = epochize(series, config.thresholds[ch], fpe)
        counts[:config.burn_in_seconds] = 0
        epochs[ch] = counts
        peaks = epoch_peaks(series, fpe)
        ev_channel = SCORE_TO_EVENT[ch]
        evs = []
        for start, end in detect_events(counts):
            clip = record_clips(ev_channel, start, end, session)
            peak = float(peaks[start:end + 1].max())
            evs.append(Event(ev_channel, start, end, peak, clip[0], clip[1]))
        events[ev_channel] = evs
    return DetectionResult(scores=scores, epochs=epochs, events=events, config=config)


EVENT_LOG_HEADER = "channel,start_epoch,end_epoch,peak_score,clip_start,clip_end"


def format_event_log(events_by_channel: dict) -> str:
    """One record per line, stable field order, peak score to six decimals."""
    lines = [EVENT_LOG_HEADER]
    for ch in EVENT_CHANNELS:
        for ev in events_by_channel.get(ch, []):
            lines.append(f"{ev.channel},{ev.start_epoch},{ev.end_epoch},"
                         f"{ev.peak_score:.6f},{ev.clip_start},{ev.clip_end}")
    return "\n".join(lines) + "\n"


def parse_event_log(text: str) -> dict[str, list[Event]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != EVENT_LOG_HEADER:
        raise ValueError("bad event log header")
    out = {ch: [] for ch in EVENT_CHANNELS}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 6:
            raise ValueError(f"bad event log record: {ln!r}")
        ch, s, e, p, cs, ce = parts
        if ch not in EVENT_CHANNELS:
            raise ValueError(f"unknown event channel: {ch!r}")
        out[ch].append(Event(ch, int(s), int(e), float(p), int(cs), int(ce)))
    return out


def format_epochs_csv(epochs: dict) -> str:
    """CSV export: header ``epoch,depth,color,audio``, one row per second."""
    n = len(epochs[DEPTH])
    lines = ["epoch,depth,color,audio"]
    for i in range(n):
        lines.append(f"{i},{epochs[DEPTH][i]},{epochs[COLOR][i]},{epochs[AUDIO][i]}")
    return "\n".join(lines) + "\n"
