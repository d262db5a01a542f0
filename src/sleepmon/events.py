"""Epoch aggregation and per-channel event detection.

``per_epoch`` is the one fold of a frame series into whole epochs: an
``(epochs, frames)`` view that drops a final partial epoch.  The per-minute
``actigraphy`` counts reduce it too.  Scores are folded into one-second epochs
by counting the frame slots whose score exceeds the channel's frame threshold;
the per-second peaks are the maxima of the same view.  Events are then read
off the count sequence with a three-point comparison: outside an event, a
rise from the previous epoch starts one; inside an event, it continues while
the next epoch's count is at least as large, and ends (inclusively) at the
epoch where the count drops.  Virtual zero-count epochs surround the sequence
so the rule is well defined at both ends; an isolated one-epoch spike is a
valid length-1 event.

Channel naming follows the one table ``config.CHANNELS``: depth activity
yields ``motion`` events, luma (``color``) activity ``light`` events, and audio
activity ``noise`` events.  Each event carries a clip reference covering its
span plus a one-second margin each side, clamped to the session: a frame index
range (inclusive) for motion and light, a sample index range (end-exclusive)
for noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CHANNELS, Config
from .scoring import make_models, score_session
from .session import Session

CLIP_MARGIN_SECONDS = 1


@dataclass
class Event:
    channel: str
    start_epoch: int
    end_epoch: int
    peak_score: float
    clip_start: int
    clip_end: int


def per_epoch(series, frames_per_epoch: int) -> np.ndarray:
    """The whole epochs of a series, as an ``(epochs, frames_per_epoch)`` view.

    A final partial epoch is dropped; every per-epoch reduction reads this view.
    """
    values = np.asarray(series)
    n_epochs = len(values) // frames_per_epoch
    return values[:n_epochs * frames_per_epoch].reshape(n_epochs, frames_per_epoch)


def epochize(series, threshold: float, frames_per_epoch: int) -> np.ndarray:
    """Per-second counts of frame slots scoring above the threshold."""
    return (per_epoch(series, frames_per_epoch) > threshold).sum(axis=1).astype(np.int64)


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


def epoch_peaks(series, frames_per_epoch: int) -> np.ndarray:
    """Per-second maximum frame score (used for classification and events); float64 if empty."""
    epochs = per_epoch(series, frames_per_epoch)
    return epochs.max(axis=1) if len(epochs) else np.empty(0, np.float64)


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
    if channel == "noise":
        lo = max(lo_s * audio_rate, 0)
        hi = min(hi_s * audio_rate, audio_samples)
        return int(lo), int(hi)
    lo = max(lo_s * video_rate, 0)
    hi = min(hi_s * video_rate - 1, frame_count - 1)
    return int(lo), int(hi)


@dataclass
class DetectionResult:
    scores: dict
    epochs: dict
    events: dict


def run_detector(session: Session, config: Config | None = None) -> DetectionResult:
    """Score the session, epoch-aggregate, and detect events on all channels.

    ``config`` defaults to ``Config()``, the values ``sleepmon detect`` applies
    without a config file.  Epochs inside the burn-in interval are forced to
    zero counts before detection so model warm-up cannot fabricate events.
    """
    config = config if config is not None else Config()
    man = session.manifest
    scores = (score_session(session, *make_models(session, config)) if man.frame_count
              else {ch: np.empty(0, np.float64) for ch in CHANNELS})
    epochs, events = {}, {}
    for ch, ev_channel in CHANNELS.items():
        counts = epochize(scores[ch], config.threshold(ch), man.video_rate)
        counts[:config.burn_in_seconds] = 0
        epochs[ch] = counts
        peaks = epoch_peaks(scores[ch], man.video_rate)
        events[ev_channel] = [
            Event(ev_channel, start, end, float(peaks[start:end + 1].max()),
                  *clip_range(ev_channel, start, end, video_rate=man.video_rate,
                              audio_rate=man.audio_rate, frame_count=man.frame_count,
                              audio_samples=len(session.audio)))
            for start, end in detect_events(counts)]
    return DetectionResult(scores=scores, epochs=epochs, events=events)


EVENT_LOG_HEADER = "channel,start_epoch,end_epoch,peak_score,clip_start,clip_end"


def format_event_log(events_by_channel: dict) -> str:
    """One record per line, stable field order, peak score to six decimals."""
    rows = map("%s,%d,%d,%.6f,%d,%d".__mod__,
               ((ev.channel, ev.start_epoch, ev.end_epoch, ev.peak_score, ev.clip_start,
                 ev.clip_end) for ch in CHANNELS.values() for ev in events_by_channel.get(ch, [])))
    return "\n".join([EVENT_LOG_HEADER, *rows]) + "\n"


def parse_event_log(text: str) -> dict[str, list[Event]]:
    """Events per channel; each channel's spans must be sorted and disjoint.

    ``run_detector`` and the synthesizer's ground truth only write such logs,
    and span matching relies on it, so a span that starts before the end of
    the previous span of its channel, or ends before it starts, is rejected.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != EVENT_LOG_HEADER:
        raise ValueError("bad event log header")
    out = {ch: [] for ch in CHANNELS.values()}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 6:
            raise ValueError(f"bad event log record: {ln!r}")
        ch, s, e, p, cs, ce = parts
        if ch not in out:
            raise ValueError(f"unknown event channel: {ch!r}")
        ev = Event(ch, int(s), int(e), float(p), int(cs), int(ce))
        if ev.end_epoch < ev.start_epoch or (out[ch] and ev.start_epoch <= out[ch][-1].end_epoch):
            raise ValueError(f"{ch} spans not sorted and disjoint at record: {ln!r}")
        out[ch].append(ev)
    return out


def format_epochs_csv(epochs: dict) -> str:
    """CSV export: header ``epoch,depth,color,audio``, one row per second."""
    d, c, a = (np.asarray(epochs[ch]).tolist() for ch in CHANNELS)
    if not len(d) == len(c) == len(a):
        raise ValueError("epoch series lengths differ")
    rows = map("%d,%d,%d,%d".__mod__, zip(range(len(d)), d, c, a))
    return "\n".join(["epoch," + ",".join(CHANNELS), *rows]) + "\n"
