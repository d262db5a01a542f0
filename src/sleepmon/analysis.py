"""Epoch classification, the sleep/wake rule, and report building.

Every epoch gets exactly one of five motion classes from its peak depth
score: calmness, tiny movement, limb movement, and full posture change are
split by three increasing thresholds (intervals are lower-inclusive), and an
out-of-view overlay re-labels the span where the subject has left the scene.
The overlay is a small state machine: a very large spike (peak >= exit
threshold) followed by a sustained near-zero run marks the subject as out of
view from the first near-zero epoch until the next very large spike; the
return spike itself keeps its baseline class.

Full posture changes, limb movements, and out-of-view count as wakefulness;
tiny movements and calmness count as sleep.  Sleep efficiency is the sleeping
fraction of all epochs in bed.

The thresholds and the overlay's quiet-run length are the ``class_*`` fields
of ``config.Config``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .config import Config


class EpochClass(enum.Enum):
    FULL_POSTURE_CHANGE = "full_posture_change"
    LIMB_MOVEMENT = "limb_movement"
    TINY_MOVEMENT = "tiny_movement"
    CALMNESS = "calmness"
    OUT_OF_VIEW = "out_of_view"


WAKE_CLASSES = frozenset({EpochClass.FULL_POSTURE_CHANGE, EpochClass.LIMB_MOVEMENT,
                          EpochClass.OUT_OF_VIEW})


def classify_epochs(peaks, config: Config | None = None) -> list[EpochClass]:
    """Classify per-epoch peak depth scores into the five motion classes.

    The boundaries are the ``class_*`` fields of ``config`` (default ``Config()``).
    """
    c = config if config is not None else Config()
    p = np.asarray(peaks, np.float64)
    n = len(p)
    classes = []
    for v in p:
        if v < c.class_tiny:
            classes.append(EpochClass.CALMNESS)
        elif v < c.class_limb:
            classes.append(EpochClass.TINY_MOVEMENT)
        elif v < c.class_full:
            classes.append(EpochClass.LIMB_MOVEMENT)
        else:
            classes.append(EpochClass.FULL_POSTURE_CHANGE)

    # Out-of-view overlay: an exit spike whose next min_absent_epochs epochs
    # are all sub-absent marks the subject as gone from the first sub-absent
    # epoch until the next exit spike.  That closing spike (the return to
    # bed) keeps its baseline class and is consumed: quiet sleep right after
    # a return must not read as a fresh departure.
    i = 0
    while i < n:
        if p[i] >= c.class_exit:
            j = i + 1
            run = 0
            while (run < c.class_min_absent_epochs and j + run < n
                   and p[j + run] < c.class_absent):
                run += 1
            if run >= c.class_min_absent_epochs:
                e = j
                while e < n and p[e] < c.class_exit:
                    e += 1
                for t in range(j, e):
                    classes[t] = EpochClass.OUT_OF_VIEW
                i = e
                while i < n and p[i] >= c.class_exit:
                    i += 1
                continue
        i += 1
    return classes


def sleep_wake(classes) -> np.ndarray:
    """True per epoch means wakefulness."""
    return np.array([c in WAKE_CLASSES for c in classes], bool)


def sleep_efficiency(classes) -> float:
    """Sleeping fraction of all epochs (tiny movement and calmness)."""
    if len(classes) == 0:
        raise ValueError("cannot compute sleep efficiency of an empty session")
    wake = sleep_wake(classes)
    return 1.0 - (np.count_nonzero(wake) / len(wake))


@dataclass
class SleepReport:
    """Component breakdown, event coverage, and sleep efficiency."""

    full_pct: float
    limb_pct: float
    tiny_pct: float
    calm_pct: float
    out_of_view_pct: float
    light_pct: float
    noise_pct: float
    efficiency: float
    duration_seconds: int


def _coverage_pct(events, n_epochs: int) -> float:
    covered = sum(ev.end_epoch - ev.start_epoch + 1 for ev in events)
    return 100.0 * covered / n_epochs


def build_report(classes, light_events, noise_events, duration_seconds: int) -> SleepReport:
    """Percentages of each class and of epochs covered by light/noise events."""
    n = len(classes)
    if n == 0:
        raise ValueError("cannot build a report from zero epochs")
    count = {c: 0 for c in EpochClass}
    for c in classes:
        count[c] += 1
    pct = {c: 100.0 * count[c] / n for c in EpochClass}
    return SleepReport(
        full_pct=pct[EpochClass.FULL_POSTURE_CHANGE],
        limb_pct=pct[EpochClass.LIMB_MOVEMENT],
        tiny_pct=pct[EpochClass.TINY_MOVEMENT],
        calm_pct=pct[EpochClass.CALMNESS],
        out_of_view_pct=pct[EpochClass.OUT_OF_VIEW],
        light_pct=_coverage_pct(light_events, n),
        noise_pct=_coverage_pct(noise_events, n),
        efficiency=sleep_efficiency(classes),
        duration_seconds=duration_seconds,
    )


def format_report(report: SleepReport, cole_efficiency: float | None = None,
                  sadeh_efficiency: float | None = None) -> str:
    """Text export mirroring the report columns; percentages use two decimals."""
    def eff(v):
        return "n/a" if v is None else f"{v:.4f}"

    lines = [
        f"full_posture_changes_pct={report.full_pct:.2f}",
        f"limb_movements_pct={report.limb_pct:.2f}",
        f"tiny_movements_pct={report.tiny_pct:.2f}",
        f"calmness_pct={report.calm_pct:.2f}",
        f"out_of_view_pct={report.out_of_view_pct:.2f}",
        f"light_event_pct={report.light_pct:.2f}",
        f"noise_event_pct={report.noise_pct:.2f}",
        f"sleep_efficiency={report.efficiency:.4f}",
        f"cole_sleep_efficiency={eff(cole_efficiency)}",
        f"sadeh_sleep_efficiency={eff(sadeh_efficiency)}",
        f"duration_seconds={report.duration_seconds}",
    ]
    return "\n".join(lines) + "\n"
