"""Actigraphy-style sleep/wake scoring for cross-checking the sleep report.

The pipeline has no wrist device, so per-minute activity counts are derived
from the depth score series as a proxy: each minute sums the frame scores'
excess over the tiny-movement threshold, scaled by 1000 and rounded.  Reports
that quote Cole or Sadeh efficiencies are therefore comparisons against this
proxy, not against a physical actigraph.

Both scorers use one-minute epochs with zero padding outside the recording,
and return one wake flag per minute; ``analysis.sleep_report`` turns the
flags into the sleeping fraction it reports beside the camera's efficiency.

Notes
-----
Cole et al. weighted window for one-minute epochs::

    D = 0.001 * (106 A[t-4] + 54 A[t-3] + 58 A[t-2] + 76 A[t-1]
                 + 230 A[t] + 74 A[t+1] + 67 A[t+2])

with sleep scored when D < 1.

Sadeh probability-of-sleep::

    PS = 7.601 - 0.065 MW5 - 1.08 NAT - 0.056 SD6 - 0.703 LG

where MW5 is the mean over the 11-minute window t-5..t+5, NAT counts minutes
in that window with 50 <= A < 100, SD6 is the sample standard deviation over
t-5..t, and LG = ln(A[t] + 1); sleep is scored when PS >= 0.

References
----------
Cole, R. J., Kripke, D. F., Gruen, W., Mullaney, D. J., & Gillin, J. C.
(1992). Automatic Sleep/Wake Identification From Wrist Activity.
Sleep, 15(5), 461-469.

Sadeh, A., Sharkey, M., & Carskadon, M. A. (1994). Activity-Based
Sleep-Wake Identification: An Empirical Test of Methodological Issues.
Sleep, 17(3), 201-207.
"""

from __future__ import annotations

import numpy as np

from .config import Config
from .events import per_epoch

COLE_SCALE = 0.001
COLE_WEIGHTS = (106.0, 54.0, 58.0, 76.0, 230.0, 74.0, 67.0)  # offsets -4..+2
SADEH_OFFSET = 7.601
SADEH_MEAN_W = 0.065
SADEH_NAT_W = 1.08
SADEH_SD_W = 0.056
SADEH_LOG_W = 0.703


def counts_from_scores(depth_scores, video_rate: int,
                       tiny_threshold: float = Config.class_tiny) -> np.ndarray:
    """Per-minute activity counts from the depth score series.

    count[m] = round(1000 * sum over the minute of max(score - threshold, 0));
    a final partial minute is dropped.
    """
    minutes = per_epoch(depth_scores, 60 * video_rate)
    if len(minutes) == 0:
        raise ValueError("session shorter than one minute; cannot derive activity counts")
    excess = np.maximum(np.asarray(minutes, np.float64) - tiny_threshold, 0.0)
    return np.rint(1000.0 * excess.sum(axis=1)).astype(np.int64)


def cole_sleep_wake(counts) -> np.ndarray:
    """Cole weighted-window scoring; True per minute means wake."""
    a = np.asarray(counts, np.float64)
    n = len(a)
    if n == 0:
        raise ValueError("empty activity counts")
    padded = np.concatenate([np.zeros(4), a, np.zeros(2)])
    d = np.zeros(n, np.float64)
    for k, weight in enumerate(COLE_WEIGHTS):
        d += weight * padded[k:k + n]
    d *= COLE_SCALE
    return d >= 1.0


def sadeh_sleep_wake(counts) -> np.ndarray:
    """Sadeh probability-of-sleep scoring; True per minute means wake."""
    a = np.asarray(counts, np.float64)
    n = len(a)
    if n == 0:
        raise ValueError("empty activity counts")
    pad11 = np.concatenate([np.zeros(5), a, np.zeros(5)])
    win11 = np.lib.stride_tricks.sliding_window_view(pad11, 11)
    mean_w5 = win11.mean(axis=1)
    nat = ((win11 >= 50.0) & (win11 < 100.0)).sum(axis=1)
    pad6 = np.concatenate([np.zeros(5), a])
    win6 = np.lib.stride_tricks.sliding_window_view(pad6, 6)
    sd6 = win6.std(axis=1, ddof=1)
    log_act = np.log(a + 1.0)
    ps = (SADEH_OFFSET - SADEH_MEAN_W * mean_w5 - SADEH_NAT_W * nat
          - SADEH_SD_W * sd6 - SADEH_LOG_W * log_act)
    return ps < 0.0
