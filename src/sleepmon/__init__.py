"""Multimodal sleep monitoring from synchronized depth, color, and audio.

Dual per-pixel Gaussian-mixture background models turn depth and luma frames
into normalized activity scores, audio is scored by windowed RMS, and a
one-second epoch detector finds motion, light, and noise events.  Epoch
classification yields a component breakdown and sleep efficiency, with
Cole/Sadeh actigraphy scorers as cross-checks, plus a seeded scenario
synthesizer for ground-truthed end-to-end evaluation.
"""

__version__ = "0.1.0"
