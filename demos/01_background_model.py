"""
Adaptive background modeling on a noisy depth scene
====================================================

A per-pixel Gaussian mixture learns a static scene, shrugs off sensor noise,
and flags a sudden depth change immediately.  This walks the model through
three phases and prints what the foreground mask reports in each.
"""

import numpy as np

from sleepmon.background import BackgroundModel, morph_smooth
from sleepmon.config import Config

rng = np.random.default_rng(1)
H = W = 80
scene = np.full((H, W), 1000.0)  # a flat bed surface, 1000 depth units away


def observe(step=False):
    frame = scene + rng.normal(0, 2.0, (H, W))
    if step:
        frame[20:50, 20:50] += 25.0  # something moved closer in this region
    return np.rint(frame).astype(np.float32)


# Config() holds the default mixture parameters of both channels; the model
# picks the depth initial variance because it models the depth channel.
model = BackgroundModel(Config(), observe(), channel="depth")

# Phase 1: learn. The first observation seeds the model, a few hundred more
# frames tighten the per-pixel variance around the true surface.
for _ in range(400):
    model.update_and_classify(observe())
print("after 400 frames of learning:")
print(f"  mean learned depth : {model.means[:, :, 0].mean():7.1f}")
print(f"  mean learned sigma : {np.sqrt(model.variances[:, :, 0]).mean():7.2f}")

# Phase 2: steady state. Noise alone should leave the mask almost empty,
# and the little that leaks through is speckle the smoothing wipes out.
raw_rates, smooth_rates = [], []
for _ in range(200):
    mask = model.update_and_classify(observe())
    raw_rates.append(mask.mean())
    smooth_rates.append(morph_smooth(mask).mean())
print("steady state over 200 frames:")
print(f"  raw foreground rate      : {np.mean(raw_rates) * 100:.4f} %")
print(f"  smoothed foreground rate : {np.mean(smooth_rates) * 100:.4f} %")

# Phase 3: a real change. A 30x30 block jumps 25 depth units; the mask
# should light up that block and nothing else on the very next frame.
mask = morph_smooth(model.update_and_classify(observe(step=True)))
inside = mask[20:50, 20:50].mean()
outside = mask.sum() - mask[20:50, 20:50].sum()
print("one frame after a 30x30 step change:")
print(f"  flagged inside the block : {inside * 100:.1f} %")
print(f"  flagged pixels elsewhere : {outside}")
