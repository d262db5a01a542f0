"""
Why the camera and the wrist disagree about restless sleep
==========================================================

Cole and Sadeh score per-minute activity counts: any steady stream of small
movements reads as wakefulness.  The camera pipeline files the same small
movements under tiny movements, which count as sleep.  This builds two
activity patterns and shows the three efficiencies side by side: each
scorer's efficiency is the sleeping fraction of its minutes, as
``analysis.sleep_report`` computes it.
"""

import numpy as np

from sleepmon import actigraphy

minutes = 60

# Pattern A: restless. A small twitch lands in almost every minute.
rng = np.random.default_rng(3)
restless = rng.integers(200, 700, minutes)
restless[rng.choice(minutes, 10, replace=False)] = 0

# Pattern B: settled. Motion only in the first minutes, then stillness.
settled = np.zeros(minutes, np.int64)
settled[:5] = (900, 500, 300, 120, 40)

for name, counts, camera_eff in (("restless night", restless, 0.81),
                                 ("settled night", settled, 0.94)):
    cole = 1.0 - actigraphy.cole_sleep_wake(counts).mean()
    sadeh = 1.0 - actigraphy.sadeh_sleep_wake(counts).mean()
    print(f"{name}:")
    print(f"  camera pipeline : {camera_eff:6.1%}")
    print(f"  cole            : {cole:6.1%}   (|diff| {abs(camera_eff - cole):.2f})")
    print(f"  sadeh           : {sadeh:6.1%}   (|diff| {abs(camera_eff - sadeh):.2f})")
    print()

print("the restless night diverges: wrist-style scoring calls nearly every")
print("minute wake, while the pipeline counts tiny movements as sleep.")
