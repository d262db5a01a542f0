"""
From frame scores to one-second epochs to events
================================================

Event detection happens on one-second epochs: count how many of the 30 frame
slots in each second scored above a threshold, then scan the counts.  A rise
starts an event, non-decreasing counts continue it, and the first drop ends
it (inclusively).  Zero-count epochs are imagined on both ends.
"""

import numpy as np

from sleepmon.events import detect_events, epochize

# Ten seconds of synthetic depth scores: quiet, then a movement that swells
# over three seconds, then a brief isolated twitch.
rng = np.random.default_rng(7)
scores = np.zeros(300)
scores[90:120] = 0.04    # second 3: smallish movement
scores[120:150] = 0.09   # second 4: grows
scores[150:180] = 0.06   # second 5: fading but still moving
scores[240:250] = 0.30   # second 8: short spike inside one second

counts = epochize(scores, threshold=0.02, frames_per_epoch=30)
print("per-second counts above threshold:", counts.tolist())

spans = detect_events(counts)
print("detected events (start..end, inclusive):")
for start, end in spans:
    print(f"  seconds {start}..{end}")

# The same scan by hand, for one sequence: outside an event a rise begins
# one; inside, it survives while the next count is at least as large.
walk = [0, 0, 2, 3, 3, 1, 0]
print(f"\nworked example {walk}: events -> {detect_events(walk)}")
print("   rise 0<2 starts at index 2; 2<=3, 3<=3 continue; 3>1 ends at 4")
