"""
Scenario presets and plot-ready exports
=======================================

The three presets script the evaluation protocols: a ten-minute posture
change test, an hour of trouble sleeping, and a settled night.  This runs
the shortest one end to end, checks detection against the scripted ground
truth, and writes the score series as CSV for plotting with any tool.
"""

from pathlib import Path

from sleepmon import events, scoring, synth

out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)

scenario = synth.preset("posture_test")
print(f"posture_test: {scenario.duration}s, items:")
for item in scenario.timeline:
    print(f"  {item.start:4d}..{item.end:<4d} {item.kind} (magnitude {item.magnitude})")

session, truth = synth.generate(scenario)
result = events.run_detector(session)

print("\nscripted turns    :", [(e.start_epoch, e.end_epoch) for e in truth.events["motion"]])
print("detected motion   :", [(e.start_epoch, e.end_epoch) for e in result.events["motion"]])
print("light/noise events:", len(result.events["light"]), "/", len(result.events["noise"]))

csv_path = out_dir / "posture_test_scores.csv"
csv_path.write_text(scoring.format_scores_csv(result.scores))
print(f"\nwrote {csv_path} - plot the depth column to see four activity bursts")

log_path = out_dir / "posture_test_events.log"
log_path.write_text(events.format_event_log(result.events))
print(f"wrote {log_path}")
