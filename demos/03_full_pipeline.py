"""
End-to-end: synthesize a night, detect events, build the sleep report
======================================================================

Generates a two-minute scenario with one posture change, a light toggle,
and a stretch of talking, runs the full detector, and builds the report with
``analysis.sleep_report``, the same call ``sleepmon report`` makes: it
classifies every epoch and scores the two minutes with Cole and Sadeh.  The
table printed is ``report.txt`` as the pipeline writes it for real sessions.
"""

from sleepmon import analysis, events, synth

scenario = synth.Scenario(duration=120, seed=20, timeline=(
    synth.TimelineItem(20, 23, synth.FULL_TURN, 0.5),
    synth.TimelineItem(40, 42, synth.LIGHT_ON, 0.5),
    synth.TimelineItem(70, 72, synth.LIGHT_OFF, 0.5),
    synth.TimelineItem(90, 94, synth.TALK, 0.5),
    synth.TimelineItem(100, 103, synth.TINY_TWITCH, 0.5),
))
session, truth = synth.generate(scenario)
result = events.run_detector(session)

print("detected events:")
for channel in ("motion", "light", "noise"):
    for ev in result.events[channel]:
        print(f"  {channel:6s} seconds {ev.start_epoch}..{ev.end_epoch} "
              f"peak {ev.peak_score:.3f} clip [{ev.clip_start}, {ev.clip_end}]")

print("\nscripted ground truth:")
for channel, expected in truth.events.items():
    print(f"  {channel:6s} {[(ev.start_epoch, ev.end_epoch) for ev in expected]}")

report = analysis.sleep_report(result.scores["depth"], result.events["light"],
                               result.events["noise"], scenario.video_rate)

print("\nsleep report:")
print(analysis.format_report(report))
