"""Bounded-memory smoke check: peak RSS of ``generate``, ``detect`` and ``report`` must not follow the night's length.

It runs ``python -m sleepmon generate``, then ``detect`` and then ``report``
on a short and a long night of each geometry, each step ``RUNS`` times in a
fresh process, and reads each run's peak resident set size from ``wait4``;
a step's peak on a night is the median of its runs.  The nights are 5 and
30 minutes of 48x48 frames at 30 fps, and 120 and 240 s of the sensor's
640x480 frames at 2 fps with the paper's 320x350 roi.  A step fails when its
long-night peak exceeds its short-night peak by more than
``MAX_BYTES_PER_FRAME`` for each extra frame.  Run it from anywhere:

    python3 tools/memory_smoke.py [--workdir DIR]

The sessions are written under ``--workdir`` (a temporary directory by
default, removed at the end), and each is deleted before the next is
written; the largest, the 240 s 640x480 night, takes about 0.74 GB.  The
exit status is 0 when every step stays in bounds, 1 otherwise.  numpy is not
imported here, so the runner's own RSS stays below the steps' peaks (a
child's ``ru_maxrss`` starts at its parent's resident size at ``fork``).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# geometry: (frame width, frame height, roi, video rate, short and long night in seconds)
# The 640x480 nights are short, so that the largest session stays at 0.74 GB.
# Their 240 extra frames allow 120 kB of growth: a leak of 4 kB per written
# frame fails that step, while one of 1 kB fits in the freed heap space below
# its peak and is caught by the 48x48 pair, with 45 000 extra frames.
# ``write_session`` writes the audio one second at a time, so the audio adds
# no block that depends on the night's length.
NIGHTS = {
    "48x48": (48, 48, (8, 8, 32, 32), 30, (300, 1800)),
    "640x480": (640, 480, (160, 65, 320, 350), 2, (120, 240)),
}
MAX_BYTES_PER_FRAME = 500
# Runs of each step on each night.  With two threads the 640x480 ``generate``
# peak swings by 0.1-0.4 MB from run to run, more than the 120 kB allowance;
# the median of three narrows that, though not below it: four runs of this
# check read -512 to 427 bytes per extra frame there (2-vCPU Xeon).
RUNS = 3
WRITE_SCENARIO = (
    "import sys\n"
    "from sleepmon.synth import Scenario, write_scenario\n"
    "duration, fw, fh, x, y, w, h, rate = map(int, sys.argv[1:9])\n"
    "write_scenario(Scenario(duration=duration, seed=1, frame_width=fw, frame_height=fh,\n"
    "                        roi=(x, y, w, h), video_rate=rate), sys.argv[9])\n")


def peak_rss(cmd: list[str], env: dict) -> int:
    """Run ``cmd`` to completion and return its peak RSS in bytes; a failed run exits."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return usage.ru_maxrss * 1024       # Linux reports kilobytes


def median_peak(cmd: list[str], env: dict) -> int:
    """The median peak RSS in bytes of ``RUNS`` runs of ``cmd``."""
    return sorted(peak_rss(cmd, env) for _ in range(RUNS))[RUNS // 2]


def measure(workdir: Path) -> dict[tuple[str, str, int], int]:
    """Median peak RSS in bytes of each (step, geometry, night length in seconds)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    py = sys.executable
    peaks = {}
    for geometry, (fw, fh, roi, rate, seconds) in NIGHTS.items():
        for duration in seconds:
            night = workdir / f"{geometry}-{duration}s"
            night.mkdir(parents=True)
            scenario, session = night / "scenario.txt", night / "session"
            subprocess.run([py, "-c", WRITE_SCENARIO,
                            *map(str, (duration, fw, fh, *roi, rate)), str(scenario)],
                           env=env, check=True)
            peaks["generate", geometry, duration] = median_peak(
                [py, "-m", "sleepmon", "generate", "--scenario", str(scenario),
                 "--out", str(session)], env)
            peaks["detect", geometry, duration] = median_peak(
                [py, "-m", "sleepmon", "detect", "--session", str(session),
                 "--out", str(night / "detect")], env)
            peaks["report", geometry, duration] = median_peak(
                [py, "-m", "sleepmon", "report", "--session", str(session),
                 "--detect", str(night / "detect")], env)
            shutil.rmtree(session)
    return peaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", help="directory for the sessions (default: a temporary one)")
    args = parser.parse_args(argv)
    if args.workdir:
        peaks = measure(Path(args.workdir))
    else:
        with tempfile.TemporaryDirectory(prefix="sleepmon-memory-") as tmp:
            peaks = measure(Path(tmp))
    ok = True
    for geometry, (_, _, _, rate, (short, long)) in NIGHTS.items():
        extra_frames = (long - short) * rate
        for step in ("generate", "detect", "report"):
            low, high = peaks[step, geometry, short], peaks[step, geometry, long]
            growth = (high - low) / extra_frames
            within = growth <= MAX_BYTES_PER_FRAME
            ok &= within
            print(f"{geometry} {step}: peak RSS {low / 1e6:.1f} MB at {short} s, "
                  f"{high / 1e6:.1f} MB at {long} s: {growth:.0f} bytes per extra frame "
                  f"(limit {MAX_BYTES_PER_FRAME}) {'ok' if within else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
