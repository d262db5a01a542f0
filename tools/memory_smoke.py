"""Bounded-memory smoke check: peak RSS of ``generate``, ``detect`` and ``report`` must not follow the night's length.

It runs ``python -m sleepmon generate``, then ``detect`` and then ``report``
on a 5-minute and on a 30-minute 48x48 scenario, each step in a fresh
process, and reads each step's peak resident set size from ``wait4``.  A
step fails when its 30-minute peak exceeds its 5-minute peak by more than
``MAX_BYTES_PER_FRAME`` for each extra frame.  Run it from anywhere:

    python3 tools/memory_smoke.py [--workdir DIR]

The sessions are written under ``--workdir`` (a temporary directory by
default, removed at the end); the 30-minute one takes about 0.7 GB.  The
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
MINUTES = (5, 30)
VIDEO_RATE = 30
MAX_BYTES_PER_FRAME = 500
WRITE_SCENARIO = (
    "import sys\n"
    "from sleepmon.synth import Scenario, write_scenario\n"
    "write_scenario(Scenario(duration=int(sys.argv[1]), seed=1, frame_width=48,\n"
    "                        frame_height=48, roi=(8, 8, 32, 32)), sys.argv[2])\n")


def peak_rss(cmd: list[str], env: dict) -> int:
    """Run ``cmd`` to completion and return its peak RSS in bytes; a failed run exits."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return usage.ru_maxrss * 1024       # Linux reports kilobytes


def measure(workdir: Path) -> dict[tuple[str, int], int]:
    """Peak RSS in bytes of each (step, minutes)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    py = sys.executable
    peaks = {}
    for minutes in MINUTES:
        night = workdir / f"{minutes}min"
        night.mkdir(parents=True)
        scenario, session = night / "scenario.txt", night / "session"
        subprocess.run([py, "-c", WRITE_SCENARIO, str(60 * minutes), str(scenario)],
                       env=env, check=True)
        peaks["generate", minutes] = peak_rss(
            [py, "-m", "sleepmon", "generate", "--scenario", str(scenario),
             "--out", str(session)], env)
        peaks["detect", minutes] = peak_rss(
            [py, "-m", "sleepmon", "detect", "--session", str(session),
             "--out", str(night / "detect")], env)
        peaks["report", minutes] = peak_rss(
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
    short, long = MINUTES
    extra_frames = 60 * (long - short) * VIDEO_RATE
    ok = True
    for step in ("generate", "detect", "report"):
        growth = (peaks[step, long] - peaks[step, short]) / extra_frames
        within = growth <= MAX_BYTES_PER_FRAME
        ok &= within
        print(f"{step}: peak RSS {peaks[step, short] / 1e6:.1f} MB at {short} min, "
              f"{peaks[step, long] / 1e6:.1f} MB at {long} min: {growth:.0f} bytes per "
              f"extra frame (limit {MAX_BYTES_PER_FRAME}) {'ok' if within else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
