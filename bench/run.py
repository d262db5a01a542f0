"""sleepmon benchmark: detect and generate throughput at paper and desk scale.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; sleepmon is imported from ``src``.
The workload's inputs are generated from the seed under ``.bench_work/``
and deleted at exit.  Operations run as a closed loop, one at a time, each
step in a fresh ``python3`` process at the default ``workers=1``: one untimed
warm-up operation, then operations until ``--seconds`` have passed.  An
operation runs the main command once and ``report`` ``REPORT_REPEATS``
times, then takes ``SETUPS_PER_OP`` set-up samples; a run takes at least
``SETUP_SAMPLES``.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` operations alternate between untraced and traced and the last
line reports the per-layer metrics.  Every operation's output is checked;
see ``bench/README.md`` for the metrics, checks and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("detect_paper", "detect_desk", "generate_paper")
# Sub-second steps are repeated so that their medians rest on more samples.
REPORT_REPEATS = 4
SETUPS_PER_OP = 2
SETUP_SAMPLES = 6
STEP_TIMEOUT_S = 100
# Stop starting operations after this long so that a run ends within 180 s.
LAST_START_S = 110
COMPARE_TOLERANCE = 2
DETECT_OUTPUTS = ("events.log", "scores.csv", "epochs.csv", "report.txt")

# Spans each workload must record; see bench/README.md.
DETECT_SPANS = {
    "cli.detect", "cli.report", "session.load_session", "session.frame_read",
    "session.crop_roi", "background.update_depth", "background.update_luma",
    "background.luma", "background.morph_smooth", "background.foreground_area",
    "scoring.make_models", "scoring.score_session", "scoring.audio",
    "scoring.format_scores_csv", "scoring.parse_scores_csv", "events.run_detector",
    "events.epochize", "events.detect_events", "events.epoch_peaks",
    "events.format_epochs_csv", "events.format_event_log", "events.parse_event_log",
    "analysis.classify_epochs", "analysis.build_report",
}
# ``report`` scores Cole and Sadeh only on recordings of at least a minute.
ACTIGRAPHY_SPANS = {"actigraphy.counts_from_scores", "actigraphy.cole_sleep_wake",
                    "actigraphy.sadeh_sleep_wake"}
GENERATE_SPANS = {
    "cli.generate", "cli.report", "synth.read_scenario", "synth.generate", "synth.frames",
    "session.write_session", "session.validate_session", "session.frame_read",
    "session.load_session", "events.format_event_log", "scoring.parse_scores_csv",
    "events.parse_event_log", "events.epoch_peaks", "analysis.classify_epochs",
    "analysis.build_report",
}


class OpFailed(Exception):
    """An operation exited non-zero, raised, or produced a wrong output."""


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_report(path: Path) -> dict:
    pairs = (line.split("=", 1) for line in path.read_text(encoding="utf-8").splitlines() if line)
    return {k: v for k, v in pairs}


def check_efficiency(report_txt: Path) -> None:
    """report.txt efficiency must equal (tiny% + calm%) / 100.

    The three values are printed rounded (4, 2 and 2 decimals), so they may
    differ by at most the sum of the three half-units.
    """
    r = read_report(report_txt)
    eff = float(r["sleep_efficiency"])
    expected = (float(r["tiny_movements_pct"]) + float(r["calmness_pct"])) / 100.0
    if abs(eff - expected) > 0.5e-4 + 2 * 0.5e-4 + 1e-12:
        raise OpFailed(f"sleep_efficiency={eff} but (tiny+calm)/100={expected:.6f}")


class Runner:
    """Runs the operations of one workload over one set of inputs."""

    def __init__(self, workload: str, inputs, workdir: Path):
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.reference_hashes = None
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self._steps = 0

    def step(self, mode: str, args: list, traced: bool = False) -> dict:
        """Run child.py in a fresh process and return its result JSON."""
        self._steps += 1
        result_path = self.workdir / f"step{self._steps}.json"
        cmd = [sys.executable, str(BENCH / "child.py"), str(result_path), mode]
        if mode == "cli":
            cmd += (["--trace"] if traced else []) + ["--"]
        cmd += args
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=STEP_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise OpFailed(f"{' '.join(args[:1])} timed out after {STEP_TIMEOUT_S}s") from exc
        if proc.returncode != 0 or not result_path.is_file():
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
            raise OpFailed(f"{mode} {' '.join(args[:1])} exited {proc.returncode}: "
                           + " | ".join(tail))
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        return result

    def setup_sample(self):
        """Seconds of one set-up in a fresh process, or None if it failed."""
        mode = "setup-scenario" if self.inputs.kind == "scenario" else "setup-session"
        try:
            return self.step(mode, [str(self.inputs.path)])["setup_s"]
        except OpFailed as exc:
            self.errors.append(f"setup: {exc}")
            return None

    def attempt(self, traced: bool, reports: int):
        """Run and count one operation; returns None if it failed.

        A missing or malformed output file fails the operation like a failed
        check does.
        """
        self.attempted += 1
        try:
            return self.operation(traced, reports)
        except (OpFailed, OSError, KeyError, ValueError) as exc:
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None

    def operation(self, traced: bool, reports: int) -> dict:
        """One closed-loop operation: the main command, then ``reports`` reports.

        Raises OpFailed on any failed check.
        """
        if self.workload == "generate_paper":
            return self._generate_op(traced, reports)
        return self._detect_op(traced, reports)

    def _detect_op(self, traced: bool, reports: int) -> dict:
        session = self.inputs.path
        out = self.workdir / "detect"
        shutil.rmtree(out, ignore_errors=True)
        det = self.step("cli", ["detect", "--session", str(session), "--out", str(out)], traced)
        reps = self._reports(session, out, traced, reports)
        self._compare(out / "events.log", session / "groundtruth.log")
        check_efficiency(out / "report.txt")
        self._check_hashes({name: sha256(out / name) for name in DETECT_OUTPUTS})
        return {"main": det, "reports": reps, "stream_bytes": stream_bytes(session)}

    def _generate_op(self, traced: bool, reports: int) -> dict:
        out = self.workdir / "generated"
        detect_dir = self.workdir / "detect"
        shutil.rmtree(out, ignore_errors=True)
        gen = self.step("cli", ["generate", "--scenario", str(self.inputs.path),
                                "--out", str(out)], traced)
        if not detect_dir.is_dir():
            # The report reads a detection of this same session, made once per run.
            self.step("cli", ["detect", "--session", str(out), "--out", str(detect_dir)])
        reps = self._reports(out, detect_dir, traced, reports)
        check_efficiency(detect_dir / "report.txt")
        hashes = {p.name: sha256(p) for p in sorted(out.iterdir())}
        hashes["report.txt"] = sha256(detect_dir / "report.txt")
        nbytes = stream_bytes(out)
        shutil.rmtree(out)    # no dirty pages pile up across operations
        self._check_hashes(hashes)
        return {"main": gen, "reports": reps, "stream_bytes": nbytes}

    def _reports(self, session: Path, detect_dir: Path, traced: bool, n: int) -> list:
        args = ["report", "--session", str(session), "--detect", str(detect_dir)]
        return [self.step("cli", args, traced) for _ in range(n)]

    def _compare(self, events_log: Path, truth: Path) -> None:
        from sleepmon import cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["compare", "--events", str(events_log), "--truth", str(truth),
                           "--tolerance", str(COMPARE_TOLERANCE)])
        if rc != 0:
            raise OpFailed("compare against groundtruth.log failed: "
                           + " ".join(buf.getvalue().split()))

    def _check_hashes(self, hashes: dict) -> None:
        if self.reference_hashes is None:
            self.reference_hashes = hashes
        elif hashes != self.reference_hashes:
            drift = sorted(k for k in hashes if hashes[k] != self.reference_hashes.get(k))
            raise OpFailed(f"outputs differ from the first operation: {drift}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stream_bytes(session: Path) -> int:
    return sum(p.stat().st_size for p in session.iterdir() if p.suffix == ".raw")


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(runner: Runner, args, t_start: float):
    """The warm-up, then the closed loop; returns (operations, set-up samples).

    Each operation is ``(traced, result)``.  With ``--trace 1`` operations
    alternate untraced and traced, at least one of each.
    """
    runner.attempt(False, 1)    # warm-up: untimed, but checked and counted
    ops, setups = [], []
    t_loop = time.monotonic()
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        t_op = time.monotonic()
        # A traced operation reports once, so its spans hold one main
        # command and one report.
        op = runner.attempt(traced, 1 if traced else REPORT_REPEATS)
        if op is not None:
            ops.append((traced, op))
        setups += [runner.setup_sample() for _ in range(SETUPS_PER_OP)]
        took = time.monotonic() - t_op
        i += 1
        if args.trace and i < 2:
            continue
        # Start another operation only if it is expected to end closer to
        # --seconds than stopping now would.
        if time.monotonic() - t_loop + 0.5 * took >= args.seconds:
            break
        if time.monotonic() - t_start > LAST_START_S:
            break
    while len(setups) < SETUP_SAMPLES and time.monotonic() - t_start < LAST_START_S:
        setups.append(runner.setup_sample())
    return ops, [s for s in setups if s is not None]


def end_to_end(plain: list, setups: list, frames: int) -> dict:
    return {
        "fps": (median([frames / op["main"]["main_s"] for op in plain]), "frames/s"),
        "report_s": (median([r["main_s"] for op in plain for r in op["reports"]]), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median([op["main"]["rss_mb"] for op in plain]), "MB"),
    }


def per_layer(runner: Runner, plain: list, traced_ops: list, frames: int,
              nbytes: int) -> dict:
    """Per-layer metrics of the traced operations; prints the span lists."""
    import spans
    trace = spans.merge(step["trace"] for op in traced_ops
                        for step in [op["main"]] + op["reports"])
    expected = set(GENERATE_SPANS if runner.workload == "generate_paper" else DETECT_SPANS)
    if frames >= 60 * 30:
        expected |= ACTIGRAPHY_SPANS
    values, missing, not_applicable = spans.layer_metrics(
        trace, expected, max(len(traced_ops), 1), frames)
    values["session.stream_mb"] = (nbytes / 1e6, "MB")
    untraced_s = median([op["main"]["main_s"] for op in plain])
    traced_s = median([op["main"]["main_s"] for op in traced_ops])
    overhead = 100.0 * (traced_s - untraced_s) / untraced_s if untraced_s else 0.0
    values["trace.overhead_pct"] = (overhead, "%")

    zero = values["background.update_depth.zero_px_fraction"][0]
    if runner.workload == "detect_paper" and not zero > 0:
        runner.errors.append("detect_paper recorded no zero-depth pixels")
    if runner.workload == "detect_desk" and zero != 0:
        runner.errors.append(f"detect_desk recorded zero-depth pixels ({zero})")
    print(f"missing_spans = {json.dumps(missing)}")
    print(f"missing_sites = {json.dumps(trace['missing_sites'])}")
    print(f"not_applicable = {json.dumps(not_applicable)}")
    return values


def run(args) -> int:
    t_start = time.monotonic()
    sys.path.insert(0, str(SRC))
    import numpy
    import inputs

    load_before = os.getloadavg()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        t_gen = time.monotonic()
        inp = inputs.make_inputs(args.workload, args.seed, workdir)
        gen_s = time.monotonic() - t_gen
        runner = Runner(args.workload, inp, workdir)
        ops, setups = measure(runner, args, t_start)

        frames = inp.frame_count
        plain = [op for traced, op in ops if not traced]
        traced_ops = [op for traced, op in ops if traced]
        nbytes = ops[0][1]["stream_bytes"] if ops else 0
        if args.trace:
            values = per_layer(runner, plain, traced_ops, frames, nbytes)
        else:
            values = end_to_end(plain, setups, frames)

        for name, (value, unit) in values.items():
            print(f"{name} = {value:.6g} {unit}")
        print(f"error_rate = {runner.failed / runner.attempted:.6g} "
              f"({runner.failed} failed / {runner.attempted} attempted)")
        for err in runner.errors:
            print(f"error: {err}")
        print(f"hashes = {json.dumps(runner.reference_hashes, sort_keys=True)}")
        env = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
            "frame_size": inp.frame_size, "roi": inp.roi, "frame_count": frames,
            "stream_bytes": nbytes, "hole_px": inp.hole_px,
            "operations": {"warmup": 1, "measured": len(plain), "traced": len(traced_ops),
                           "failed": runner.failed},
            "samples_s": {
                "main": [round(op["main"]["main_s"], 4) for op in plain],
                "traced_main": [round(op["main"]["main_s"], 4) for op in traced_ops],
                "report": [round(r["main_s"], 4) for op in plain for r in op["reports"]],
                "setup": [round(v, 4) for v in setups]},
            "input_generation_s": round(gen_s, 3),
            "run_wall_s": round(time.monotonic() - t_start, 3),
        }
        print(f"env = {json.dumps(env)}")
        print(json.dumps({
            "correct": not runner.errors and bool(ops),
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()    # only if no other run is using it


def _terminate(signum, frame):
    # Raising here lets subprocess.run kill and reap the running child, and
    # the run's finally block delete its inputs.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "sleepmon" / "__init__.py").is_file():
        print(f"error: no sleepmon sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
