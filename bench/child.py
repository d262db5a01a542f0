"""Run one step of a benchmark operation in a fresh interpreter.

    python3 bench/child.py RESULT_JSON cli [--trace] -- SLEEPMON_ARGS...
    python3 bench/child.py RESULT_JSON setup-session SESSION_DIR
    python3 bench/child.py RESULT_JSON setup-scenario SCENARIO_FILE

``cli`` runs one ``sleepmon`` command through ``sleepmon.cli.main`` and
times it from after the import to the return, which for ``detect`` spans
``load_session`` to the last file written.  ``--trace`` wraps the layers
first (see ``spans.py``).  The ``setup-*`` modes time the set-up a run pays
before its first frame: ``import sleepmon`` plus ``load_session`` and
``scoring.make_models``, or plus ``synth.read_scenario``.

The result JSON holds the exit code, the timings in seconds, the peak
resident set of this process in MB and, when traced, the span tallies.
sleepmon must be importable (the caller puts ``src`` on ``PYTHONPATH``).
"""

import json
import resource
import sys
import time


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(args):
    traced = args[:1] == ["--trace"]
    if traced:
        args = args[1:]
    if args[:1] != ["--"]:
        raise SystemExit("child.py cli: expected -- before the sleepmon arguments")
    t0 = time.perf_counter()
    from sleepmon import cli
    import_s = time.perf_counter() - t0
    tracer = None
    if traced:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    t1 = time.perf_counter()
    try:
        rc = cli.main(args[1:])
    except SystemExit as exc:       # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    main_s = time.perf_counter() - t1
    sys.stdout.flush()
    result = {"rc": rc, "import_s": import_s, "main_s": main_s, "rss_mb": _peak_rss_mb()}
    if tracer is not None:
        result["trace"] = tracer.summary()
    return result


def run_setup(mode, path):
    t0 = time.perf_counter()
    import sleepmon  # noqa: F401  (the import is part of what is timed)
    if mode == "setup-session":
        from sleepmon import scoring, session
        scoring.make_models(session.load_session(path))
    else:
        from sleepmon import synth
        synth.read_scenario(path)
    return {"rc": 0, "setup_s": time.perf_counter() - t0, "rss_mb": _peak_rss_mb()}


def main(argv):
    result_path, mode, rest = argv[0], argv[1], argv[2:]
    if mode == "cli":
        result = run_cli(rest)
    elif mode in ("setup-session", "setup-scenario"):
        result = run_setup(mode, rest[0])
    else:
        raise SystemExit(f"child.py: unknown mode {mode!r}")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if result["rc"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
