"""The benchmark's trace sites still name functions the program has.

``bench/spans.py`` times layers by wrapping functions at the names listed in
its ``SITES`` table, and names the GMM spans from each model's ``channel``.
A refactor that folds or renames one of those functions silently drops a
per-layer metric, and one that imports a traced function by name hides its
calls from the wrapper; these checks make both fail here instead.  The
module is loaded read-only, and its tracer is installed only in a child
interpreter that runs ``sleepmon report``.
"""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

from conftest import build_session
from sleepmon.cli import main
from sleepmon.scoring import make_models
from sleepmon.synth import FULL_TURN, LIGHT_ON, TALK, Scenario, TimelineItem, write_scenario

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
SRC = Path(__file__).resolve().parents[1] / "src"

# Every span the bench reads off ``sleepmon report``, Cole and Sadeh included.
REPORT_SPANS = ("events.epoch_peaks", "analysis.classify_epochs", "analysis.build_report",
                "actigraphy.counts_from_scores", "actigraphy.cole_sleep_wake",
                "actigraphy.sadeh_sleep_wake", "scoring.parse_scores_csv",
                "events.parse_event_log")

# Runs ``sleepmon report`` under the bench's tracer and prints the calls per span.
TRACED_REPORT = """
import json, sys, types
from pathlib import Path
spans_py, session, detect = sys.argv[1:]
spans = types.ModuleType("bench_spans")
exec(compile(Path(spans_py).read_text(), spans_py, "exec"), spans.__dict__)
tracer = spans.Tracer()
tracer.install()
from sleepmon import cli
assert cli.main(["report", "--session", session, "--detect", detect]) == 0
print(json.dumps({name: st[0] for name, st in tracer.spans.items()}))
"""

# Sites the bench still lists but the program no longer has; the next
# benchmark change drops them and empties this set.
STALE_SITES = {"sleepmon.session.validate_session"}


def _load_spans():
    # Compiled from source, so no bytecode cache is written next to it.
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS_PY.read_text(), str(SPANS_PY), "exec"), module.__dict__)
    return module


def _resolves(module_name, path):
    try:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return False
    return callable(owner)


def test_every_trace_site_resolves_but_the_stale_one():
    spans = _load_spans()
    unresolved = {f"{module_name}.{path}"
                  for sites in spans.SITES.values()
                  for module_name, path in sites
                  if not _resolves(module_name, path)}
    assert unresolved == STALE_SITES


def test_models_name_the_per_channel_update_spans():
    spans = _load_spans()
    depth_model, luma_model = make_models(build_session())
    assert (depth_model.channel, luma_model.channel) == ("depth", "luma")
    layer_spans = {span for _, _, _, span in spans.LAYER_METRICS}
    for model in (depth_model, luma_model):
        name = spans.HOOKS["background.update"][0]((model,))
        assert name in layer_spans


def test_report_reaches_every_report_span(tmp_path):
    scenario = tmp_path / "scenario.txt"
    write_scenario(Scenario(duration=61, seed=14, timeline=(
        TimelineItem(15, 18, FULL_TURN, 0.5), TimelineItem(25, 26, LIGHT_ON, 0.5),
        TimelineItem(30, 33, TALK, 0.5))), scenario)
    sess, det = tmp_path / "sess", tmp_path / "det"
    assert main(["generate", "--scenario", str(scenario), "--out", str(sess)]) == 0
    assert main(["detect", "--session", str(sess), "--out", str(det)]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]),
        PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", TRACED_REPORT, str(SPANS_PY), str(sess),
                           str(det)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.splitlines()[-1])
    assert [name for name in REPORT_SPANS if not calls.get(name)] == []
