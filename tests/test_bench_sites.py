"""The benchmark's trace sites still name functions the program has.

``bench/spans.py`` times layers by wrapping functions at the names listed in
its ``SITES`` table, and names the GMM spans from each model's ``channel``.
A refactor that folds or renames one of those functions silently drops a
per-layer metric, and one that imports a traced function by name hides its
calls from the wrapper; these checks make both fail here instead.  The
module is loaded read-only, and its tracer is installed only in a child
interpreter that runs ``sleepmon detect`` and then ``sleepmon report``.
"""

import ast
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
RUN_PY = SPANS_PY.with_name("run.py")
SRC = Path(__file__).resolve().parents[1] / "src"

# The spans of the bench's detect workload that only ``sleepmon report``
# reaches, besides the Cole and Sadeh ones; ``detect`` reaches all the others.
REPORT_ONLY_SPANS = {"cli.report", "scoring.parse_scores_csv", "events.parse_event_log",
                     "analysis.classify_epochs", "analysis.build_report"}

# Runs ``sleepmon detect`` and then ``sleepmon report`` under the bench's
# tracer and prints the calls per span of each command.
TRACED_DETECT_REPORT = """
import json, sys, types
from pathlib import Path
spans_py, session, detect = sys.argv[1:]
spans = types.ModuleType("bench_spans")
exec(compile(Path(spans_py).read_text(), spans_py, "exec"), spans.__dict__)
tracer = spans.Tracer()
tracer.install()
from sleepmon import cli
assert cli.main(["detect", "--session", session, "--out", detect]) == 0
after_detect = {name: st[0] for name, st in tracer.spans.items()}
assert cli.main(["report", "--session", session, "--detect", detect]) == 0
report = {name: st[0] - after_detect.get(name, 0) for name, st in tracer.spans.items()}
print(json.dumps({"detect": after_detect, "report": report}))
"""

# Sites the bench still lists but the program no longer has; the next
# benchmark change drops them and empties this set.
STALE_SITES = {"sleepmon.session.validate_session"}


def _load_spans():
    # Compiled from source, so no bytecode cache is written next to it.
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS_PY.read_text(), str(SPANS_PY), "exec"), module.__dict__)
    return module


def _bench_spans(name):
    """The span set that ``bench/run.py`` assigns to ``name``, read without running it."""
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"bench/run.py assigns no {name}")


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
    """``detect`` and ``report`` together reach every span the bench requires of them.

    Each command is held to its own share, so a detector that stopped calling
    a traced function fails here even when ``report`` still calls it.
    """
    scenario = tmp_path / "scenario.txt"
    write_scenario(Scenario(duration=61, seed=14, timeline=(
        TimelineItem(15, 18, FULL_TURN, 0.5), TimelineItem(25, 26, LIGHT_ON, 0.5),
        TimelineItem(30, 33, TALK, 0.5))), scenario)
    sess, det = tmp_path / "sess", tmp_path / "det"
    assert main(["generate", "--scenario", str(scenario), "--out", str(sess)]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]),
        PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", TRACED_DETECT_REPORT, str(SPANS_PY),
                           str(sess), str(det)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.splitlines()[-1])
    actigraphy = _bench_spans("ACTIGRAPHY_SPANS")
    required = _bench_spans("DETECT_SPANS") | actigraphy
    report_spans = REPORT_ONLY_SPANS | actigraphy | {"events.epoch_peaks"}
    assert REPORT_ONLY_SPANS <= required
    assert sorted(n for n in required - REPORT_ONLY_SPANS - actigraphy
                  if not calls["detect"].get(n)) == []
    assert sorted(n for n in report_spans if not calls["report"].get(n)) == []
