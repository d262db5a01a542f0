"""The benchmark's trace sites still name functions the program has.

``bench/spans.py`` times layers by wrapping functions at the names listed in
its ``SITES`` table, and names the GMM spans from each model's ``channel``.
A refactor that folds or renames one of those functions silently drops a
per-layer metric; these checks make it fail here instead.  The module is
loaded read-only and its tracer is never installed.
"""

import importlib
import types
from pathlib import Path

from conftest import build_session
from sleepmon.scoring import make_models

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

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
