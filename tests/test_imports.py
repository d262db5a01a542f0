"""Import layering: every module imports on its own, the set-up path stays small,
and the runtime needs no third-party package but numpy.

Each check runs in a fresh interpreter, so an import cycle that only shows
when a module is imported first fails here.  ``config`` is the base module
(it imports only ``kvtext``); loading a session and seeding the models must
not pull in the classifier, events, synthesis or the command line, whose
import time the benchmark's set-up would otherwise pay.
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(SRC / "sleepmon")]))


def _python(*args):
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    proc = _python("-c", f"import sleepmon.{module}")
    assert proc.returncode == 0, proc.stderr


def test_package_runs_as_a_module():
    proc = _python("-m", "sleepmon", "--help")
    assert proc.returncode == 0, proc.stderr


def test_setup_path_loads_only_the_model_layer():
    proc = _python("-c", "import json, sys\n"
                         "from sleepmon import scoring, session\n"
                         "print(json.dumps(sorted(m for m in sys.modules "
                         "if m.split('.')[0] == 'sleepmon')))")
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded == ["sleepmon"] + [f"sleepmon.{m}" for m in
                                     ("background", "config", "errors", "kvtext", "scoring",
                                      "session")]


def test_runtime_needs_only_numpy():
    # The modules loaded before the import are the baseline: ``site`` may
    # already load third-party helpers (``_distutils_hack``, ``certifi``).
    proc = _python("-c", "import importlib, json, sys\n"
                         "before = {m.split('.')[0] for m in sys.modules}\n"
                         f"for name in {MODULES!r}:\n"
                         "    importlib.import_module('sleepmon.' + name)\n"
                         "added = {m.split('.')[0] for m in sys.modules} - before\n"
                         "print(json.dumps(sorted(added - set(sys.stdlib_module_names))))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["numpy", "sleepmon"]
