"""Smoke test: every cheap ``examples/*.py`` script still runs.

Each script runs in its own interpreter, from an empty working
directory, under a timeout; it must exit 0 and leave no file behind,
neither in that directory nor in the checkout.

``regenerate_experiments.py`` is left out: it rewrites
``benchmarks/results/REPORT.md`` from the committed result JSONs, so a
run would leave a file in the tree.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(ROOT, "examples")
#: writes into the checkout (see the module docstring)
SKIPPED = {"regenerate_experiments.py"}
SCRIPTS = sorted(f for f in os.listdir(EXAMPLES)
                 if f.endswith(".py") and f not in SKIPPED)
#: per script; each takes 0.5–2 s on two cores
TIMEOUT_S = 120
#: build and tool caches the test run itself may leave
_CACHES = {".git", "__pycache__", ".pytest_cache", ".hypothesis",
           ".benchmarks", ".bench_e2e"}


def _tree_files() -> set[str]:
    found = set()
    for folder, dirs, files in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d not in _CACHES]
        found.update(os.path.join(folder, f) for f in files)
    return found


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs_clean(script, tmp_path):
    before = _tree_files()
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, script)], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "example printed nothing"
    assert os.listdir(tmp_path) == []
    assert _tree_files() == before
