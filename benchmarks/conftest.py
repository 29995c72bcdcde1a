"""Shared fixtures for the per-figure/table benchmark suite.

Conventions:

* every bench uses the ``benchmark`` fixture (so ``--benchmark-only``
  selects all of them) with ``pedantic(rounds=1)`` — each experiment
  driver is already a full sweep, repeating it only burns time;
* every bench *prints* a paper-style table (run with ``-s`` to see it)
  and *asserts* the paper's qualitative claims — who wins, in what
  direction trends move;
* every bench records its rows into ``benchmarks/results/*.json`` so
  ``benchmarks/results/REPORT.md`` can be regenerated from a bench run
  (``python examples/regenerate_experiments.py``).  The files are
  tracked and pinned, so a run rewrites one only when a field
  ``check_results_drift.drift`` pins has moved — wall-clock churn
  alone leaves the tree clean.

Scale: dataset stand-ins are 10^4–10^5 edges (``graph/datasets.py``);
partition counts are trimmed to keep the full suite within a few
minutes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from check_results_drift import drift

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record(results_dir):
    """Store an experiment's rows as JSON: ``record(name, rows)``.

    An existing file is kept byte-for-byte when the new rows differ
    from it only in timing fields.
    """
    def _record(name: str, rows) -> None:
        path = results_dir / f"{name}.json"
        text = json.dumps(rows, indent=2, default=str)
        try:
            unchanged = not drift(json.loads(path.read_text("utf-8")),
                                  json.loads(text))
        except (OSError, ValueError):
            unchanged = False   # absent or unreadable: (re)write it
        if not unchanged:
            path.write_text(text, encoding="utf-8")
    return _record


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment driver exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
