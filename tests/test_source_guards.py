"""AST guards on the DNE kernel and graph front-end sources.

``np.unique`` on int64 hashes and then sorts (and ``return_index`` /
``return_inverse`` add a stable argsort): inside the per-iteration
kernels that was a fifth of a run.  The plane dedups through
``repro.graph.csr.sorted_unique`` / ``first_occurrence`` instead; this
guard keeps a stray ``np.unique(`` from coming back unnoticed.

Row-wise ``np.unique(..., axis=0)`` is worse: a structured-dtype
comparison sort that holds the GIL — 0.4 s per 500k rows, and the
half-second stall every reader of a serving process saw while a job
thread loaded its graph.  Nothing under ``src/repro/graph/`` may call
it; ``canonical_edges`` sorts packed keys instead.
"""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).parent.parent / "src" / "repro"
_CORE = _SRC / "core"


def _np_unique_calls(source: str, with_axis: bool = False) -> list[int]:
    """Line numbers of ``np.unique(...)`` / ``numpy.unique(...)`` calls;
    ``with_axis`` keeps only those passing ``axis=``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and (not with_axis
                 or any(kw.arg == "axis" for kw in node.keywords))]


def test_guard_sees_a_call_and_ignores_prose():
    source = ('"""mentions np.unique(x, axis=0) in a docstring"""\n'
              "import numpy as np\n"
              "x = np.unique([1])  # call\n"
              "y = numpy.unique([[2]], axis=0)\n")
    assert _np_unique_calls(source) == [3, 4]
    assert _np_unique_calls(source, with_axis=True) == [4]


@pytest.mark.parametrize("name", ["fused.py", "expansion.py"])
def test_dne_kernels_do_not_call_np_unique(name):
    assert _np_unique_calls((_CORE / name).read_text()) == []


@pytest.mark.parametrize(
    "path", sorted((_SRC / "graph").glob("*.py")), ids=lambda p: p.name)
def test_graph_front_end_does_not_call_row_wise_np_unique(path):
    assert _np_unique_calls(path.read_text(), with_axis=True) == []
