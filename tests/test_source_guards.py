"""AST guards on the DNE kernel sources.

``np.unique`` on int64 hashes and then sorts (and ``return_index`` /
``return_inverse`` add a stable argsort): inside the per-iteration
kernels that was a fifth of a run.  The plane dedups through
``repro.graph.csr.sorted_unique`` / ``first_occurrence`` instead; this
guard keeps a stray ``np.unique(`` from coming back unnoticed.
"""

import ast
from pathlib import Path

import pytest

_CORE = Path(__file__).parent.parent / "src" / "repro" / "core"


def _np_unique_calls(source: str) -> list[int]:
    """Line numbers of ``np.unique(...)`` / ``numpy.unique(...)`` calls."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")]


def test_guard_sees_a_call_and_ignores_prose():
    source = ('"""mentions np.unique( in a docstring"""\n'
              "import numpy as np\n"
              "x = np.unique([1])  # call\n"
              "y = numpy.unique([2])\n")
    assert _np_unique_calls(source) == [3, 4]


@pytest.mark.parametrize("name", ["fused.py", "expansion.py"])
def test_dne_kernels_do_not_call_np_unique(name):
    assert _np_unique_calls((_CORE / name).read_text()) == []
