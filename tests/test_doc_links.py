"""Unit tests for the docs checker (``benchmarks/check_doc_links.py``).

The code-reference check is what keeps README / ``docs/*.md`` honest
after a deletion: a backticked path must exist, and a ``::Name`` suffix
must name a class or function of that file.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))

from check_doc_links import (check, check_code_refs,  # noqa: E402
                             check_md_citations)


def _tree(tmp_path, readme: str, arch: str = "") -> str:
    (tmp_path / "src" / "repro" / "core").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro" / "core" / "fused.py").write_text(
        "class Plane:\n    def run(self):\n        pass\n")
    (tmp_path / "tests" / "test_x.py").write_text(
        "class TestPlane:\n    def test_run(self):\n        pass\n\n\n"
        "async def test_async():\n    pass\n")
    (tmp_path / "README.md").write_text(readme)
    (tmp_path / "docs" / "ARCHITECTURE.md").write_text(arch)
    return str(tmp_path)


def test_existing_paths_and_names_resolve(tmp_path):
    root = _tree(
        tmp_path,
        "See `core/fused.py`, `src/repro/core/fused.py`, "
        "`repro/core/fused.py::Plane` and\n"
        "`tests/test_x.py::TestPlane::test_run`; "
        "[arch](docs/ARCHITECTURE.md).\n",
        "`tests/test_x.py::test_async` and bare `fused.py` shorthand.\n")
    assert check_code_refs(root) == []
    assert check(root) == []


def test_missing_file_and_missing_name_reported(tmp_path):
    root = _tree(
        tmp_path,
        "`core/gone.py` was deleted; `tests/test_x.py::TestGone` too,\n"
        "and `tests/test_x.py::TestPlane::test_gone`.\n"
        "```\n`core/in_a_fence.py` is an example, not a reference\n```\n",
        "`tests/test_y.py::TestPlane`\n")
    broken = check_code_refs(root)
    assert len(broken) == 4
    assert any("core/gone.py" in line and "no such file" in line
               for line in broken)
    assert any("no class/def TestGone" in line for line in broken)
    assert any("no class/def test_gone" in line for line in broken)
    assert any(line.startswith("docs/ARCHITECTURE.md")
               and "tests/test_y.py" in line for line in broken)


def test_other_markdown_files_are_not_code_checked(tmp_path):
    """CHANGES.md / ROADMAP.md narrate history and may name files that
    no longer exist."""
    root = _tree(tmp_path, "nothing here\n")
    (tmp_path / "CHANGES.md").write_text("removed `core/gone.py`\n")
    assert check_code_refs(root) == []


def test_markdown_cited_from_code_must_resolve(tmp_path):
    """A ``*.md`` name in a ``.py`` under src/, benchmarks/, examples/
    or tests/ resolves beside the file, from the root or from docs/, or
    is the generated report; anything else is reported with its line.
    (The fixture's names are assembled from ``md``, so that this file
    itself cites none that do not exist.)"""
    md = ".md"
    root = _tree(tmp_path, "readme\n")
    (tmp_path / "benchmarks" / "e2e").mkdir(parents=True)
    (tmp_path / "benchmarks" / "e2e" / f"README{md}").write_text("method\n")
    (tmp_path / "benchmarks" / "e2e" / "run.py").write_text(
        f'"""See README{md}, ../../docs/ARCHITECTURE{md} and\n'
        f'benchmarks/results/REPORT{md} (written by a script)."""\n')
    (tmp_path / "src" / "repro" / "core" / "fused.py").write_text(
        f'"""Per ARCHITECTURE{md} and README{md}#quickstart."""\n'
        f"# design notes: DESIGN{md} §2, docs/GONE{md}\n"
        f"paths = glob('*{md}')   # a pattern, not a citation\n")
    assert check_md_citations(root) == [
        f"src/repro/core/fused.py:2: DESIGN{md} (no such file)",
        f"src/repro/core/fused.py:2: docs/GONE{md} (no such file)"]


def test_repository_cites_only_markdown_that_exists():
    assert check_md_citations(str(Path(__file__).parent.parent)) == []
