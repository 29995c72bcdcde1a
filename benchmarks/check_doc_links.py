#!/usr/bin/env python3
"""Fail if a markdown link or a code reference in README/docs is broken.

Scans ``README.md``, ``docs/*.md``, and the other top-level markdown
files for ``[text](target)`` links and checks every *relative* target
resolves to a real file or directory in the checkout.  Skipped, by
design:

* absolute URLs (``http://``, ``https://``, ``mailto:``);
* pure in-page anchors (``#section``);
* targets that resolve *outside* the repository root — the README's
  CI badge links ``../../actions/...``, which is a GitHub URL path,
  not a checkout path.

Anchors on relative links (``docs/API.md#section``) are checked for the
file part only.

``README.md`` and ``docs/*.md`` are additionally checked for code
references, so a deletion cannot leave the docs naming what is gone:
every backticked ``path/file.py`` must be an existing file — relative
to the checkout root, ``src/`` or ``src/repro/``, the three spellings
the docs use — and every ``path/test_x.py::Name`` (or
``::Class::method``) must also find a ``class``/``def`` of each name in
that file.  Bare file names with no directory part are prose shorthand
and are not checked.

The other direction too: every ``*.md`` name a ``.py`` file under
``src/``, ``benchmarks/``, ``examples/`` or ``tests/`` cites must
resolve — beside the citing file, from the checkout root or from
``docs/`` — or be a report the repo writes rather than tracks
(``_GENERATED_MD``).  Docstrings that cite a design note nobody wrote
are how a reader gets sent nowhere.

Stdlib-only so the lint job can run it without the scientific stack.
Exit code 0 when everything resolves, 1 otherwise.
"""

from __future__ import annotations

import glob
import os
import re
import sys

#: [text](target) with no nested brackets; images share the syntax
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
#: fenced code blocks — links inside them are examples, not links
_FENCE = re.compile(r"```.*?```", re.DOTALL)

_SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")

#: `dir/file.py` or `dir/file.py::Name[::name]` in backticks
_CODE_REF = re.compile(r"`([\w.-]+(?:/[\w.-]+)+\.py)((?:::\w+)*)`")
#: where a documented path may be rooted
_CODE_ROOTS = ("", "src", os.path.join("src", "repro"))

#: a markdown file cited in program text: a bare name, a path, ``../``
_MD_CITE = re.compile(r"(?<![\w./-])((?:\.\.?/)*\w[\w./-]*\.md)\b")
#: the trees whose ``.py`` files may cite markdown
_CITING_DIRS = ("src", "benchmarks", "examples", "tests")
#: markdown the repo writes but does not track (cited by path or name)
_GENERATED_MD = ("benchmarks/results/REPORT.md",)


def _markdown_files(root: str) -> list[str]:
    files = sorted(glob.glob(os.path.join(root, "*.md")))
    files += sorted(glob.glob(os.path.join(root, "docs", "*.md")))
    return files


def check(root: str) -> list[str]:
    root = os.path.realpath(root)
    broken: list[str] = []
    for md in _markdown_files(root):
        with open(md, encoding="utf-8") as fh:
            text = _FENCE.sub("", fh.read())
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(_SKIP_PREFIXES):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = os.path.realpath(
                os.path.join(os.path.dirname(md), path))
            if not resolved.startswith(root + os.sep):
                continue  # escapes the checkout (e.g. badge URL paths)
            if not os.path.exists(resolved):
                broken.append(f"{os.path.relpath(md, root)}: "
                              f"[{target}] -> {os.path.relpath(resolved, root)}"
                              " (missing)")
    return broken


def check_code_refs(root: str) -> list[str]:
    """Broken backticked ``path/file.py[::Name]`` references in
    ``README.md`` and ``docs/*.md``."""
    root = os.path.realpath(root)
    broken: list[str] = []
    docs = [os.path.join(root, "README.md")]
    docs += sorted(glob.glob(os.path.join(root, "docs", "*.md")))
    for md in docs:
        if not os.path.exists(md):
            continue
        with open(md, encoding="utf-8") as fh:
            text = _FENCE.sub("", fh.read())
        for match in _CODE_REF.finditer(text):
            path, names = match.group(1), match.group(2)
            where = os.path.relpath(md, root)
            found = next(
                (candidate for candidate in
                 (os.path.join(root, base, path) for base in _CODE_ROOTS)
                 if os.path.isfile(candidate)), None)
            if found is None:
                broken.append(f"{where}: `{path}` (no such file)")
                continue
            with open(found, encoding="utf-8") as fh:
                source = fh.read()
            for name in filter(None, names.split("::")):
                if not re.search(rf"^\s*(?:class|(?:async\s+)?def)\s+{name}\b",
                                 source, re.MULTILINE):
                    broken.append(f"{where}: `{path}{names}` "
                                  f"(no class/def {name})")
    return broken


def check_md_citations(root: str) -> list[str]:
    """``*.md`` names cited by a ``.py`` under ``_CITING_DIRS`` that
    resolve nowhere: not beside the citing file, not from the checkout
    root or ``docs/``, and not a ``_GENERATED_MD`` report."""
    root = os.path.realpath(root)
    generated = set(_GENERATED_MD)
    generated.update(os.path.basename(path) for path in _GENERATED_MD)
    broken: list[str] = []
    for top in _CITING_DIRS:
        for py in sorted(glob.glob(os.path.join(root, top, "**", "*.py"),
                                   recursive=True)):
            bases = (os.path.dirname(py), root, os.path.join(root, "docs"))
            with open(py, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    for name in _MD_CITE.findall(line):
                        if name in generated or any(
                                os.path.isfile(os.path.join(base, name))
                                for base in bases):
                            continue
                        broken.append(f"{os.path.relpath(py, root)}:"
                                      f"{lineno}: {name} (no such file)")
    return broken


def main() -> int:
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir)
    broken = check(root) + check_code_refs(root) + check_md_citations(root)
    for line in broken:
        print(f"BROKEN {line}")
    checked = len(_markdown_files(os.path.realpath(root)))
    print(f"checked {checked} markdown files and the .py files under "
          f"{', '.join(_CITING_DIRS)}: {len(broken)} broken link(s), "
          f"code reference(s) or markdown citation(s)")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
