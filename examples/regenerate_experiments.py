#!/usr/bin/env python3
"""Render the recorded benchmark results as a markdown report.

The benchmark suite (``pytest benchmarks/ --benchmark-only``) records
every experiment's rows into ``benchmarks/results/*.json``.  This
script renders them into ``benchmarks/results/REPORT.md``: the measured
tables, regenerated from an actual run.

Run:  pytest benchmarks/ --benchmark-only     # produce the JSONs
      python examples/regenerate_experiments.py
"""

import json
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"

#: experiment id -> (heading, one-line description)
SECTIONS = {
    "fig6": ("Figure 6", "iterations and RF vs expansion factor lambda"),
    "table1": ("Table 1", "theoretical RF bounds on power-law graphs"),
    "theorem2": ("Theorem 2", "tightness of the Theorem 1 bound"),
    "fig8": ("Figure 8", "replication factor across methods"),
    "fig9": ("Figure 9", "memory (mem score, bytes/edge)"),
    "fig10": ("Figure 10(a-g)", "partitioning elapsed time"),
    "fig10h": ("Figure 10(h)", "time vs edge factor"),
    "fig10i": ("Figure 10(i)", "time vs scale"),
    "fig10j": ("Figure 10(j)", "weak scaling toward trillion edges"),
    "table4": ("Table 4", "sequential/streaming comparison"),
    "table5": ("Table 5", "application performance"),
    "table6": ("Table 6", "road networks"),
    "ablation": ("Ablations", "design-choice ablations"),
}


def _rows_to_markdown(rows) -> str:
    if not rows:
        return "_no rows_\n"
    if isinstance(rows, dict):
        rows = [rows]
    headers = list(rows[0].keys())
    out = ["| " + " | ".join(headers) + " |",
           "|" + "---|" * len(headers)]
    for row in rows:
        cells = []
        for h in headers:
            value = row.get(h, "")
            if isinstance(value, float):
                cells.append(f"{value:.4g}")
            else:
                cells.append(str(value))
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out) + "\n"


def _section_for(stem: str) -> tuple[str, str]:
    for prefix in sorted(SECTIONS, key=len, reverse=True):
        if stem.startswith(prefix):
            return SECTIONS[prefix]
    return (stem, "")


def main() -> None:
    if not RESULTS.exists():
        raise SystemExit(
            "no benchmarks/results directory — run "
            "`pytest benchmarks/ --benchmark-only` first")

    parts = ["# Measured experiment results",
             "",
             "Regenerated from `benchmarks/results/*.json` by "
             "`examples/regenerate_experiments.py`.",
             ""]
    for path in sorted(RESULTS.glob("*.json")):
        heading, description = _section_for(path.stem)
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh)
        parts.append(f"## {heading} — `{path.stem}`")
        if description:
            parts.append(f"\n_{description}_\n")
        parts.append(_rows_to_markdown(rows))

    report = RESULTS / "REPORT.md"
    report.write_text("\n".join(parts), encoding="utf-8")
    print(f"wrote {report} ({len(list(RESULTS.glob('*.json')))} experiments)")


if __name__ == "__main__":
    main()
