"""Benchmark-side spans and the arithmetic that reads a trace back.

The traced pass wraps every call the benchmark makes into a layer in a
``bench:<layer>.<call>`` span on the program's own public
``repro.observability.trace.Tracer`` and hands the same tracer to
``DistributedNE(tracer=...)``, so the driver's ``run:`` / ``phase:`` /
``superstep:`` spans land inside ``bench:core.partition`` in one
Chrome-trace file.  This module never imports the program: it takes the
tracer object and, afterwards, the plain event list.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

#: nesting of span categories in a trace written by this benchmark
CHILD_CATEGORY = {"bench": "run", "run": "phase", "phase": "superstep"}


class Stopwatch:
    seconds = 0.0


@contextmanager
def bench_span(tracer, name: str, parent: str | None = None, **args):
    """Time the block (``.seconds`` of the yielded object) and record
    it as ``bench:<name>`` when a tracer is given."""
    watch = Stopwatch()
    start = time.perf_counter()
    try:
        yield watch
    finally:
        watch.seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.span(f"bench:{name}", cat="bench", seconds=watch.seconds,
                        args={**args, "parent": parent})


def complete(events: list, name: str | None = None,
             cat: str | None = None) -> list:
    return [e for e in events if e.get("ph") == "X"
            and (name is None or e["name"] == name)
            and (cat is None or e["cat"] == cat)]


def children(events: list, span: dict) -> list:
    """Spans of the next category down that lie inside ``span``."""
    cat = CHILD_CATEGORY.get(span["cat"])
    if cat is None:
        return []
    # ts/dur are rounded to a nanosecond on export
    lo, hi = span["ts"] - 0.01, span["ts"] + span["dur"] + 0.01
    return [e for e in complete(events, cat=cat)
            if e["ts"] >= lo and e["ts"] + e["dur"] <= hi]


def phase_seconds(events: list, span: dict) -> dict:
    """Σ ``phase:*`` durations by phase name under a ``bench`` span."""
    totals: dict = {}
    for run in children(events, span):
        for phase in children(events, run):
            key = phase["name"].split(":", 1)[1]
            totals[key] = totals.get(key, 0.0) + phase["dur"] / 1e6
    return totals
