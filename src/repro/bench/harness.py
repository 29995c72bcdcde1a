"""Bench harness utilities: run partitioners, format paper-style tables.

Every figure/table driver in :mod:`repro.bench.experiments` returns
plain dict rows; the helpers here run partitioners uniformly, estimate
per-method memory footprints (Figure 9's mem score), and pretty-print
aligned tables so the benchmark output can be eyeballed against the
paper.
"""

from __future__ import annotations

from repro.graph.csr import CSRGraph
from repro.partitioners import PARTITIONER_REGISTRY
from repro.partitioners.base import EdgePartition

__all__ = [
    "run_method",
    "method_memory_bytes",
    "mem_score",
    "format_table",
    "format_series",
    "QUALITY_METHODS",
    "PERFORMANCE_METHODS",
    "TABLE5_METHODS",
    "TABLE6_METHODS",
]

#: Figure 8 comparison set (every method in the paper's quality plots).
QUALITY_METHODS = (
    "random", "grid", "oblivious", "hybrid_ginger", "spinner",
    "metis_like", "sheep", "xtrapulp", "distributed_ne",
)

#: Figure 9/10 comparison set (the high-quality methods).
PERFORMANCE_METHODS = ("metis_like", "sheep", "xtrapulp", "distributed_ne")

#: Table 5 comparison set (PowerLyra-available methods + D.NE).
TABLE5_METHODS = ("random", "grid", "oblivious", "hybrid_ginger",
                  "distributed_ne")

#: Table 6 comparison set (road networks).
TABLE6_METHODS = ("random", "grid", "oblivious", "hybrid_ginger",
                  "metis_like", "sheep", "xtrapulp", "distributed_ne")


def run_method(name: str, graph: CSRGraph, num_partitions: int,
               seed: int = 0) -> EdgePartition:
    """Partition ``graph`` with registry method ``name`` at its
    defaults (the paper's fixed per-method settings)."""
    if name not in PARTITIONER_REGISTRY:
        raise KeyError(f"unknown partitioner {name!r}; "
                       f"available: {sorted(PARTITIONER_REGISTRY)}")
    cls = PARTITIONER_REGISTRY[name]
    return cls(num_partitions, seed=seed).partition(graph)


def method_memory_bytes(result: EdgePartition) -> int:
    """Estimate the peak resident bytes a method's run needed.

    Distributed NE reports its simulated-cluster accounting directly;
    the baselines are modelled from the structures their
    implementations actually build (documented per branch).  These are
    honest *relative* scores: absolute values depend on the substrate,
    the paper's claim is the order-of-magnitude gap between the
    CSR-only design and the copy-heavy competitors.
    """
    graph = result.graph
    base_csr = graph.memory_bytes()
    assignment = result.assignment.nbytes

    if result.method == "distributed_ne":
        return int(result.extra["cluster"]["peak_resident_bytes"])
    if result.method.startswith("metis_like"):
        # Every coarsening level keeps a whole weighted-CSR graph copy
        # (priced by _Level.nbytes), plus matching/projection arrays
        # and the contraction's sorted-key workspace (~4 int64 per
        # adjacency slot of the level being contracted).
        levels = result.extra.get("coarse_levels_bytes", 0)
        workspace = 4 * 2 * graph.num_edges * 8
        return base_csr + levels + workspace + assignment
    if result.method.startswith("sheep"):
        # Elimination order heap (amortised entries), rank/parent/owner.
        heap = 4 * graph.num_edges * 16
        arrays = 3 * graph.num_vertices * 8 + graph.num_edges * 8
        return base_csr + heap + arrays + assignment
    if result.method.startswith(("xtrapulp", "spinner")):
        # Distributed LP keeps double-buffered labels, per-superstep
        # label-exchange buffers (one entry per edge direction), and
        # ghost copies of every cut edge on the second machine.
        labels = 2 * graph.num_vertices * 8
        exchange = 2 * graph.num_edges * 8
        ghosts = result.extra.get("cut_edges", 0) * 16
        return base_csr + labels + exchange + ghosts + assignment
    # Hash/streaming methods: CSR + replica state + assignment.
    replica_state = graph.num_vertices * result.num_partitions // 8
    return base_csr + replica_state + assignment


def mem_score(result: EdgePartition) -> float:
    """Figure 9's metric: modelled peak bytes per input edge."""
    edges = max(result.graph.num_edges, 1)
    return method_memory_bytes(result) / edges


def format_table(headers, rows, title: str = "") -> str:
    """Aligned plain-text table; cells are str()'d, floats get 3 sigfigs."""
    def fmt(cell):
        if isinstance(cell, float):
            return f"{cell:.3g}"
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in str_rows)) if str_rows
              else len(h)
              for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(name: str, xs, ys) -> str:
    """One-line series rendering for figure-style outputs."""
    pts = ", ".join(f"{x}:{y:.3g}" if isinstance(y, float) else f"{x}:{y}"
                    for x, y in zip(xs, ys))
    return f"{name}: {pts}"
