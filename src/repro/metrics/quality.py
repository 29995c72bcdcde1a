"""Quality metrics for edge partitions.

All metrics operate on an *assignment array*: ``assignment[e]`` is the
partition id of canonical edge ``e`` of a :class:`~repro.graph.csr.CSRGraph`
(this is the representation returned by every partitioner in
:mod:`repro.partitioners` and by Distributed NE).

Definitions follow the paper:

* replication factor (Equation 1): ``(1/|V|) * Σ_p |V(E_p)|`` where the
  normaliser counts *vertices with at least one edge* — isolated
  vertices are never replicated and the paper's datasets have none.
* balance (§7.6): ``B({x_p}) = max x_p / mean x_p`` for edge counts
  (EB), covered-vertex counts (VB), and per-partition runtimes (WB).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph, sorted_unique

__all__ = [
    "partition_vertex_counts",
    "replication_factor",
    "vertex_cut_count",
    "balance",
    "edge_balance",
    "vertex_balance",
    "partition_edge_counts",
    "validate_assignment",
]


def validate_assignment(graph: CSRGraph, assignment: np.ndarray,
                        num_partitions: int) -> None:
    """Raise ``ValueError`` unless ``assignment`` is a proper partition.

    Checks shape, dtype-compatibility, and that every edge has a
    partition id in ``[0, num_partitions)`` — i.e. the subsets are
    disjoint and cover E, which is the definition of edge partitioning
    (§2.1).
    """
    assignment = np.asarray(assignment)
    if assignment.shape != (graph.num_edges,):
        raise ValueError(
            f"assignment must have one entry per edge "
            f"({graph.num_edges}), got shape {assignment.shape}")
    if graph.num_edges == 0:
        return
    if assignment.min() < 0 or assignment.max() >= num_partitions:
        raise ValueError("assignment contains out-of-range partition ids")


def partition_vertex_counts(graph: CSRGraph, assignment: np.ndarray,
                            num_partitions: int) -> np.ndarray:
    """``|V(E_p)|`` for each partition p.

    Computed by deduplicating (vertex, partition) incidences over both
    endpoints of every edge.
    """
    if graph.num_edges == 0:
        return np.zeros(num_partitions, dtype=np.int64)
    assignment = np.asarray(assignment, dtype=np.int64)
    # Pair each endpoint with its edge's partition, dedupe pairs.
    verts = np.concatenate([graph.edges[:, 0], graph.edges[:, 1]])
    parts = np.concatenate([assignment, assignment])
    keys = verts * num_partitions + parts
    unique_keys = sorted_unique(keys)
    owning = unique_keys % num_partitions
    return np.bincount(owning, minlength=num_partitions).astype(np.int64)


def replication_factor(graph: CSRGraph, assignment: np.ndarray,
                       num_partitions: int, *,
                       vertex_counts: np.ndarray | None = None) -> float:
    """Equation 1: mean number of partitions each (non-isolated) vertex
    appears in.

    ``vertex_counts`` — :func:`partition_vertex_counts` of the same
    partition, when the caller already holds it (e.g. a ``bincount`` of
    a replica CSR) — skips recomputing it; the result is the same float.
    """
    counts = _vertex_counts(graph, assignment, num_partitions,
                            vertex_counts)
    covered = _num_covered_vertices(graph)
    if covered == 0:
        return 0.0
    return float(counts.sum()) / covered


def vertex_cut_count(graph: CSRGraph, assignment: np.ndarray,
                     num_partitions: int, *,
                     vertex_counts: np.ndarray | None = None) -> int:
    """Total number of vertex cuts: ``Σ_v (replicas(v) - 1)``.

    ``vertex_counts`` as in :func:`replication_factor`.
    """
    counts = _vertex_counts(graph, assignment, num_partitions,
                            vertex_counts)
    return int(counts.sum()) - _num_covered_vertices(graph)


def partition_edge_counts(assignment: np.ndarray,
                          num_partitions: int) -> np.ndarray:
    """``|E_p|`` for each partition p."""
    assignment = np.asarray(assignment, dtype=np.int64)
    return np.bincount(assignment, minlength=num_partitions).astype(np.int64)


def balance(values) -> float:
    """§7.6 balance: ``max(values) / mean(values)``.

    1.0 is perfectly balanced.  Returns ``nan`` if the mean is zero.
    """
    values = np.asarray(values, dtype=np.float64)
    mean = values.mean() if values.size else 0.0
    if mean == 0.0:
        return float("nan")
    return float(values.max() / mean)


def edge_balance(assignment: np.ndarray, num_partitions: int) -> float:
    """EB: balance of per-partition edge counts."""
    return balance(partition_edge_counts(assignment, num_partitions))


def vertex_balance(graph: CSRGraph, assignment: np.ndarray,
                   num_partitions: int, *,
                   vertex_counts: np.ndarray | None = None) -> float:
    """VB: balance of per-partition covered-vertex counts.

    ``vertex_counts`` as in :func:`replication_factor`.
    """
    return balance(_vertex_counts(graph, assignment, num_partitions,
                                  vertex_counts))


def _vertex_counts(graph, assignment, num_partitions, vertex_counts):
    if vertex_counts is not None:
        return vertex_counts
    return partition_vertex_counts(graph, assignment, num_partitions)


def _num_covered_vertices(graph: CSRGraph) -> int:
    """Vertices with degree >= 1 (|V| in the paper's formulas)."""
    return int(np.count_nonzero(np.diff(graph.indptr)))
