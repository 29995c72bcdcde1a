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

Every vertex-side number reads one relation, the vertex→replica CSR of
:func:`vertex_replica_csr`: ``|V(E_p)|`` is a ``bincount`` of its
partition ids, and the covered vertices are its non-empty rows (a
vertex is covered iff it has a replica), so no metric walks the graph's
adjacency.  The free functions here build it per call;
:class:`~repro.partitioners.base.EdgePartition` builds it once and its
metric methods read the ``*_of_counts`` forms.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph, sorted_unique

__all__ = [
    "vertex_replica_csr",
    "partition_vertex_counts",
    "replication_factor",
    "vertex_cut_count",
    "covered_vertex_count",
    "replication_factor_of_counts",
    "vertex_cuts_of_counts",
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


def vertex_replica_csr(edges: np.ndarray, assignment: np.ndarray,
                       num_vertices: int, num_partitions: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Vertex→replica-set CSR ``(indptr, parts)`` of an edge partition.

    ``parts[indptr[v]:indptr[v+1]]`` is the ascending list of
    partitions holding a replica of vertex ``v`` (empty for isolated
    vertices): the covered sets ``V(E_p)`` of Equation 1, read per
    vertex.  This is the one place the (vertex, partition) incidences
    of both endpoints of every edge are deduplicated;
    :class:`~repro.partitioners.base.EdgePartition` builds it once
    (``replicas``) and the metrics, the report, the run store and the
    GAS engine all read that copy.
    """
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    if len(assignment) == 0:
        return indptr, np.empty(0, dtype=np.int64)
    verts = np.concatenate([edges[:, 0], edges[:, 1]])
    parts = np.concatenate([assignment, assignment])
    keys = sorted_unique(verts.astype(np.int64) * num_partitions + parts)
    vertices, parts = np.divmod(keys, num_partitions)
    np.cumsum(np.bincount(vertices, minlength=num_vertices),
              out=indptr[1:])
    return indptr, parts


def covered_vertex_count(replica_indptr: np.ndarray) -> int:
    """Vertices with at least one replica — those with degree >= 1,
    |V| in the paper's formulas — from a replica CSR's ``indptr``."""
    return int(np.count_nonzero(np.diff(replica_indptr)))


def _replica_counts(graph: CSRGraph, assignment: np.ndarray,
                    num_partitions: int) -> tuple[np.ndarray, int]:
    """``(|V(E_p)| per partition, covered vertices)`` of one replica
    CSR."""
    indptr, parts = vertex_replica_csr(graph.edges, assignment,
                                       graph.num_vertices, num_partitions)
    return (np.bincount(parts, minlength=num_partitions),
            covered_vertex_count(indptr))


def partition_vertex_counts(graph: CSRGraph, assignment: np.ndarray,
                            num_partitions: int) -> np.ndarray:
    """``|V(E_p)|`` for each partition p: a ``bincount`` of the replica
    CSR's partition ids."""
    _, parts = vertex_replica_csr(graph.edges, assignment,
                                  graph.num_vertices, num_partitions)
    return np.bincount(parts, minlength=num_partitions)


def replication_factor(graph: CSRGraph, assignment: np.ndarray,
                       num_partitions: int) -> float:
    """Equation 1: mean number of partitions each (non-isolated) vertex
    appears in."""
    return replication_factor_of_counts(
        *_replica_counts(graph, assignment, num_partitions))


def vertex_cut_count(graph: CSRGraph, assignment: np.ndarray,
                     num_partitions: int) -> int:
    """Total number of vertex cuts: ``Σ_v (replicas(v) - 1)``."""
    return vertex_cuts_of_counts(
        *_replica_counts(graph, assignment, num_partitions))


def replication_factor_of_counts(vertex_counts: np.ndarray,
                                 covered: int) -> float:
    """:func:`replication_factor` from the partition's ``|V(E_p)|`` and
    its covered-vertex count."""
    if covered == 0:
        return 0.0
    return float(vertex_counts.sum()) / covered


def vertex_cuts_of_counts(vertex_counts: np.ndarray, covered: int) -> int:
    """:func:`vertex_cut_count` from the partition's ``|V(E_p)|`` and
    its covered-vertex count."""
    return int(vertex_counts.sum()) - covered


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
                   num_partitions: int) -> float:
    """VB: balance of per-partition covered-vertex counts."""
    return balance(partition_vertex_counts(graph, assignment,
                                           num_partitions))
