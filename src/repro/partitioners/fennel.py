"""FENNEL-based streaming edge partitioner (Tsourakakis et al. [45],
edge variant after Bourse et al. [10]).

The related-work family §2.2 cites alongside HDRF/SNE.  FENNEL's
one-pass score trades marginal locality against a superlinear load
penalty.  For the *edge* partitioning variant, each streamed edge
``(u, v)`` is scored against partition ``p`` as::

    score(p) = |{u, v} ∩ V(E_p)|  -  gamma/2 * ((load_p + 1)^a - load_p^a)

i.e. the replication saved by reusing existing vertex copies minus the
marginal increase of the convex load penalty ``gamma * load^a`` (the
classic FENNEL exponent ``a = 1.5``).  With ``gamma`` scaled as
``sqrt(|P|) / |E|^(a-1)`` the penalty balances partitions without a
hard cap.

Quality lands in the greedy-streaming class (comparable to Oblivious,
behind NE-family methods) — included as the related-work baseline and
as another point in the streaming design space.

Kernels: ``"vectorized"`` (default) runs
:func:`repro.core.streaming.walk_edge_stream`, the per-edge argmax over
replica classes x load levels with balance ``-penalty(load)`` (``c -
pen`` and ``c + (-pen)`` are the same float); ``"python"`` is the
per-edge reference loop, kept verbatim and pinned bit-identical by
``tests/test_streaming_equivalence.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.streaming import walk_edge_stream
from repro.graph.csr import CSRGraph
from repro.partitioners.base import EdgePartition, StreamingEdgePartitioner

__all__ = ["FennelEdgePartitioner"]


def _penalty_table(num_edges: int, gamma: float,
                   load_exponent: float) -> np.ndarray:
    """Marginal penalty per integer load value, for every load the
    stream can reach.  Built through the same whole-array ufunc loop
    as the reference's per-edge vector (NumPy's SIMD pow is not
    bit-identical to the float64 scalar operator, and is verified
    value-deterministic across array shapes by the equivalence pins),
    so table lookups reproduce the reference's floats exactly."""
    vals = np.arange(num_edges + 2, dtype=np.float64)
    a = load_exponent
    return gamma * ((vals + 1.0) ** a - vals ** a)


class FennelEdgePartitioner(StreamingEdgePartitioner):
    """One-pass FENNEL scoring over the edge stream."""

    name = "fennel"

    def __init__(self, num_partitions: int, seed: int = 0,
                 load_exponent: float = 1.5, gamma: float | None = None,
                 shuffle: bool = True, kernel: str = "vectorized"):
        super().__init__(num_partitions, seed, shuffle=shuffle,
                         kernel=kernel)
        if load_exponent <= 1.0:
            raise ValueError("load_exponent must be > 1 (convex penalty)")
        self.load_exponent = load_exponent
        self.gamma = gamma

    def _resolve_gamma(self, graph: CSRGraph) -> float:
        if self.gamma is not None:
            return self.gamma
        p = self.num_partitions
        m = max(graph.num_edges, 1)
        a = self.load_exponent
        # Classic FENNEL scaling adapted to edge loads.
        gamma = np.sqrt(p) * m / (m / p) ** a if p > 1 else 0.0
        return gamma / m  # normalise so penalties are O(1) per edge

    def _result(self, graph: CSRGraph, assignment: np.ndarray,
                gamma: float) -> EdgePartition:
        return EdgePartition(graph, self.num_partitions, assignment,
                             method=self.name,
                             extra={"gamma": float(gamma),
                                    "load_exponent": self.load_exponent})

    def _partition_vectorized(self, graph: CSRGraph) -> EdgePartition:
        gamma = self._resolve_gamma(graph)
        order = self.stream_order(graph.num_edges)
        pen = _penalty_table(graph.num_edges, gamma, self.load_exponent)

        def balance(levels):
            return (-pen[levels]).tolist()

        ones = np.broadcast_to(1.0, graph.num_edges)
        assignment = np.empty(graph.num_edges, dtype=np.int64)
        assignment[order] = walk_edge_stream(
            graph.edges[order, 0], graph.edges[order, 1],
            self.num_partitions, ones, ones, balance)
        return self._result(graph, assignment, gamma)

    def _partition_python(self, graph: CSRGraph) -> EdgePartition:
        p = self.num_partitions
        a = self.load_exponent
        gamma = self._resolve_gamma(graph)
        order = self.stream_order(graph.num_edges)

        use_bitmask = p <= 64
        if use_bitmask:
            replicas = np.zeros(graph.num_vertices, dtype=np.uint64)
        else:
            replica_sets = [set() for _ in range(graph.num_vertices)]
        loads = np.zeros(p, dtype=np.float64)
        assignment = np.empty(graph.num_edges, dtype=np.int64)
        part_ids = np.arange(p)

        for eid in order:
            u, v = graph.edges[eid]
            if use_bitmask:
                in_u = (replicas[u] >> part_ids.astype(np.uint64)) & np.uint64(1)
                in_v = (replicas[v] >> part_ids.astype(np.uint64)) & np.uint64(1)
                locality = in_u.astype(np.float64) + in_v.astype(np.float64)
            else:
                locality = np.array(
                    [(q in replica_sets[u]) + (q in replica_sets[v])
                     for q in part_ids], dtype=np.float64)
            penalty = gamma * ((loads + 1.0) ** a - loads ** a)
            target = int(np.argmax(locality - penalty))

            assignment[eid] = target
            loads[target] += 1.0
            if use_bitmask:
                bit = np.uint64(1) << np.uint64(target)
                replicas[u] |= bit
                replicas[v] |= bit
            else:
                replica_sets[u].add(target)
                replica_sets[v].add(target)

        return self._result(graph, assignment, gamma)
