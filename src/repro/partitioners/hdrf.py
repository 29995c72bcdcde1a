"""HDRF — High-Degree (are) Replicated First streaming partitioner [39].

Petroni et al. (CIKM'15).  Each streamed edge ``(u, v)`` is scored
against every partition::

    C(u, v, p) = C_rep(u, v, p) + lam * C_bal(p)

    C_rep = g(u, p) + g(v, p)
    g(w, p) = (1 + (1 - theta(w)))   if p in replicas(w) else 0
    theta(w) = d(w) / (d(u) + d(v))  (normalised degree within the edge)

    C_bal = (maxload - load(p)) / (eps + maxload - minload)

so placing the edge with an already-replicated *low*-degree endpoint
scores higher than with a high-degree one — high-degree vertices get
replicated first, which suits power-law graphs.  ``lam`` (paper default
1.0) weights balance against replication.

Degrees are the true final degrees (the "offline degree" variant);
HDRF's original also supports incremental degree estimates, selectable
with ``use_partial_degrees=True``.

Kernels: ``"vectorized"`` (default) runs
:func:`repro.core.streaming.walk_edge_stream` — the same per-edge
argmax taken over replica classes x load levels on bitmasks instead of
over all |P| partitions; ``"python"`` is the per-edge reference loop
below, kept verbatim.  ``tests/test_streaming_equivalence.py``
pins the pair bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.core.streaming import walk_edge_stream
from repro.graph.csr import CSRGraph
from repro.partitioners.base import EdgePartition, StreamingEdgePartitioner

__all__ = ["HDRFPartitioner"]


def _occurrence_counts(u: np.ndarray, v: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Partial degrees as the reference sees them: per position, how
    often each endpoint occurs in the stream up to and including that
    edge (the reference bumps both endpoints before scoring; canonical
    edge lists are loop-free, so ``u != v``)."""
    ends = np.empty(2 * len(u), dtype=np.int64)
    ends[0::2] = u
    ends[1::2] = v
    order = np.argsort(ends, kind="stable")
    sorted_ends = ends[order]
    starts = np.flatnonzero(np.r_[True, sorted_ends[1:] != sorted_ends[:-1]])
    group = np.repeat(starts, np.diff(np.r_[starts, len(ends)]))
    seen = np.empty(len(ends), dtype=np.int64)
    seen[order] = np.arange(len(ends)) - group + 1
    return seen[0::2], seen[1::2]


def _replication_weights(du: np.ndarray, dv: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Per edge, the reference's ``1 + (1 - theta)`` for each endpoint."""
    total = du + dv
    safe = np.where(total > 0, total, 1)
    return (1.0 + (1.0 - np.where(total > 0, du / safe, 0.5)),
            1.0 + (1.0 - np.where(total > 0, dv / safe, 0.5)))


class HDRFPartitioner(StreamingEdgePartitioner):
    """Streaming HDRF with the paper-default scoring."""

    name = "hdrf"

    def __init__(self, num_partitions: int, seed: int = 0,
                 lam: float = 1.0, eps: float = 1.0,
                 shuffle: bool = True, use_partial_degrees: bool = False,
                 kernel: str = "vectorized"):
        super().__init__(num_partitions, seed, shuffle=shuffle,
                         kernel=kernel)
        if eps <= 0:
            raise ValueError("eps must be > 0 (balance denominator)")
        self.lam = lam
        self.eps = eps
        self.use_partial_degrees = use_partial_degrees

    def _initial_degrees(self, graph: CSRGraph) -> np.ndarray:
        if self.use_partial_degrees:
            return np.zeros(graph.num_vertices, dtype=np.int64)
        return graph.degrees().astype(np.int64)

    def _result(self, graph: CSRGraph, assignment: np.ndarray
                ) -> EdgePartition:
        return EdgePartition(graph, self.num_partitions, assignment,
                             method=self.name,
                             extra={"lambda": self.lam})

    def _partition_vectorized(self, graph: CSRGraph) -> EdgePartition:
        order = self.stream_order(graph.num_edges)
        u, v = graph.edges[order, 0], graph.edges[order, 1]
        if self.use_partial_degrees:
            fu, fv = _replication_weights(*_occurrence_counts(u, v))
        else:
            degrees = self._initial_degrees(graph)
            fu, fv = _replication_weights(degrees[u], degrees[v])
        lam, eps = self.lam, self.eps

        def balance(levels):
            maxload, minload = levels[-1], levels[0]
            denom = eps + maxload - minload
            return [lam * ((maxload - lv) / denom) for lv in levels]

        assignment = np.empty(graph.num_edges, dtype=np.int64)
        assignment[order] = walk_edge_stream(
            u, v, self.num_partitions, fu, fv, balance)
        return self._result(graph, assignment)

    def _partition_python(self, graph: CSRGraph) -> EdgePartition:
        p = self.num_partitions
        order = self.stream_order(graph.num_edges)
        degrees = self._initial_degrees(graph)

        # replicas[v] is a bitmask over partitions (p <= 64 in all paper
        # experiments; fall back to python sets above that).
        use_bitmask = p <= 64
        if use_bitmask:
            replicas = np.zeros(graph.num_vertices, dtype=np.uint64)
        else:
            replica_sets = [set() for _ in range(graph.num_vertices)]
        loads = np.zeros(p, dtype=np.int64)
        assignment = np.empty(graph.num_edges, dtype=np.int64)
        part_range = np.arange(p)

        for eid in order:
            u, v = graph.edges[eid]
            if self.use_partial_degrees:
                degrees[u] += 1
                degrees[v] += 1
            du, dv = degrees[u], degrees[v]
            total = du + dv
            theta_u = du / total if total else 0.5
            theta_v = dv / total if total else 0.5

            if use_bitmask:
                in_u = (replicas[u] >> part_range.astype(np.uint64)) & np.uint64(1)
                in_v = (replicas[v] >> part_range.astype(np.uint64)) & np.uint64(1)
            else:
                in_u = np.array([q in replica_sets[u] for q in part_range])
                in_v = np.array([q in replica_sets[v] for q in part_range])

            g_u = in_u * (1.0 + (1.0 - theta_u))
            g_v = in_v * (1.0 + (1.0 - theta_v))
            maxload, minload = loads.max(), loads.min()
            c_bal = (maxload - loads) / (self.eps + maxload - minload)
            score = g_u + g_v + self.lam * c_bal
            target = int(np.argmax(score))

            assignment[eid] = target
            loads[target] += 1
            if use_bitmask:
                bit = np.uint64(1) << np.uint64(target)
                replicas[u] |= bit
                replicas[v] |= bit
            else:
                replica_sets[u].add(target)
                replica_sets[v].add(target)

        return self._result(graph, assignment)
