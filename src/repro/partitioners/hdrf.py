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
replicated first, which suits power-law graphs.  ``lam`` weights
balance against replication; it and ``eps`` are the module constants
``_LAM`` / ``_EPS`` at the paper's 1.0.

Degrees are the true final degrees (HDRF's "offline degree" variant).

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

#: balance weight λ and balance denominator ε (Petroni et al.'s 1.0)
_LAM = 1.0
_EPS = 1.0


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

    def _result(self, graph: CSRGraph, assignment: np.ndarray
                ) -> EdgePartition:
        return EdgePartition(graph, self.num_partitions, assignment,
                             method=self.name,
                             extra={"lambda": _LAM})

    def _partition_vectorized(self, graph: CSRGraph) -> EdgePartition:
        order = self.stream_order(graph.num_edges)
        u, v = graph.edges[order, 0], graph.edges[order, 1]
        degrees = graph.degrees().astype(np.int64)
        fu, fv = _replication_weights(degrees[u], degrees[v])

        def balance(levels):
            maxload, minload = levels[-1], levels[0]
            denom = _EPS + maxload - minload
            return [_LAM * ((maxload - lv) / denom) for lv in levels]

        assignment = np.empty(graph.num_edges, dtype=np.int64)
        assignment[order] = walk_edge_stream(
            u, v, self.num_partitions, fu, fv, balance)
        return self._result(graph, assignment)

    def _partition_python(self, graph: CSRGraph) -> EdgePartition:
        p = self.num_partitions
        order = self.stream_order(graph.num_edges)
        degrees = graph.degrees().astype(np.int64)

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
            c_bal = (maxload - loads) / (_EPS + maxload - minload)
            score = g_u + g_v + _LAM * c_bal
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
