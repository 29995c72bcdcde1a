"""PowerGraph's greedy ("Oblivious") streaming edge partitioner [16].

Edges arrive as a stream; each is placed by the classic PowerGraph
greedy rules using only the replica sets accumulated so far:

1. if the endpoints' replica sets intersect, pick the least-loaded
   partition in the intersection;
2. else if both endpoints have replicas, pick the least-loaded
   partition among the replicas of the endpoint with more remaining
   edges (so the vertex that will need more placements keeps its
   options open);
3. else if one endpoint has replicas, pick its least-loaded partition;
4. else pick the globally least-loaded partition.

"Oblivious" refers to running this greedy independently per machine
without synchronising replica tables; as is standard in partitioning
studies (and optimistic toward the baseline), we simulate the
single-stream variant.

One implementation, no ``kernel=`` flag: the per-edge work is a couple
of small-set probes, too little for a chunked NumPy walk over
membership rows to amortise (measured 0.35 / 0.43 / 0.57× this loop at
2^12 / 2^14 / 2^17 edges, |P| = 64).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partitioners.base import EdgePartition, StreamingEdgePartitioner

__all__ = ["ObliviousPartitioner"]


class ObliviousPartitioner(StreamingEdgePartitioner):
    """Single-stream PowerGraph greedy."""

    name = "oblivious"

    # Own signature: the base's ``kernel=`` picks between two
    # implementations, and there is one here.
    def __init__(self, num_partitions: int, seed: int = 0):
        super().__init__(num_partitions, seed)

    def _partition(self, graph: CSRGraph) -> EdgePartition:
        p = self.num_partitions
        order = self.stream_order(graph.num_edges)

        replicas = [set() for _ in range(graph.num_vertices)]
        loads = np.zeros(p, dtype=np.int64)
        remaining = graph.degrees().astype(np.int64)
        assignment = np.empty(graph.num_edges, dtype=np.int64)

        for eid in order:
            u, v = graph.edges[eid]
            ru, rv = replicas[u], replicas[v]
            inter = ru & rv
            if inter:
                target = _least_loaded(inter, loads)
            elif ru and rv:
                # Rule 2: favour the endpoint with more remaining edges.
                pool = ru if remaining[u] >= remaining[v] else rv
                target = _least_loaded(pool, loads)
            elif ru or rv:
                target = _least_loaded(ru or rv, loads)
            else:
                target = int(np.argmin(loads))
            assignment[eid] = target
            ru.add(target)
            rv.add(target)
            loads[target] += 1
            remaining[u] -= 1
            remaining[v] -= 1

        return EdgePartition(graph, p, assignment, method=self.name)


def _least_loaded(candidates, loads: np.ndarray) -> int:
    """Least-loaded partition id among ``candidates`` (ties -> smaller id)."""
    best, best_load = -1, None
    for c in sorted(candidates):
        if best_load is None or loads[c] < best_load:
            best, best_load = c, loads[c]
    return best
