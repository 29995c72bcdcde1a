"""XtraPuLP-style vertex partitioner (Slota et al. [42]).

XtraPuLP partitions vertices with label propagation but — unlike
Spinner — *without* an initial random allocation: labels start from
BFS-grown regions around ``|P|`` seed vertices, then two constrained
label-propagation phases alternate, one balancing vertices and one
balancing edges.  This direct construction is why the paper groups it
with the "indirect but sometimes high-quality" methods (excellent on
graphs with good locality like WebUK, poor on some socials).

Implementation: multi-source BFS seeding, then the same
capacity-constrained label walk as Spinner
(:func:`repro.core.streaming.walk_labels`, no load term), run twice
with the load measured first in vertices and then in degrees.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.streaming import walk_labels
from repro.graph.csr import CSRGraph
from repro.partitioners.base import Partitioner, VertexPartition
from repro.partitioners.vertex_to_edge import vertex_to_edge_partition

__all__ = ["XtraPuLPPartitioner"]

#: region / label capacity over the balanced share, and the pass cap
#: of each label-propagation phase
_CAPACITY_FACTOR = 1.10
_LP_ITERATIONS = 12


class XtraPuLPPartitioner(Partitioner):
    """BFS-seeded, doubly-constrained label propagation."""

    name = "xtrapulp"

    def _partition(self, graph: CSRGraph):
        vp = self.partition_vertices(graph)
        return vertex_to_edge_partition(vp, seed=self.seed)

    def partition_vertices(self, graph: CSRGraph) -> VertexPartition:
        k = self.num_partitions
        rng = np.random.default_rng(self.seed)
        labels = self._bfs_seed_labels(graph, rng)
        degrees = graph.degrees().astype(np.int64)

        # Phase 1: balance vertex counts; Phase 2: balance degree (edge)
        # counts — XtraPuLP's alternating constraint structure.
        iters1 = self._lp_phase(graph, labels, np.ones_like(degrees), rng)
        iters2 = self._lp_phase(graph, labels, np.maximum(degrees, 1), rng)

        return VertexPartition(graph, k, labels, method=self.name,
                               iterations=iters1 + iters2)

    # -- phases ----------------------------------------------------------
    def _bfs_seed_labels(self, graph: CSRGraph,
                         rng: np.random.Generator) -> np.ndarray:
        """Grow |P| BFS regions from random seeds; orphans join the
        smallest region."""
        k = self.num_partitions
        n = graph.num_vertices
        labels = np.full(n, -1, dtype=np.int64)
        seeds = rng.choice(n, size=min(k, n), replace=False)
        queues = [deque([int(s)]) for s in seeds]
        sizes = np.zeros(k, dtype=np.int64)
        capacity = int(np.ceil(_CAPACITY_FACTOR * n / k))
        for i, s in enumerate(seeds):
            labels[s] = i
            sizes[i] += 1
        active = True
        while active:
            active = False
            for i, q in enumerate(queues):
                if sizes[i] >= capacity:
                    q.clear()  # full region: stop exploring from it
                    continue
                # Round-robin, capacity-bounded expansion keeps regions
                # size-comparable even around hubs.
                budget = 64
                while q and budget and sizes[i] < capacity:
                    v = q.popleft()
                    for u in graph.neighbors(v):
                        if labels[u] == -1 and sizes[i] < capacity:
                            labels[u] = i
                            sizes[i] += 1
                            q.append(int(u))
                    budget -= 1
                if q:
                    active = True
        orphans = np.flatnonzero(labels == -1)
        for v in orphans:
            target = int(np.argmin(sizes))
            labels[v] = target
            sizes[target] += 1
        return labels

    def _lp_phase(self, graph: CSRGraph, labels: np.ndarray,
                  weights: np.ndarray, rng: np.random.Generator) -> int:
        k = self.num_partitions
        capacity = max(1.0, _CAPACITY_FACTOR * weights.sum() / k)
        return walk_labels(graph.indptr, graph.indices, labels, weights, k,
                           capacity, rng, _LP_ITERATIONS)
