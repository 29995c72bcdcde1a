"""Hybrid Ginger — PowerLyra's Fennel-style refinement of Hybrid hash [13].

Chen et al. (EuroSys'15).  The method:

1. run Hybrid hashing (low-degree vertices grouped on their own hash
   partition, high-degree vertices scattered — see
   :class:`repro.partitioners.hashing.HybridHashPartitioner`);
2. iteratively *re-home* each low-degree vertex's edge group with a
   Fennel-derived score that trades locality against balance::

       score(v, p) = |N(v) ∩ V(E_p)|  -  gamma/2 * (|V_p| + nu * |E_p|)

   where ``|V_p|``/``|E_p|`` are the partition's current vertex/edge
   loads and ``nu`` normalises edges to vertices (``nu = |V|/|E|``).
   Moving the group moves all edges hashed by ``v``.

Per the paper, a few refinement rounds suffice; quality lands between
plain hashing and the greedy/streaming family.

Kernels: the ``"vectorized"`` kernel (default) walks the groups as
the reference does but, like :func:`repro.core.streaming.walk_labels`,
scores only ``v``'s incident-edge labels and the least-penalised label
of the rest (a label no incident edge holds scores by its penalty
alone), kept in one ``(penalty, label)``-sorted list by ``bisect``.  It
is not ``walk_labels`` itself: it histograms *edge* labels, moves whole
groups and tracks two loads.  ``"python"`` is the per-group reference
loop, pinned bit-identical by ``tests/test_streaming_equivalence.py``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort

import numpy as np

from repro.graph.csr import CSRGraph
from repro.kernels import validate_kernel
from repro.metrics.quality import partition_vertex_counts
from repro.partitioners.base import EdgePartition, Partitioner
from repro.partitioners.hashing import HYBRID_THRESHOLD, HybridHashPartitioner

__all__ = ["HybridGingerPartitioner"]

#: the Fennel load weight ``gamma`` and the refinement rounds
_GAMMA = 1.5
_ROUNDS = 3


class HybridGingerPartitioner(Partitioner):
    """Hybrid hash + Ginger (Fennel-heuristic) refinement rounds."""

    name = "hybrid_ginger"

    def __init__(self, num_partitions: int, seed: int = 0,
                 kernel: str = "vectorized"):
        super().__init__(num_partitions, seed)
        self.kernel = validate_kernel(kernel)

    def _setup(self, graph: CSRGraph):
        """Base Hybrid-hash run + the low-degree groups, shared by both
        kernels: grouping vertex -> its edge ids, ascending."""
        p = self.num_partitions
        base = HybridHashPartitioner(p, seed=self.seed).partition(graph)
        assignment = base.assignment.copy()

        deg = graph.degrees()
        u_col, v_col = graph.edges[:, 0], graph.edges[:, 1]
        group_by_u = deg[u_col] <= deg[v_col]
        group_vertex = np.where(group_by_u, u_col, v_col)
        low_eids = np.flatnonzero(deg[group_vertex] < HYBRID_THRESHOLD)
        order = np.argsort(group_vertex[low_eids], kind="stable")
        vertices, starts = np.unique(group_vertex[low_eids][order],
                                     return_index=True)
        eids = low_eids[order].tolist()
        bounds = starts.tolist() + [len(eids)]
        groups = {v: eids[lo:hi] for v, lo, hi
                  in zip(vertices.tolist(), bounds, bounds[1:])}
        return assignment, groups

    def _partition(self, graph: CSRGraph) -> EdgePartition:
        if self.kernel == "python":
            return self._partition_python(graph)
        return self._partition_vectorized(graph)

    def _partition_vectorized(self, graph: CSRGraph) -> EdgePartition:
        p = self.num_partitions
        assignment, groups = self._setup(graph)

        asg = assignment.tolist()
        ptr = graph.indptr.tolist()
        incident = graph.edge_ids.tolist()
        edge_loads = np.bincount(assignment, minlength=p).astype(
            np.float64).tolist()
        nu = graph.num_vertices / max(graph.num_edges, 1)
        half = _GAMMA / 2.0
        rng = np.random.default_rng(self.seed)

        moved_total = 0
        vertices = np.array(sorted(groups), dtype=np.int64)
        for _ in range(_ROUNDS):
            rng.shuffle(vertices)
            vertex_loads = partition_vertex_counts(
                graph, assignment, p).astype(np.float64).tolist()
            penalty = [half * (vl + nu * el)
                       for vl, el in zip(vertex_loads, edge_loads)]
            ranked = sorted(zip(penalty, range(p)))
            moved = 0
            for v in vertices.tolist():
                hist = {}
                for eid in incident[ptr[v]:ptr[v + 1]]:
                    lv = asg[eid]
                    if lv in hist:
                        hist[lv] += 1
                    else:
                        hist[lv] = 1
                top, t = -math.inf, p
                for lv, c in hist.items():
                    s = c - penalty[lv]
                    if s > top or (s == top and lv < t):
                        top, t = s, lv
                for pen, lv in ranked:           # best of the rest
                    if lv not in hist:
                        s = 0.0 - pen
                        if s > top or (s == top and lv < t):
                            t = lv
                        break
                eids = groups[v]
                current = asg[eids[0]]
                if t == current:
                    continue
                for eid in eids:
                    asg[eid] = t
                edge_loads[current] -= len(eids)
                edge_loads[t] += len(eids)
                vertex_loads[current] -= 1
                vertex_loads[t] += 1
                for lv in (current, t):
                    del ranked[bisect_left(ranked, (penalty[lv], lv))]
                    penalty[lv] = half * (vertex_loads[lv] + nu * edge_loads[lv])
                    insort(ranked, (penalty[lv], lv))
                moved += 1
            assignment[:] = asg
            moved_total += moved
            if not moved:
                break

        return EdgePartition(graph, p, assignment, method=self.name,
                             iterations=_ROUNDS,
                             extra={"moved_groups": moved_total})

    def _partition_python(self, graph: CSRGraph) -> EdgePartition:
        p = self.num_partitions
        assignment, groups = self._setup(graph)

        edge_loads = np.bincount(assignment, minlength=p).astype(np.float64)
        vertex_loads = partition_vertex_counts(
            graph, assignment, p).astype(np.float64)
        nu = graph.num_vertices / max(graph.num_edges, 1)
        rng = np.random.default_rng(self.seed)

        moved_total = 0
        vertices = np.array(sorted(groups), dtype=np.int64)
        for _ in range(_ROUNDS):
            rng.shuffle(vertices)
            moved = 0
            for v in vertices:
                eids = groups[int(v)]
                current = assignment[eids[0]]
                # Locality: neighbours' partition histogram.
                nbr_parts = np.zeros(p, dtype=np.float64)
                for eid in graph.incident_edge_ids(v):
                    nbr_parts[assignment[eid]] += 1.0
                penalty = (_GAMMA / 2.0) * (vertex_loads + nu * edge_loads)
                score = nbr_parts - penalty
                target = int(np.argmax(score))
                if target != current:
                    for eid in eids:
                        assignment[eid] = target
                    edge_loads[current] -= len(eids)
                    edge_loads[target] += len(eids)
                    # Vertex-load bookkeeping kept approximate (exact
                    # recount once per round below) for speed.
                    vertex_loads[current] -= 1
                    vertex_loads[target] += 1
                    moved += 1
            vertex_loads = partition_vertex_counts(
                graph, assignment, p).astype(np.float64)
            moved_total += moved
            if not moved:
                break

        return EdgePartition(graph, p, assignment, method=self.name,
                             iterations=_ROUNDS,
                             extra={"moved_groups": moved_total})

