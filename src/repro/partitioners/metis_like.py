"""Multilevel vertex partitioner in the ParMETIS family [23].

The classic three-phase scheme:

1. **Coarsening** — repeated heavy-edge matching contracts matched
   pairs into supervertices (vertex weights accumulate, parallel edges
   merge their weights) until the graph is small;
2. **Initial partitioning** — greedy region growing on the coarsest
   graph, balanced by vertex weight;
3. **Uncoarsening + refinement** — labels are projected back level by
   level and a boundary Kernighan–Lin/FM pass moves vertices whose gain
   (reduction in weighted edge cut) is positive, respecting the balance
   constraint.

The paper's observations about this family are structural — high
memory (every coarsening level keeps a whole weighted-graph copy; we
surface that via ``extra["coarse_levels_bytes"]``) and strong quality
on low-degree graphs — and both carry over to this reimplementation.

Levels are stored as CSR arrays (sorted neighbour rows, parallel
weight array) rather than the former adjacency-of-dicts: heavy-edge
matching scans flat rows, contraction is one sorted-key segment
reduction, and ``nbytes()`` prices the arrays actually held.  NOTE:
neighbour iteration order at coarse levels therefore changed from dict
insertion order to sorted order, which shifts matching tie-breaks and
hence assignments — the affected ``benchmarks/results/*.json`` entries
were regenerated deliberately (see CHANGES.md), per the ROADMAP's
CSR-row-order note.
"""

from __future__ import annotations

import numpy as np

from repro.core.streaming import walk_labels
from repro.graph.csr import CSRGraph
from repro.partitioners.base import Partitioner, VertexPartition
from repro.partitioners.vertex_to_edge import vertex_to_edge_partition

__all__ = ["MetisLikePartitioner"]

#: part weight cap over the balanced share, and FM passes per level
_BALANCE = 1.05
_REFINE_PASSES = 4


class _Level:
    """One coarsening level: weighted CSR adjacency + projection map.

    ``indptr`` / ``nbr`` / ``wgt`` hold the symmetrised weighted
    adjacency with neighbour-sorted rows; ``coarse_of`` maps this
    level's *finer* predecessor onto it (None for the base level).
    """

    def __init__(self, indptr: np.ndarray, nbr: np.ndarray,
                 wgt: np.ndarray, vertex_weights: np.ndarray,
                 coarse_of: np.ndarray | None):
        self.indptr = indptr
        self.nbr = nbr
        self.wgt = wgt
        self.vertex_weights = vertex_weights
        self.coarse_of = coarse_of          # fine vertex -> coarse vertex

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    def row(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbour ids, edge weights) of ``v``, neighbour-sorted."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.nbr[lo:hi], self.wgt[lo:hi]

    def nbytes(self) -> int:
        """Resident size of this level's graph copy (the memory the
        paper's multilevel critique is about)."""
        return (self.indptr.nbytes + self.nbr.nbytes + self.wgt.nbytes
                + self.vertex_weights.nbytes)


class MetisLikePartitioner(Partitioner):
    """Multilevel heavy-edge-matching + FM-refinement vertex partitioner."""

    name = "metis_like"

    def _partition(self, graph: CSRGraph):
        vp = self.partition_vertices(graph)
        return vertex_to_edge_partition(vp, seed=self.seed)

    def partition_vertices(self, graph: CSRGraph) -> VertexPartition:
        rng = np.random.default_rng(self.seed)
        target = max(8 * self.num_partitions, 64)

        levels = [_base_level(graph)]
        while levels[-1].n > target:
            nxt = _coarsen(levels[-1], rng)
            if nxt.n >= levels[-1].n * 0.95:  # matching stalled
                break
            levels.append(nxt)

        labels = _region_grow(levels[-1], self.num_partitions, rng)
        for level_idx in range(len(levels) - 1, 0, -1):
            fine = levels[level_idx - 1]
            coarse_of = levels[level_idx].coarse_of
            labels = labels[coarse_of]
            labels = _fm_refine(fine, labels, self.num_partitions, rng)
        if len(levels) == 1:
            labels = _fm_refine(levels[0], labels, self.num_partitions, rng)

        total_bytes = sum(level.nbytes() for level in levels)
        return VertexPartition(
            graph, self.num_partitions, labels, method=self.name,
            iterations=len(levels),
            extra={"coarse_levels": len(levels),
                   "coarse_levels_bytes": total_bytes})


def _base_level(graph: CSRGraph) -> _Level:
    """The input graph as a unit-weight level (its own CSR copy — each
    level owns its arrays, which is what the memory model prices)."""
    weights = np.ones(graph.num_vertices, dtype=np.int64)
    return _Level(graph.indptr.copy(), graph.indices.copy(),
                  np.ones(2 * graph.num_edges, dtype=np.int64),
                  weights, None)


def _coarsen(level: _Level, rng: np.random.Generator) -> _Level:
    """Heavy-edge matching contraction."""
    n = level.n
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    for v in order:
        if match[v] != -1:
            continue
        nbrs, wgts = level.row(v)
        free = (match[nbrs] == -1) & (nbrs != v)
        if free.any():
            # Heaviest free neighbour; ties -> first in row order
            # (neighbour-sorted, so the smallest id).
            cand = np.where(free, wgts, 0)
            best = int(nbrs[np.argmax(cand)])
            match[v] = best
            match[best] = v
        else:
            match[v] = v  # unmatched: contracts alone

    # Pairs contract onto ids assigned in ascending order of their
    # smaller constituent — the order a 0..n-1 first-seen sweep yields.
    rep = np.minimum(np.arange(n, dtype=np.int64), match)
    _, coarse_of = np.unique(rep, return_inverse=True)
    next_id = int(coarse_of.max()) + 1 if n else 0

    # Contract the weighted adjacency: map both endpoints of every slot,
    # drop intra-pair slots, and merge parallel edges with one sorted
    # segment reduction.  Rows come out neighbour-sorted.
    counts = np.diff(level.indptr)
    cu = np.repeat(coarse_of, counts)
    cv = coarse_of[level.nbr]
    keep = cu != cv
    key = cu[keep] * next_id + cv[keep]
    if len(key):
        order_k = np.argsort(key, kind="stable")
        key_s = key[order_k]
        wgt_s = level.wgt[keep][order_k]
        seg = np.flatnonzero(np.concatenate(([True],
                                             key_s[1:] != key_s[:-1])))
        uniq = key_s[seg]
        merged = np.add.reduceat(wgt_s, seg)
    else:
        uniq = key
        merged = level.wgt[:0]

    indptr = np.zeros(next_id + 1, dtype=np.int64)
    np.cumsum(np.bincount(uniq // next_id, minlength=next_id),
              out=indptr[1:])
    weights = np.bincount(coarse_of, weights=level.vertex_weights,
                          minlength=next_id).astype(np.int64)
    return _Level(indptr, uniq % next_id, merged, weights, coarse_of)


def _region_grow(level: _Level, k: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Greedy balanced region growing for the initial partition."""
    n = level.n
    labels = np.full(n, -1, dtype=np.int64)
    total = int(level.vertex_weights.sum())
    capacity = _BALANCE * total / k
    loads = np.zeros(k, dtype=np.float64)

    seeds = rng.permutation(n)[:k]
    frontiers: list[list[int]] = [[] for _ in range(k)]
    for i, s in enumerate(seeds):
        if labels[s] == -1:
            labels[s] = i
            loads[i] += level.vertex_weights[s]
            frontiers[i].append(int(s))

    active = True
    while active:
        active = False
        for i in range(k):
            if loads[i] >= capacity or not frontiers[i]:
                continue
            v = frontiers[i].pop()
            for u in level.row(v)[0]:
                if labels[u] == -1 and loads[i] + level.vertex_weights[u] <= capacity:
                    labels[u] = i
                    loads[i] += level.vertex_weights[u]
                    frontiers[i].append(int(u))
            if frontiers[i]:
                active = True
    # Orphans (disconnected leftovers) go to the lightest part.
    for v in np.flatnonzero(labels == -1):
        i = int(np.argmin(loads))
        labels[v] = i
        loads[i] += level.vertex_weights[v]
    return labels


def _fm_refine(level: _Level, labels: np.ndarray, k: int,
               rng: np.random.Generator) -> np.ndarray:
    """Boundary FM: move vertices with positive cut gain, keep balance.

    The gain of moving ``v`` to ``l`` is its edge weight into ``l``
    minus its weight into its own label, so the best positive gain is
    the exact label walk's strict argmax over the weighted neighbour
    histogram, with no load term."""
    labels = labels.copy()
    capacity = _BALANCE * int(level.vertex_weights.sum()) / k
    walk_labels(level.indptr, level.nbr, labels, level.vertex_weights, k,
                capacity, rng, _REFINE_PASSES, edge_weights=level.wgt)
    return labels
