"""Sheep — elimination-tree edge partitioner (Margo & Seltzer [35]).

Sheep translates the graph into an *elimination tree* and partitions
the tree instead of the graph:

1. order vertices by (approximate minimum) degree — the elimination
   order; low-degree vertices become deep leaves, hubs end up near the
   root;
2. build the elimination tree over the original edges: each vertex's
   parent is its lowest-ranked higher neighbour (the standard
   fill-in-free approximation Sheep's distributed variant also uses);
3. map every edge to its lower-ranked endpoint (the tree node that
   "eliminates" the edge);
4. cut the tree into ``|P|`` edge-weight-balanced connected chunks by
   greedy postorder packing, and give each edge its node's chunk.

The paper's critique — Sheep shines on graphs whose elimination
structure is shallow (webs, Twitter) and falls behind on dense socials
(Orkut, Pokec) — is a property of this construction and carries over.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partitioners.base import EdgePartition, Partitioner

__all__ = ["SheepPartitioner"]


class SheepPartitioner(Partitioner):
    """Elimination-tree partitioning with postorder chunking."""

    name = "sheep"

    def _partition(self, graph: CSRGraph) -> EdgePartition:
        n, p = graph.num_vertices, self.num_partitions
        if graph.num_edges == 0:
            return EdgePartition(graph, p,
                                 np.empty(0, dtype=np.int64),
                                 method=self.name)

        rank = _min_degree_order(graph)
        order = np.argsort(rank)  # order[i] = vertex with rank i

        # Parent = lowest-ranked neighbour with higher rank.  Ranks are
        # a permutation, so the row-wise minimum over masked neighbour
        # ranks picks a unique vertex; empty and all-lower rows stay -1.
        nbr_rank = rank[graph.indices]
        own_rank = np.repeat(rank, graph.degrees())
        cand = np.where(nbr_rank > own_rank, nbr_rank, n)   # n = +inf
        parent = np.full(n, -1, dtype=np.int64)
        rows = np.flatnonzero(np.diff(graph.indptr) > 0)
        if len(rows):
            # Empty rows occupy no slots, so consecutive non-empty row
            # starts delimit exactly the per-row segments.
            mins = np.minimum.reduceat(cand, graph.indptr[rows])
            valid = mins < n
            parent[rows[valid]] = order[mins[valid]]

        # Edge -> its lower-ranked endpoint (the eliminating node).
        u_col, v_col = graph.edges[:, 0], graph.edges[:, 1]
        owner = np.where(rank[u_col] < rank[v_col], u_col, v_col)
        edge_weight = np.bincount(owner, minlength=n).astype(np.int64)

        chunk = _postorder_pack(parent, rank, order, edge_weight, p)
        assignment = chunk[owner]
        return EdgePartition(graph, p, assignment, method=self.name)


def _min_degree_order(graph: CSRGraph) -> np.ndarray:
    """Approximate minimum-degree elimination ranks (flat-array heap).

    Degrees are decremented as neighbours get eliminated, without
    fill-in edges — the same approximation Sheep's streaming
    translation makes.

    The elimination is inherently sequential (each pop depends on the
    decrements of every earlier one), but all per-vertex state lives in
    flat int64 arrays and the heap holds *encoded* keys
    ``degree * n + vertex`` — plain machine ints, whose ordering equals
    the lexicographic ⟨degree, vertex⟩ tuples of the definition (ties
    to the lowest id) without allocating a tuple per entry.  Neighbour
    filtering, degree decrements, and key construction per elimination
    are single vectorized operations; canonical edges are deduplicated,
    so each surviving neighbour is decremented exactly once per pop.
    Ranks are pinned against the tuple-heap definition kept in
    ``tests/test_vertex_partitioners.py``.
    """
    n = graph.num_vertices
    indptr, indices = graph.indptr, graph.indices
    degree = graph.degrees().astype(np.int64)
    eliminated = np.zeros(n, dtype=bool)
    rank = np.zeros(n, dtype=np.int64)
    nn = np.int64(n)
    heap = (degree * nn + np.arange(n)).tolist()
    heapq.heapify(heap)
    next_rank = 0
    while heap:
        key = heapq.heappop(heap)
        v = key % n
        if eliminated[v]:
            continue
        if key // n != degree[v]:   # stale entry: requeue at the live key
            heapq.heappush(heap, int(degree[v]) * n + v)
            continue
        eliminated[v] = True
        rank[v] = next_rank
        next_rank += 1
        nbrs = indices[indptr[v]:indptr[v + 1]]
        live = nbrs[~eliminated[nbrs]]
        if len(live):
            degree[live] -= 1
            for k in (degree[live] * nn + live).tolist():
                heapq.heappush(heap, k)
    return rank


def _postorder_pack(parent: np.ndarray, rank: np.ndarray,
                    order: np.ndarray, edge_weight: np.ndarray,
                    p: int) -> np.ndarray:
    """Cut the elimination forest into ``p`` weight-balanced chunks.

    Processing vertices in elimination (post)order keeps each chunk a
    union of subtree fragments — Sheep's tree partitioning — while a
    greedy budget rollover keeps edge counts balanced.
    """
    n = len(parent)
    total = int(edge_weight.sum())
    budget = max(1, int(np.ceil(total / p)))
    chunk = np.full(n, -1, dtype=np.int64)
    current, acc = 0, 0
    for v in order:
        chunk[v] = current
        acc += int(edge_weight[v])
        if acc >= budget and current < p - 1:
            current += 1
            acc = 0
    return chunk
