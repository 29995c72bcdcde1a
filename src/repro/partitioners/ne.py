"""Sequential Neighbor Expansion (NE) — Zhang et al., KDD'17 [54].

The offline single-machine algorithm that §3.1 of the Distributed NE
paper recaps and that Distributed NE parallelises.  Partitions are
grown one after another:

* maintain a boundary ``B`` of vertices touching the current edge set;
* repeatedly pop ``argmin_{x in B} Drest(x)`` (the vertex whose
  remaining degree is smallest, Equation 4) and allocate all its
  remaining edges (one-hop);
* additionally allocate any remaining edge whose *both* endpoints are
  already covered by the partition (two-hop rule, Condition 5);
* stop when the partition reaches ``alpha * |E| / |P|`` edges or no
  edges remain, then start the next partition from a fresh random seed
  vertex.

Leftover edges after the final partition (possible when early
partitions hoard the budget) go to the least-loaded partitions, keeping
the balance constraint intact.

The expansion engine is shared with SNE via :class:`ExpansionState`.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.csr import CSRGraph, adjacency_slots, first_occurrence
from repro.kernels import validate_kernel
from repro.partitioners.base import (EdgePartition, Partitioner,
                                     fill_least_loaded)

__all__ = ["NEPartitioner", "ExpansionState"]


class ExpansionState:
    """Mutable state for greedy neighbour expansion over a CSR graph.

    Tracks, for the whole run: the per-edge assignment (-1 while
    unallocated) and per-vertex remaining degree; and, for the current
    partition: the covered-vertex mask and the boundary priority queue
    (a lazy-deletion heap keyed by ``Drest``).

    ``allowed`` optionally restricts which edges are visible (SNE's
    bounded buffer); ``None`` means the whole graph.

    ``kernel`` selects the expansion implementation:
    ``"vectorized"`` (default) allocates whole adjacency slices with
    masked NumPy gathers; ``"python"`` is the per-slot reference loop.
    Both produce identical assignments (pinned by the kernel
    equivalence tests).
    """

    def __init__(self, graph: CSRGraph, rng: np.random.Generator,
                 allowed: np.ndarray | None = None,
                 kernel: str = "vectorized"):
        validate_kernel(kernel)
        self.graph = graph
        self.rng = rng
        self.kernel = kernel
        self.assignment = np.full(graph.num_edges, -1, dtype=np.int64)
        self.allowed = allowed
        if allowed is None:
            self.rest_degree = graph.degrees().astype(np.int64)
        else:
            self.rest_degree = np.zeros(graph.num_vertices, dtype=np.int64)
            vis = graph.edges[allowed]
            if len(vis):
                self.rest_degree += np.bincount(
                    vis.ravel(), minlength=graph.num_vertices)
        self.unallocated = int(self.rest_degree.sum() // 2)
        # Random-probe order for seed selection.
        self._probe_order = rng.permutation(graph.num_vertices)
        self._probe_pos = 0
        # Per-partition state, reset by begin_partition().
        self.in_part = np.zeros(graph.num_vertices, dtype=bool)
        self._touched: list[int] = []
        self.boundary: list[tuple[int, int]] = []

    # -- per-partition lifecycle ----------------------------------------
    def begin_partition(self) -> None:
        """Reset covered-vertex mask and boundary for a new partition."""
        for v in self._touched:
            self.in_part[v] = False
        self._touched = []
        self.boundary = []

    def _cover(self, v: int) -> None:
        if not self.in_part[v]:
            self.in_part[v] = True
            self._touched.append(int(v))

    def push_boundary(self, v: int) -> None:
        heapq.heappush(self.boundary, (int(self.rest_degree[v]), int(v)))

    def pop_min_boundary(self) -> int | None:
        """Pop the boundary vertex with the smallest *current* Drest.

        Lazy deletion: stale entries (score changed since push) are
        skipped; zero-score vertices expand nothing and are dropped.
        """
        while self.boundary:
            score, v = heapq.heappop(self.boundary)
            current = self.rest_degree[v]
            if current == 0:
                continue
            if score != current:
                heapq.heappush(self.boundary, (int(current), v))
                continue
            return v
        return None

    def random_seed_vertex(self) -> int | None:
        """Next random vertex that still has unallocated (visible) edges."""
        n = self.graph.num_vertices
        while self._probe_pos < n:
            v = int(self._probe_order[self._probe_pos])
            if self.rest_degree[v] > 0:
                return v
            self._probe_pos += 1
        # Wrap-around pass: earlier probes may have regained visibility
        # (SNE refills buffers), so scan once more.
        hits = np.flatnonzero(self.rest_degree > 0)
        if len(hits):
            return int(hits[0])
        return None

    # -- allocation ------------------------------------------------------
    def _visible(self, eid: int) -> bool:
        return self.allowed is None or bool(self.allowed[eid])

    def allocate_edge(self, eid: int, pid: int) -> None:
        u, v = self.graph.edges[eid]
        self.assignment[eid] = pid
        self.rest_degree[u] -= 1
        self.rest_degree[v] -= 1
        self.unallocated -= 1

    def expand_vertex(self, v: int, pid: int, limit: int,
                      allocated: int) -> int:
        """Allocate ``v``'s remaining visible edges (one-hop), then any
        two-hop edges closed by the new coverage.  Returns the updated
        allocated count (stops exactly at ``limit``)."""
        if self.kernel == "vectorized":
            return self._expand_vertex_vectorized(v, pid, limit, allocated)
        return self._expand_vertex_python(v, pid, limit, allocated)

    def _expand_vertex_vectorized(self, v: int, pid: int, limit: int,
                                  allocated: int) -> int:
        """Flat-array expansion: masked slices of the vertex's incident
        edge ids, with first-occurrence dedup for the two-hop closure.

        Matches the per-slot reference walk exactly: free slots are
        taken in adjacency order up to ``limit``; hitting the limit
        anywhere in the one-hop scan skips the two-hop phase and all
        boundary pushes (the reference breaks out the same way whether
        the cap lands mid-row or on the final slot)."""
        graph = self.graph
        self._cover(v)
        s, e = graph.indptr[v], graph.indptr[v + 1]
        eids = graph.edge_ids[s:e]
        free = self.assignment[eids] == -1
        if self.allowed is not None:
            free &= self.allowed[eids]
        f = np.flatnonzero(free)
        room = limit - allocated
        if len(f) > room:
            f = f[:room]
        take = eids[f]
        nbrs = graph.indices[s:e][f]
        k = len(take)
        if k:
            self.assignment[take] = pid
            self.rest_degree[v] -= k
            self.rest_degree[nbrs] -= 1   # simple graph: nbrs distinct
            self.unallocated -= k
            allocated += k
            new_cover = nbrs[~self.in_part[nbrs]]
            self.in_part[new_cover] = True
            self._touched.extend(int(u) for u in new_cover)
        else:
            new_cover = nbrs[:0]
        if allocated >= limit:
            return allocated

        # Two-hop rule: edges between newly covered vertices and any
        # covered vertex are free (Condition 5).  Batched over all
        # newly covered rows; an edge shared by two new rows is taken
        # at its first occurrence, as in the sequential walk.
        if len(new_cover) == 0:
            return allocated
        slot_idx, counts = adjacency_slots(graph.indptr, new_cover)
        eids2 = graph.edge_ids[slot_idx]
        ok = (self.assignment[eids2] == -1) & self.in_part[graph.indices[slot_idx]]
        if self.allowed is not None:
            ok &= self.allowed[eids2]
        cand_pos = np.flatnonzero(ok)
        push_upto = len(new_cover)       # rows whose boundary push runs
        if len(cand_pos):
            cand_eids = eids2[cand_pos]
            occ = first_occurrence(cand_eids)
            cand_pos = cand_pos[occ]
            cand_eids = cand_eids[occ]
            room = limit - allocated
            if len(cand_eids) > room:
                cand_pos = cand_pos[:room]
                cand_eids = cand_eids[:room]
            if len(cand_eids):
                self.assignment[cand_eids] = pid
                ends = graph.edges[cand_eids]
                # O(candidates), not O(n): scatter-subtract only the
                # touched endpoints (duplicates accumulate).
                np.subtract.at(self.rest_degree, ends.ravel(), 1)
                allocated += len(cand_eids)
                self.unallocated -= len(cand_eids)
            if allocated >= limit:
                # The reference push-checks every row up to and
                # including the one whose allocation reached the cap,
                # then breaks.
                push_upto = int(np.searchsorted(
                    np.cumsum(counts), cand_pos[-1], side="right")) + 1
        for u in new_cover[:push_upto]:
            if self.rest_degree[u] > 0:
                self.push_boundary(int(u))
        return allocated

    def _expand_vertex_python(self, v: int, pid: int, limit: int,
                              allocated: int) -> int:
        """Reference expansion: one adjacency slot at a time."""
        indptr, indices, edge_ids = (self.graph.indptr, self.graph.indices,
                                     self.graph.edge_ids)
        self._cover(v)
        new_cover: list[int] = []
        for slot in range(indptr[v], indptr[v + 1]):
            if allocated >= limit:
                return allocated
            eid = int(edge_ids[slot])
            if self.assignment[eid] != -1 or not self._visible(eid):
                continue
            u = int(indices[slot])
            self.allocate_edge(eid, pid)
            allocated += 1
            if not self.in_part[u]:
                self._cover(u)
                new_cover.append(u)

        # Two-hop rule: edges between newly covered vertices and any
        # covered vertex are free (Condition 5).
        for u in new_cover:
            if allocated >= limit:
                break
            for slot in range(indptr[u], indptr[u + 1]):
                if allocated >= limit:
                    break
                eid = int(edge_ids[slot])
                if self.assignment[eid] != -1 or not self._visible(eid):
                    continue
                w = int(indices[slot])
                if self.in_part[w]:
                    self.allocate_edge(eid, pid)
                    allocated += 1
            if self.rest_degree[u] > 0:
                self.push_boundary(u)
        return allocated


class NEPartitioner(Partitioner):
    """Offline sequential NE with the paper's α-bounded partition sizes."""

    name = "ne"

    def __init__(self, num_partitions: int, seed: int = 0,
                 alpha: float = 1.1, kernel: str = "vectorized"):
        super().__init__(num_partitions, seed)
        if alpha < 1.0:
            raise ValueError("imbalance factor alpha must be >= 1.0")
        self.alpha = alpha
        self.kernel = validate_kernel(kernel)

    def _partition(self, graph: CSRGraph) -> EdgePartition:
        p = self.num_partitions
        rng = np.random.default_rng(self.seed)
        state = ExpansionState(graph, rng, kernel=self.kernel)
        limit = max(1, int(np.ceil(self.alpha * graph.num_edges / p)))

        for pid in range(p):
            if state.unallocated == 0:
                break
            state.begin_partition()
            allocated = 0
            while allocated < limit and state.unallocated > 0:
                v = state.pop_min_boundary()
                if v is None:
                    v = state.random_seed_vertex()
                    if v is None:
                        break
                allocated = state.expand_vertex(v, pid, limit, allocated)

        fill_least_loaded(state.assignment, p)
        return EdgePartition(graph, p, state.assignment, method=self.name,
                             extra={"alpha": self.alpha})
