"""GAS-style distributed application engine over edge partitions.

§7.6 of the paper evaluates partitionings by running SSSP, WCC, and
PageRank on PowerLyra and measuring elapsed time, communication volume,
and workload balance.  This engine reproduces exactly the quantities
that *depend on the partitioning*:

* each partition holds its edges plus a replica of every incident
  vertex (vertex-cut execution, as in PowerGraph/PowerLyra);
* one replica per vertex is the **master** (chosen by hash among the
  replicas); the others are mirrors;
* every superstep follows gather → apply → scatter:

  - mirrors push their partial aggregates to the master
    (``8 bytes`` per pushing mirror — the gather traffic),
  - masters apply the update,
  - masters push the new value back to the mirrors of *changed*
    vertices (the scatter traffic);

* per-partition compute time is measured per superstep; the simulated
  parallel elapsed time is ``sum over supersteps of max_p(t_p)`` and
  the workload balance is ``B({total local time per partition})``
  (§7.6's WB).

Applications (:mod:`repro.apps.sssp`, :mod:`repro.apps.wcc`,
:mod:`repro.apps.pagerank`) are built on the two primitives
:meth:`DistributedGraphEngine.gather_sum` / :meth:`gather_min` plus
:meth:`scatter_changed`.

Kernel architecture
-------------------
The paper's flat-array argument (§4) applies to the execution substrate
too: per-partition state should be laid out over *compacted local
vertex ids* (a dense ``0..|V_p|`` relabeling of the partition's covered
set) so every superstep touches O(m_p + |V_p|) memory, not O(n) dense
temporaries per partition.  Two kernels are provided:

* ``kernel="vectorized"`` (default) — all partitions' gathers run as
  ONE fused flat computation: the per-partition compacted id spaces are
  concatenated into a single ``0..Σ|V_p|`` slot space, gather partials
  are one ``np.bincount`` scatter-add (sum) or one sorted-segment
  ``np.minimum.reduceat`` (min) over it, and the global combine is a
  second ``bincount``/``minimum.at`` through the concatenated covered
  lists.  No per-partition Python dispatch, no ``O(n)`` temporaries.
  Per-partition compute time is *attributed* from the measured fused
  kernel time proportionally to each partition's touched elements
  (``2 m_p + |V_p|``) — the deterministic cost model a simulator wants,
  free of per-partition timer noise.
* ``kernel="python"`` — the original ``np.add.at`` /
  ``np.minimum.at`` formulation over full ``O(n)`` per-partition
  temporaries with real per-partition timers, kept as the reference
  for the perf harness and the equivalence tests.

Both kernels produce bit-identical gather results: ``bincount``
accumulates each bin in the same element order as the sequential
``ufunc.at`` loop, and min is order-independent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.kernels import validate_kernel
from repro.partitioners.base import EdgePartition
from repro.partitioners.hashing import splitmix64

__all__ = ["DistributedGraphEngine", "AppRunStats"]

_VALUE_BYTES = 8


@dataclass
class AppRunStats:
    """Measurements from one application run (one Table 5 cell group)."""

    supersteps: int = 0
    comm_bytes: int = 0
    #: simulated parallel time: sum over supersteps of the slowest
    #: partition's local compute time
    elapsed_seconds: float = 0.0
    #: per-partition total local compute seconds (for WB)
    local_seconds: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def workload_balance(self) -> float:
        total = self.local_seconds
        if total.size == 0 or total.mean() == 0:
            return float("nan")
        return float(total.max() / total.mean())


class DistributedGraphEngine:
    """Vertex-cut execution substrate bound to one :class:`EdgePartition`."""

    def __init__(self, partition: EdgePartition, seed: int = 0,
                 kernel: str = "vectorized"):
        validate_kernel(kernel)
        self.partition = partition
        self.graph = partition.graph
        self.p = partition.num_partitions
        self.kernel = kernel
        n = self.graph.num_vertices

        # Per-partition local edge arrays (global vertex ids).
        self.local_src: list[np.ndarray] = []
        self.local_dst: list[np.ndarray] = []
        for pid in range(self.p):
            edges = partition.edges_of(pid)
            self.local_src.append(edges[:, 0].copy())
            self.local_dst.append(edges[:, 1].copy())

        # Replica sets: the partition's vertex→replica CSR.  Its rows
        # are pid-ascending, so ``parts`` holds every vertex's replica
        # list in turn; one stable argsort regroups the slots by
        # partition, vertices ascending inside each group.
        indptr, parts = partition.replicas
        self.replica_count = np.diff(indptr)
        slot_vertex = np.repeat(np.arange(n, dtype=np.int64),
                                self.replica_count)
        order = np.argsort(parts, kind="stable")
        #: global vertex id of each flat replica slot, grouped by pid
        self._flat_cov = slot_vertex[order]
        slot_pid = parts[order]
        sizes = np.bincount(parts, minlength=self.p)
        self.covered = covered = np.split(self._flat_cov,
                                          np.cumsum(sizes)[:-1])

        # Master election: hash picks one replica per vertex, an index
        # into its pid-ascending replica list.
        self.master = np.full(n, -1, dtype=np.int64)
        pick = splitmix64(np.arange(n), seed=seed)
        have = self.replica_count > 0
        idx = indptr[:-1][have] + (
            pick[have] % self.replica_count[have].astype(np.uint64)
        ).astype(np.int64)
        self.master[have] = parts[idx]

        #: mirrors per vertex = replicas - 1 (clipped at 0 for isolated)
        self.mirror_count = np.maximum(self.replica_count - 1, 0)

        if kernel == "vectorized":
            self._build_fused(covered, sizes, slot_pid)

    def _build_fused(self, covered: list, sizes: np.ndarray,
                     slot_pid: np.ndarray) -> None:
        """Fused flat structures for the vectorized kernels: every
        partition's compacted vertex ids are packed into one
        0..Σ|V_p| slot space (partition p's covered set occupies the
        contiguous block starting at its offset).  The incidence
        lists keep the reference accumulation order within each
        partition (dst pass then src pass, edge order), so one global
        bincount reproduces the per-partition ``ufunc.at`` folds
        bit-for-bit.  Skipped for ``kernel="python"``, which never
        reads these arrays.
        """
        offsets = np.cumsum(sizes) - sizes
        self._flat_mirror = self.master[self._flat_cov] != slot_pid
        targets, sources = [], []
        for pid in range(self.p):
            cov = covered[pid]
            src, dst = self.local_src[pid], self.local_dst[pid]
            src_c = np.searchsorted(cov, src) + offsets[pid]
            dst_c = np.searchsorted(cov, dst) + offsets[pid]
            targets.append(np.concatenate([dst_c, src_c]))
            sources.append(np.concatenate([src, dst]))
        self._flat_targets = (np.concatenate(targets) if targets
                              else np.empty(0, dtype=np.int64))
        self._flat_sources = (np.concatenate(sources) if sources
                              else np.empty(0, dtype=np.int64))
        self._num_slots = int(sizes.sum())
        perm = np.argsort(self._flat_targets, kind="stable")
        self._seg_sources = self._flat_sources[perm]
        self._seg_starts = np.searchsorted(
            self._flat_targets[perm], np.arange(self._num_slots))
        # Deterministic per-partition time attribution: share of the
        # fused kernel time proportional to touched elements.
        work = 2.0 * np.array([len(s) for s in self.local_src]) + sizes
        total_work = work.sum()
        self._work_share = (work / total_work if total_work > 0
                            else np.zeros(self.p))

    # ------------------------------------------------------------------
    # Gather primitives
    # ------------------------------------------------------------------
    def gather_sum(self, values: np.ndarray, stats: AppRunStats,
                   weight_by_degree: bool = False) -> np.ndarray:
        """Sum ``values[u]`` (optionally ``/deg(u)``) over every
        neighbour u of each vertex; returns the per-vertex totals.

        Each partition computes its local partial sums; mirrors then
        push nonzero partials to masters (counted traffic).
        """
        n = self.graph.num_vertices
        contrib = values / np.maximum(self.graph.degrees(), 1) \
            if weight_by_degree else values
        if self.kernel == "vectorized":
            # One fused pass: partials for every (partition, covered
            # vertex) slot at once, then a second bincount folds the
            # replica partials into the global totals (slots of one
            # vertex are pid-ascending, matching the reference's
            # pid-order accumulation).
            t0 = time.perf_counter()
            partial = np.bincount(self._flat_targets,
                                  weights=contrib[self._flat_sources],
                                  minlength=self._num_slots)
            total = np.bincount(self._flat_cov, weights=partial,
                                minlength=n)
            local_t = (time.perf_counter() - t0) * self._work_share
            # Comm accounting outside the timer, as in the reference.
            pushed = int(((partial != 0.0) & self._flat_mirror).sum())
        else:
            total = np.zeros(n, dtype=np.float64)
            local_t = np.zeros(self.p, dtype=np.float64)
            pushed = 0
            for pid in range(self.p):
                t0 = time.perf_counter()
                partial = np.zeros(n, dtype=np.float64)
                src, dst = self.local_src[pid], self.local_dst[pid]
                np.add.at(partial, dst, contrib[src])
                np.add.at(partial, src, contrib[dst])
                total += partial
                local_t[pid] += time.perf_counter() - t0
                # Mirrors with a nonzero partial push one value each.
                pushed += len(self.covered[pid][
                    (partial[self.covered[pid]] != 0.0)
                    & (self.master[self.covered[pid]] != pid)])
        stats.comm_bytes += pushed * _VALUE_BYTES
        stats.local_seconds += local_t
        stats.elapsed_seconds += float(local_t.max()) if self.p else 0.0
        return total

    def gather_min(self, values: np.ndarray, stats: AppRunStats,
                   active: np.ndarray, offset: float = 0.0) -> np.ndarray:
        """Min over neighbours of ``values[u] + offset`` restricted to
        active source vertices; inactive-only neighbourhoods yield inf.

        The primitive behind SSSP (offset=1 hop cost) and WCC label
        minimisation (offset=0, labels as float values).
        """
        n = self.graph.num_vertices
        best = np.full(n, np.inf, dtype=np.float64)
        if self.kernel == "vectorized":
            # Sorted-segment reduction over the fused slot space, then
            # a min-scatter through the covered lists (min is
            # order-independent, so the fold order never matters).
            t0 = time.perf_counter()
            pushed = 0
            if self._num_slots:
                srcs = self._seg_sources
                vals = np.where(active[srcs], values[srcs] + offset,
                                np.inf)
                partial = np.minimum.reduceat(vals, self._seg_starts)
                np.minimum.at(best, self._flat_cov, partial)
            local_t = (time.perf_counter() - t0) * self._work_share
            if self._num_slots:
                # Comm accounting outside the timer, as in the reference.
                pushed = int((np.isfinite(partial)
                              & self._flat_mirror).sum())
        else:
            local_t = np.zeros(self.p, dtype=np.float64)
            pushed = 0
            for pid in range(self.p):
                t0 = time.perf_counter()
                src, dst = self.local_src[pid], self.local_dst[pid]
                partial = np.full(n, np.inf, dtype=np.float64)
                mask = active[src]
                if mask.any():
                    np.minimum.at(partial, dst[mask],
                                  values[src[mask]] + offset)
                mask = active[dst]
                if mask.any():
                    np.minimum.at(partial, src[mask],
                                  values[dst[mask]] + offset)
                np.minimum(best, partial, out=best)
                local_t[pid] += time.perf_counter() - t0
                pushed += len(self.covered[pid][
                    np.isfinite(partial[self.covered[pid]])
                    & (self.master[self.covered[pid]] != pid)])
        stats.comm_bytes += pushed * _VALUE_BYTES
        stats.local_seconds += local_t
        stats.elapsed_seconds += float(local_t.max()) if self.p else 0.0
        return best

    # ------------------------------------------------------------------
    # Scatter primitive
    # ------------------------------------------------------------------
    def scatter_changed(self, changed_mask: np.ndarray,
                        stats: AppRunStats) -> None:
        """Masters broadcast new values of changed vertices to mirrors."""
        stats.comm_bytes += int(
            self.mirror_count[changed_mask].sum()) * _VALUE_BYTES

    def finish_superstep(self, stats: AppRunStats) -> None:
        stats.supersteps += 1
