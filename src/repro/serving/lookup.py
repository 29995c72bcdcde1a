"""Read-path speed rungs: mmap'd arrays, hot-vertex LRU, bulk kernels.

:class:`LookupService` is the layer between the HTTP API and the
:class:`~repro.serving.store.RunStore` that makes single lookups cheap
and bulk lookups vectorized:

* **mmap'd run arrays** — per run, the flat edge-assignment array and
  the vertex→replica-set CSR (``indptr`` / ``parts``) are opened once
  through :meth:`RunStore.mmap_array` and kept in a small per-run LRU;
  the OS page cache holds the hot pages, nothing is copied per
  request.
* **hot-vertex LRU** — single-vertex lookups hit an in-process LRU of
  ``(run_id, vertex) → partitions`` tuples before touching the arrays
  at all (the head of a skewed-degree graph is a tiny fraction of V
  but most of the traffic); :meth:`cache_info` exposes hit/miss
  counters so the bench can report honest hit rates.
* **dual-kernel bulk lookups** — ``bulk_vertex_lookup`` /
  ``bulk_edge_lookup`` follow the repo-wide contract: a
  ``kernel="vectorized"`` flat-array implementation (one
  :func:`~repro.graph.csr.adjacency_slots` gather over the replica
  CSR, one fancy-index over the assignment array) and a
  ``kernel="python"`` per-item reference loop, pinned bit-identical by
  ``tests/test_run_store.py`` — same counts, same flat partition
  stream, for every vertex batch.
* **keyset listings from the same CSR** — :meth:`LookupService.boundary_page`
  (vertices with ≥ 2 replicas) and :meth:`LookupService.replica_page`
  (the vertices one partition holds) scan the mmap'd ``indptr`` /
  ``parts`` forward from the cursor, in chunks that double until the
  page plus one probe item is found, so a page costs about its own
  length, not |V|; there is no second, row-wise copy of the relation.

Out-of-range ids raise :class:`LookupRangeError` (the API maps it to
HTTP 400) *before* any partial work, so both kernels fail identically.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.graph.csr import adjacency_slots
from repro.kernels import validate_kernel
from repro.serving.store import RunStore

__all__ = ["LookupService", "LookupRangeError"]

#: first chunk a listing scans past its cursor (doubled per chunk)
SCAN_CHUNK = 4096


class LookupRangeError(ValueError):
    """A vertex/edge id is outside the run's graph."""


class _LRU:
    """Tiny thread-safe LRU (OrderedDict move-to-end discipline)."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            try:
                self._data.move_to_end(key)
            except KeyError:
                self.misses += 1
                return None
            self.hits += 1
            return self._data[key]

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)


class _RunArrays:
    """The mmap'd flat arrays of one run, and its |P|."""

    __slots__ = ("num_partitions", "assignment", "indptr", "parts")

    def __init__(self, store: RunStore, run_id: int):
        self.num_partitions = store.get_run(run_id)["num_partitions"]
        self.assignment = store.mmap_array(run_id, "edge_assignment")
        self.indptr = store.mmap_array(run_id, "replica_indptr")
        self.parts = store.mmap_array(run_id, "replica_parts")

    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.assignment)


class LookupService:
    """Cached, kernelised lookups over a :class:`RunStore`."""

    def __init__(self, store: RunStore, *, hot_vertices: int = 4096,
                 max_runs: int = 8):
        self.store = store
        self._runs = _LRU(max_runs)
        self._hot = _LRU(hot_vertices)

    # -- run arrays ----------------------------------------------------
    def run_arrays(self, run_id: int) -> _RunArrays:
        arrays = self._runs.get(run_id)
        if arrays is None:
            arrays = _RunArrays(self.store, run_id)
            self._runs.put(run_id, arrays)
        return arrays

    def cache_info(self) -> dict:
        """Hit/miss counters of the hot-vertex LRU (for the bench)."""
        return {"hits": self._hot.hits, "misses": self._hot.misses,
                "entries": len(self._hot),
                "capacity": self._hot.capacity}

    def run_cache_info(self) -> dict:
        """Hit/miss counters of the per-run mmap-array LRU."""
        return {"hits": self._runs.hits, "misses": self._runs.misses,
                "entries": len(self._runs),
                "capacity": self._runs.capacity}

    # -- single lookups ------------------------------------------------
    def vertex_lookup(self, run_id: int, vertex: int) -> tuple:
        """Replica set of one vertex, through the hot-vertex LRU."""
        key = (run_id, vertex)
        cached = self._hot.get(key)
        if cached is not None:
            return cached
        arrays = self.run_arrays(run_id)
        if not 0 <= vertex < arrays.num_vertices:
            raise LookupRangeError(
                f"vertex {vertex} out of range [0, {arrays.num_vertices})")
        value = tuple(
            arrays.parts[arrays.indptr[vertex]:
                         arrays.indptr[vertex + 1]].tolist())
        self._hot.put(key, value)
        return value

    def edge_lookup(self, run_id: int, edge_id: int) -> int:
        arrays = self.run_arrays(run_id)
        if not 0 <= edge_id < arrays.num_edges:
            raise LookupRangeError(
                f"edge {edge_id} out of range [0, {arrays.num_edges})")
        return int(arrays.assignment[edge_id])

    # -- bulk kernels --------------------------------------------------
    def bulk_vertex_lookup(self, run_id: int, vertices,
                           kernel: str = "vectorized"
                           ) -> tuple[np.ndarray, np.ndarray]:
        """Replica sets of a vertex batch.

        Returns ``(counts, flat)``: ``counts[i]`` replicas for
        ``vertices[i]``, and ``flat`` their concatenated partition
        ids in input order — the CSR-slice form, so a million-vertex
        answer is two flat arrays, not a million Python lists.  Both
        kernels return bit-identical arrays.
        """
        validate_kernel(kernel)
        arrays = self.run_arrays(run_id)
        vs = np.asarray(vertices, dtype=np.int64)
        if vs.ndim != 1:
            raise LookupRangeError("vertices must be a flat id list")
        if len(vs) and (vs.min() < 0 or vs.max() >= arrays.num_vertices):
            raise LookupRangeError(
                f"vertex ids out of range [0, {arrays.num_vertices})")
        if kernel == "python":
            counts, flat = [], []
            for v in vs.tolist():
                row = arrays.parts[arrays.indptr[v]:
                                   arrays.indptr[v + 1]].tolist()
                counts.append(len(row))
                flat.extend(row)
            return (np.asarray(counts, dtype=np.int64),
                    np.asarray(flat, dtype=np.int64))
        indptr = np.asarray(arrays.indptr)
        slot_idx, counts = adjacency_slots(indptr, vs)
        return counts.astype(np.int64), np.asarray(
            arrays.parts)[slot_idx].astype(np.int64)

    def bulk_edge_lookup(self, run_id: int, edge_ids,
                         kernel: str = "vectorized") -> np.ndarray:
        """Partition ids of an edge-id batch (bit-identical kernels)."""
        validate_kernel(kernel)
        arrays = self.run_arrays(run_id)
        es = np.asarray(edge_ids, dtype=np.int64)
        if es.ndim != 1:
            raise LookupRangeError("edges must be a flat id list")
        if len(es) and (es.min() < 0 or es.max() >= arrays.num_edges):
            raise LookupRangeError(
                f"edge ids out of range [0, {arrays.num_edges})")
        if kernel == "python":
            return np.asarray([int(arrays.assignment[e])
                               for e in es.tolist()], dtype=np.int64)
        return np.asarray(arrays.assignment)[es].astype(np.int64)

    # -- keyset listings -----------------------------------------------
    def boundary_page(self, run_id: int, *, cursor: int | None = None,
                      limit: int = 50) -> tuple[list[dict], int | None]:
        """One page of boundary vertices (replica degree ≥ 2).

        Keyset pagination on vertex id: vertices ``> cursor``,
        ascending, ``limit`` per page.  Returns ``(items,
        next_cursor)`` where ``next_cursor`` is the last vertex id (or
        None on the final page).  The key is the immutable vertex id of
        one frozen run, so pages are stable no matter what other runs
        are inserted concurrently.
        """
        arrays = self.run_arrays(run_id)
        indptr = arrays.indptr
        vertices = _keyset_scan(
            lambda lo, hi: np.diff(indptr[lo:hi + 1]) >= 2,
            _after(cursor), arrays.num_vertices, limit + 1)
        items = []
        for v in vertices[:limit].tolist():
            row = arrays.parts[indptr[v]:indptr[v + 1]].tolist()
            items.append({"vertex": v, "replicas": len(row),
                          "partitions": row})
        return items, _next_cursor(vertices, limit)

    def replica_page(self, run_id: int, partition: int, *,
                     cursor: int | None = None, limit: int = 50
                     ) -> tuple[list[int], int | None]:
        """One page of the vertices replicated in ``partition``.

        Same keyset semantics as :meth:`boundary_page`.  The scan runs
        over the replica slots (``parts == partition``) from the
        cursor's row on; each hit maps back to its vertex through
        ``indptr``.
        """
        arrays = self.run_arrays(run_id)
        if not 0 <= partition < max(arrays.num_partitions, 1):
            raise LookupRangeError(
                f"run {run_id} has no partition {partition} "
                f"(|P| = {arrays.num_partitions})")
        indptr, parts = arrays.indptr, arrays.parts
        start = int(indptr[min(_after(cursor), arrays.num_vertices)])
        slots = _keyset_scan(lambda lo, hi: parts[lo:hi] == partition,
                             start, len(parts), limit + 1)
        vertices = np.searchsorted(indptr, slots, side="right") - 1
        return vertices[:limit].tolist(), _next_cursor(vertices, limit)


def _after(cursor: int | None) -> int:
    """First vertex id past ``cursor`` (clamped at 0)."""
    return 0 if cursor is None else max(int(cursor) + 1, 0)


def _next_cursor(keys: np.ndarray, limit: int) -> int | None:
    """The page's last key if the ``limit + 1`` probe found more."""
    return int(keys[limit - 1]) if len(keys) > limit else None


def _keyset_scan(test, start: int, stop: int, want: int) -> np.ndarray:
    """First ``want`` indices ``i`` in ``[start, stop)`` where ``test``
    holds, ascending.

    ``test(lo, hi)`` returns the boolean mask of ``[lo, hi)``; the scan
    asks for chunks of :data:`SCAN_CHUNK`, doubling, and stops as soon
    as ``want`` hits are in hand.
    """
    hits, found, chunk = [], 0, SCAN_CHUNK
    while start < stop and found < want:
        hi = min(stop, start + chunk)
        hit = np.flatnonzero(test(start, hi)) + start
        hits.append(hit)
        found += len(hit)
        start, chunk = hi, chunk * 2
    if not hits:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(hits)[:want]
