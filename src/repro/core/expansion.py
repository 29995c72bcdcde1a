"""Expansion process (§3.3 Algorithm 1, §5 Algorithm 4).

One expansion process per partition.  It owns the partition's boundary
— a priority queue of ⟨Drest(v), v⟩ — and per iteration:

* pops the ``k = max(1, ceil(lambda * |B|))`` lowest-scored boundary
  vertices (multi-expansion; ``lambda = 1/|B|``-equivalent single pop
  when ``lambda`` is tiny, full-boundary flush when ``lambda = 1``);
* falls back to one random seed vertex when the boundary is empty —
  preferentially from the co-located allocation process, otherwise
  scanning remote ones (accounted as remote queries);
* multicasts the selected ⟨v, p⟩ pairs to the replica processes of
  each v;
* after the allocation phases, folds the received new boundary pairs
  (summing per-process local Drest scores into global ones) and new
  edges into its state;
* checks termination: it stops expanding once ``|E_p|`` exceeds
  ``alpha |E| / |P|`` or every edge in the graph is allocated.

Boundary scores are *entry-time* scores, exactly as in the paper: a
vertex keeps the Drest it had when it entered the boundary; popping a
since-fully-allocated vertex simply allocates nothing that iteration.

Kernel architecture
-------------------
§7.4 of the paper shows the vertex-selection phase growing from <1% of
wall clock at 4 machines to 30.3% at 256 — at scale-out the selection
plane is the bottleneck, so it ships in the same two kernels as the
allocation plane:

* ``kernel="vectorized"`` (default) — the boundary is a segment of a
  :class:`BoundaryStore` behind the queue interface of
  :class:`BoundarySegment`: the
  :class:`~repro.core.fused.FusedDnePlane` over a process makes the one
  store and hands each of its expanders a segment (a process builds no
  store of its own).  Selection + multicast and the boundary/edge fold
  are the ``select_and_multicast`` /
  ``update_state`` kernels of the plane — one ``pop`` for every live
  expander, one seed-liveness query, one enumerated replica fan-out
  (``replica_hits``), the whole multicast one
  :class:`~repro.cluster.runtime.SegmentBatch` on ``send_segments``,
  the fold a ``sorted_unique`` + scatter-add over the taken sweeps
  into one ``insert``.  A scheduler runs one plane over all its
  processes, and that plane is the only way in: a vectorized
  process's own step methods raise.  The plane reads segment mail
  only.
* ``kernel="python"`` — the per-pair reference, implemented here: a
  heapq/set boundary (:class:`HeapqBoundaryQueue`), a per-vertex
  ``replica_processes`` fan-out into per-process pair lists sent as
  one sweep, a message per process, and a dict-accumulator
  boundary fold over the received rows as Python ints.  Kept as
  executable documentation of Algorithm 4 and for the golden
  equivalence tests.

Both kernels produce identical selections, identical message payloads
(the same ``(k, 2)`` int32 rows, priced ``16k`` bytes on the wire), and
identical boundary/memory accounting — pinned by
``tests/test_kernel_equivalence.py``.
"""

from __future__ import annotations

import copy
import heapq
import threading
from collections import defaultdict

import numpy as np

from repro.cluster.runtime import Process
from repro.core.allocation import (TAG_BOUNDARY, TAG_EDGES, TAG_SELECT,
                                   refuse_vectorized_step,
                                   seed_vertex_min_degree,
                                   seed_vertex_random)
from repro.graph.csr import first_occurrence
from repro.kernels import validate_kernel

__all__ = ["ExpansionProcess", "BoundaryStore", "BoundarySegment",
           "HeapqBoundaryQueue", "SharedSeedSource"]


class SharedSeedSource:
    """Seed lookups over every allocator's per-partition arrays.

    The expansion fallback path ("take a seed vertex from the
    co-located machine, then scan the others") *queries* allocation
    state: each allocator's local-vertex ids and remaining degrees,
    which the allocators themselves use — plain arrays in-process,
    shared-memory views in a worker of the processes backend, so a
    scan, remote legs included, is a local array probe on every
    backend.  The lookups are
    :func:`~repro.core.allocation.seed_vertex_random` /
    :func:`~repro.core.allocation.seed_vertex_min_degree` (candidate
    set: positive remaining degree; at most one RNG draw), and ``live``
    answers whether any edge is left (a remaining degree is positive
    iff one is).

    Query-only and safe by phase disjointness: remaining degrees are
    written only during allocation supersteps, by their owner, and
    seed scans run only during selection supersteps.
    """

    def __init__(self, local_vertices: list, rest_degrees: list):
        self._lv = local_vertices
        self._rest = rest_degrees

    def live(self) -> np.ndarray:
        """Per allocator: any vertex with a non-allocated edge left?"""
        return np.array([(rest > 0).any() for rest in self._rest], bool)

    def random_vertex(self, proc_id: int, rng) -> int | None:
        return seed_vertex_random(self._lv[proc_id], self._rest[proc_id],
                                  rng)

    def min_degree_vertex(self, proc_id: int) -> int | None:
        return seed_vertex_min_degree(self._lv[proc_id],
                                      self._rest[proc_id])


class HeapqBoundaryQueue:
    """Reference priority queue of ⟨Drest, vertex⟩ (heapq + set).

    ``pop_k_min`` implements ``popK-MinDrestVertices`` from
    Algorithm 4.  A vertex is never queued twice (re-insertions of an
    already-boundary vertex are dropped, set semantics per the paper's
    ``B_p``).  This is the per-pair Python implementation the
    segmented :class:`BoundaryStore` is pinned against.
    """

    def __init__(self):
        self._heap: list[tuple[int, int]] = []
        self._members: set[int] = set()

    def __len__(self) -> int:
        return len(self._members)

    def insert(self, vertex: int, drest: int) -> None:
        if vertex not in self._members:
            self._members.add(vertex)
            heapq.heappush(self._heap, (drest, vertex))

    def pop_k_min(self, k: int) -> list[int]:
        out: list[int] = []
        while self._heap and len(out) < k:
            _, v = heapq.heappop(self._heap)
            if v in self._members:
                self._members.discard(v)
                out.append(v)
        return out


class BoundaryStore:
    """The boundaries of many expansion processes as one segmented
    array: ``popK-MinDrestVertices`` and the boundary fold cost a
    constant number of NumPy calls however many segments take part.

    One int64 key per entry, packed ⟨segment, Drest, vertex⟩ and kept
    sorted: entry-time scores never change, so a segment's ``k`` minimum
    entries are the first ``k`` keys of its slice, in the heapq
    reference's order (ascending ⟨Drest, vertex⟩, ties to the lower
    vertex id).  Set semantics — a vertex is in a segment at most once —
    come from a second sorted key array, ⟨segment, vertex⟩: O(entries)
    like the first, no per-segment vertex table.  The Drest and vertex
    fields widen on demand and raise rather than wrap past 63 bits.

    Shares of one superstep pop and insert concurrently over disjoint
    segment sets, so every mutation runs under one lock and touches
    only the caller's segments; ``sizes`` is only ever written in
    place, so a caller may read its own segments' sizes unlocked.
    """

    def __init__(self, num_segments: int = 1):
        self._keys = self._members = np.empty(0, dtype=np.int64)
        self.sizes = np.zeros(num_segments, dtype=np.int64)  # per segment
        self._vbits = self._dbits = 0       # vertex / Drest field widths
        self._lock = threading.Lock()

    def _pack(self, segments, drests, vertices) -> np.ndarray:
        return ((segments << self._dbits | drests) << self._vbits) | vertices

    def _unpack(self, keys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        scores = keys >> self._vbits
        return (scores >> self._dbits, scores & ((1 << self._dbits) - 1),
                keys & ((1 << self._vbits) - 1))

    def _widen(self, max_vertex: int, max_drest: int) -> None:
        """Re-pack, order kept, once an id or a score outgrows its field."""
        vbits = max(self._vbits, max_vertex.bit_length())
        dbits = max(self._dbits, max_drest.bit_length())
        if (vbits, dbits) == (self._vbits, self._dbits):
            return
        if (len(self.sizes) - 1).bit_length() + dbits + vbits > 63:
            raise ValueError(f"boundary key overflow: {len(self.sizes)} "
                             f"segments, Drest {max_drest}, id {max_vertex}")
        segments, drests, vertices = self._unpack(self._keys)
        self._vbits, self._dbits = vbits, dbits
        self._keys = self._pack(segments, drests, vertices)
        self._members = np.sort(segments << vbits | vertices)

    def entries(self, segment: int) -> tuple[np.ndarray, np.ndarray]:
        """One segment as plain ``(vertices, drests)``, in pop order."""
        with self._lock:
            start = int(self.sizes[:segment].sum())
            _, drests, vertices = self._unpack(
                self._keys[start:start + int(self.sizes[segment])])
        return vertices, drests

    def pop(self, segments: np.ndarray,
            ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Remove the ``ks[i]`` minimum entries of each (distinct)
        ``segments[i]``: ``(vertices, counts)`` — the popped vertices,
        segment after segment, each in pop order, and how many each gave."""
        with self._lock:
            counts = np.clip(ks, 0, self.sizes[segments])
            starts = (np.cumsum(self.sizes) - self.sizes)[segments]
            taken = (np.repeat(starts - np.cumsum(counts) + counts, counts)
                     + np.arange(int(counts.sum()), dtype=np.int64))
            vertices = self._keys[taken] & ((1 << self._vbits) - 1)
            self._keys = np.delete(self._keys, taken)
            members = np.repeat(segments, counts) << self._vbits | vertices
            self._members = np.delete(
                self._members, np.searchsorted(self._members, members))
            self.sizes[segments] -= counts
        return vertices, counts

    def insert(self, segments: np.ndarray, vertices: np.ndarray,
               drests: np.ndarray) -> None:
        """Insert the rows ⟨``vertices[i]``, ``drests[i]``⟩ into
        ``segments[i]`` (aligned non-negative int64 arrays).  A row
        whose vertex is already in its segment — or came earlier in the
        batch — is dropped and the first score kept, exactly a loop of
        reference ``insert`` calls."""
        if not len(vertices):
            return
        with self._lock:
            self._widen(int(vertices.max()), int(drests.max()))
            members = segments << self._vbits | vertices
            fresh = np.flatnonzero(np.append(self._members, -1)[
                np.searchsorted(self._members, members)] != members)
            members = members[fresh]
            # The plane's fold arrives strictly ascending (its keys come
            # out of ``sorted_unique``) and so holds no duplicate.
            if not (members[1:] > members[:-1]).all():
                first = first_occurrence(members)
                fresh, members = fresh[first], members[first]
            self._members = np.sort(np.concatenate(
                (self._members, members)), kind="stable")
            self._keys = np.sort(np.concatenate(
                (self._keys, self._pack(segments[fresh], drests[fresh],
                                        vertices[fresh]))), kind="stable")
            self.sizes += np.bincount(segments[fresh],
                                      minlength=len(self.sizes))


class BoundarySegment:
    """One segment of a :class:`BoundaryStore` behind the interface of
    :class:`HeapqBoundaryQueue`, plus array forms: a vectorized process's
    ``boundary``, handed out by the plane that owns the store."""

    def __init__(self, store: BoundaryStore, index: int):
        self.store = store
        self.index = index

    def __len__(self) -> int:
        return int(self.store.sizes[self.index])

    def insert_many(self, vertices, drests) -> None:
        vertices = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
        self.store.insert(
            np.full(len(vertices), self.index, dtype=np.int64), vertices,
            np.atleast_1d(np.asarray(drests, dtype=np.int64)))

    insert = insert_many        # one ⟨vertex, drest⟩ row: a batch of one

    def pop_k_min_array(self, k: int) -> np.ndarray:
        """Pop the ``k`` minimum-⟨drest, vertex⟩ members as an ndarray."""
        return self.store.pop(np.array([self.index]), np.array([k]))[0]

    def pop_k_min(self, k: int) -> list[int]:
        return self.pop_k_min_array(k).tolist()

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        return self.store.entries(self.index)


class ExpansionProcess(Process):
    """Drives the expansion of one partition."""

    #: checkpoint/restore excludes: the shared placement and the seed
    #: source (wiring, not state) — RNG, collected edges and counters
    #: ride the generic snapshot, the boundary joins it in
    #: :meth:`checkpoint_state`.
    _STATE_EXCLUDE = Process._STATE_EXCLUDE | frozenset({
        "placement", "seed_source", "boundary"})

    def __init__(self, partition: int, num_partitions: int,
                 limit: int, total_edges: int, lam: float,
                 seed: int, placement, seed_strategy: str = "random",
                 kernel: str = "vectorized", *, seed_source):
        super().__init__(("expansion", partition))
        validate_kernel(kernel)
        self.partition = partition
        self.num_partitions = num_partitions
        self.limit = limit                      # alpha * |E| / |P|
        self.total_edges = total_edges
        self.lam = lam
        self.placement = placement
        self.seed_strategy = seed_strategy
        self.kernel = kernel
        self.rng = np.random.default_rng((seed, partition))

        #: where the empty-boundary fallback takes seed vertices from
        #: (a :class:`SharedSeedSource`, or any object with its three
        #: methods)
        self.seed_source = seed_source
        #: the reference's queue; under the vectorized kernel, the
        #: :class:`BoundarySegment` the plane over this process sets
        self.boundary = (HeapqBoundaryQueue() if kernel == "python"
                         else None)
        self.edge_count = 0                     # |E_p|
        self.edge_ids: list[np.ndarray] = []    # received edge batches
        self.finished = False
        self.random_seed_requests = 0
        self.remote_seed_requests = 0
        #: modeled selection work: one op per ⟨selected vertex, replica
        #: process⟩ multicast pair — the per-machine quantity whose
        #: O(sqrt |P|) fan-out growth drives §7.4's share trend.
        #: Kernel-independent (both kernels hit identical replica sets).
        self.selection_ops = 0

    def checkpoint_state(self) -> dict:
        """A vectorized boundary is a view into a store shared between
        expanders: its content rides the snapshot, as plain arrays."""
        state = super().checkpoint_state()
        state["boundary"] = (self.boundary.entries()
                             if self.kernel == "vectorized"
                             else copy.deepcopy(self.boundary))
        return state

    def restore_state(self, state: dict) -> None:
        held = state["boundary"]
        super().restore_state({key: value for key, value in state.items()
                               if key != "boundary"})
        if self.kernel != "vectorized":
            self.boundary = copy.deepcopy(held)
        else:   # into the live store: rebinding would detach the plane's
            self.boundary.pop_k_min_array(len(self.boundary))
            self.boundary.insert_many(*held)

    # ------------------------------------------------------------------
    # Iteration phase A: select vertices and multicast to allocators.
    # ------------------------------------------------------------------
    def select_and_multicast(self) -> int:
        """Run the selection step.  Returns how many vertices were sent.

        The :attr:`seed_source` serves the empty-boundary fallback.
        """
        refuse_vectorized_step(self)
        if self.finished:
            return 0
        return self._select_and_multicast_python()

    def _select_and_multicast_python(self) -> int:
        """Reference selection: heapq pops, per-vertex replica fan-out
        into per-process pair lists, one sweep of a message each."""
        selected: list[int] = []
        if len(self.boundary):
            k = max(1, int(np.ceil(self.lam * len(self.boundary))))
            selected = self.boundary.pop_k_min(k)
        else:
            v = self._random_seed()
            if v is not None:
                selected = [v]
        if not selected:
            return 0

        fanout: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for v in selected:
            procs = self.placement.replica_processes(v)
            self.selection_ops += len(procs)
            for proc in procs:
                fanout[proc].append((v, self.partition))
        self.send("alloc", TAG_SELECT, sorted(fanout.items()))
        return len(selected)

    def _random_seed(self, live: np.ndarray | None = None) -> int | None:
        """Seed lookup: co-located allocator first, then remote scan
        in ascending machine order.

        Remote lookups are accounted as one request/response message
        pair per scanned process (the paper takes the vertex "from the
        other machines only if necessary") through
        :meth:`~repro.cluster.runtime.Process.account_rpc_pairs`, which
        parallel backends capture in the outbox instead of letting this
        step touch another process's counters mid-superstep.

        ``live`` is the seed source's ``live()`` answer (the plane asks
        once per superstep; no allocation runs during selection).  A
        lookup against an allocator that is not live returns nothing
        and draws nothing, so the scan is: count the remotes up to the
        first live allocator, probe that one alone.
        """
        seed_source = self.seed_source
        if live is None:
            live = seed_source.live()
        self.random_seed_requests += 1
        own = self.partition
        first = int(live.argmax())      # lowest live id (0 when none is)
        if live[own]:
            target, scanned = own, 0
        elif live[first]:
            target, scanned = first, first + (first < own)
        else:
            target, scanned = None, self.num_partitions - 1
        found = None
        if target is not None:
            found = (seed_source.min_degree_vertex(target)
                     if self.seed_strategy == "min_degree"
                     else seed_source.random_vertex(target, self.rng))
        self.remote_seed_requests += scanned
        # request + response, 8 bytes each way, per scanned remote
        self.account_rpc_pairs(
            [("alloc", q) for q in range(scanned + (own <= scanned))
             if q != own], 8)
        return found

    @property
    def boundary_size(self) -> int:
        """Current boundary cardinality (gatherable across backends)."""
        return len(self.boundary)

    # ------------------------------------------------------------------
    # Iteration phase B: fold in allocation results.
    # ------------------------------------------------------------------
    def update_state(self) -> None:
        refuse_vectorized_step(self)
        drest_sums: dict[int, int] = defaultdict(int)
        for _, payload in self.receive(TAG_BOUNDARY):
            for v, local_drest in payload.tolist():
                drest_sums[v] += local_drest
        for v in sorted(drest_sums):
            self.boundary.insert(v, drest_sums[v])

        for _, payload in self.receive(TAG_EDGES):
            self.edge_ids.append(payload)
            self.edge_count += len(payload)

        # Memory model: boundary entries + received partition edges
        # (one 64-bit edge id per collected edge).
        self._report("boundary", len(self.boundary) * 16)
        self._report("partition_edges", self.edge_count * 8)

    def check_termination(self, global_allocated: int) -> None:
        """Algorithm 1 line 15."""
        if self.edge_count > self.limit or global_allocated >= self.total_edges:
            self.finished = True

    # ------------------------------------------------------------------
    def collected_edge_ids(self) -> np.ndarray:
        if not self.edge_ids:
            return np.empty(0, dtype=np.int32)
        return np.concatenate(self.edge_ids)
