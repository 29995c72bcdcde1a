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

* ``kernel="vectorized"`` (default) — the boundary is a flat-array
  priority structure (:class:`BoundaryQueue`: parallel ``drest`` /
  ``vertex`` int64 arrays plus a boolean membership mask, batched
  ``insert_many`` and ``pop_k_min``); selection + multicast and the
  boundary/edge fold are the ``select_and_multicast`` /
  ``update_state`` kernels of
  :class:`~repro.core.fused.FusedDnePlane` — one batched
  ``replica_membership`` call, the whole multicast one
  :class:`~repro.cluster.runtime.SegmentBatch` on ``send_segments``,
  the fold a ``sorted_unique`` + scatter-add over the taken sweeps.  A
  scheduler runs one plane over all its processes; a process stepped
  directly runs its own one-machine plane (same kernel, built on the
  first such call) and reads segment mail only.
* ``kernel="python"`` — the per-pair reference, implemented here: a
  heapq/set boundary (:class:`HeapqBoundaryQueue`), a per-vertex
  ``replica_processes`` fan-out into tuple lists sent eagerly one
  message at a time, and a dict-accumulator boundary fold.  Kept as
  executable documentation of Algorithm 4 and for the golden
  equivalence tests.

Both kernels produce identical selections, identical message payloads
byte-for-byte under the accounting model (a ``(k, 2)`` int64 array and
a list of ``k`` int pairs both size to ``16k`` bytes), and identical
boundary/memory accounting — pinned by
``tests/test_kernel_equivalence.py``.
"""

from __future__ import annotations

import heapq
import time
from collections import defaultdict

import numpy as np

from repro.cluster.runtime import Process
from repro.core.allocation import TAG_BOUNDARY, TAG_EDGES, TAG_SELECT
from repro.graph.csr import first_occurrence
from repro.kernels import validate_kernel

__all__ = ["ExpansionProcess", "BoundaryQueue", "HeapqBoundaryQueue",
           "DirectSeedSource"]


class DirectSeedSource:
    """Seed lookups against in-process allocation objects.

    The expansion fallback path ("take a seed vertex from the
    co-located machine, then scan the others") needs to *query*
    allocation state; this wrapper is the in-process form used by the
    ``simulated`` and ``threads`` backends — it simply forwards to the
    allocator objects, reproducing the pre-backend direct calls.  The
    ``processes`` backend substitutes a shared-memory implementation
    with the same two-method interface (remaining-degree arrays mapped
    read-only into every worker), so the scan never crosses workers.

    Query-only by contract: seed lookups run during the selection
    superstep, when no allocation step is executing, so reads of
    allocator state race nothing.
    """

    def __init__(self, allocators):
        self._allocators = allocators

    def random_vertex(self, proc_id: int, rng) -> int | None:
        return self._allocators[proc_id].random_unallocated_vertex(rng)

    def min_degree_vertex(self, proc_id: int) -> int | None:
        return self._allocators[proc_id].min_degree_unallocated_vertex()


class HeapqBoundaryQueue:
    """Reference priority queue of ⟨Drest, vertex⟩ (heapq + set).

    ``pop_k_min`` implements ``popK-MinDrestVertices`` from
    Algorithm 4.  A vertex is never queued twice (re-insertions of an
    already-boundary vertex are dropped, set semantics per the paper's
    ``B_p``).  This is the per-pair Python implementation the
    flat-array :class:`BoundaryQueue` is pinned against.
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


class BoundaryQueue:
    """Flat-array priority queue of ⟨Drest, vertex⟩ with membership mask.

    The storage is two parallel int64 arrays (``drest`` and ``vertex``
    entries, grown geometrically) plus a boolean membership mask indexed
    by vertex id.  Because a vertex is a member at most once, every
    stored entry is live — there are no stale heap entries to skip — so
    ``pop_k_min`` can *select* the k smallest ⟨drest, vertex⟩ keys in
    one vectorized partition-select (``np.partition`` on drest, then a
    lexsort over the boundary candidates) instead of popping one node at
    a time.  The observable pop order is exactly the heapq reference's:
    ascending ⟨drest, vertex⟩, ties broken by vertex id, entry-time
    scores kept (pinned by the kernel equivalence tests).

    ``insert_many`` batch-inserts with set semantics: vertices already
    in the queue — or appearing earlier in the same batch — are dropped.
    """

    def __init__(self, num_vertices: int | None = None):
        cap = 16
        self._drest = np.empty(cap, dtype=np.int64)
        self._vertex = np.empty(cap, dtype=np.int64)
        self._size = 0
        self._member = np.zeros(int(num_vertices or 0), dtype=bool)

    def __len__(self) -> int:
        return self._size

    # -- capacity ------------------------------------------------------
    def _grow_member(self, max_vertex: int) -> None:
        if max_vertex >= len(self._member):
            grown = np.zeros(max(2 * len(self._member), max_vertex + 1),
                             dtype=bool)
            grown[:len(self._member)] = self._member
            self._member = grown

    def _grow_heap(self, need: int) -> None:
        if need > len(self._drest):
            cap = max(2 * len(self._drest), need)
            self._drest = np.concatenate(
                [self._drest[:self._size],
                 np.empty(cap - self._size, dtype=np.int64)])
            self._vertex = np.concatenate(
                [self._vertex[:self._size],
                 np.empty(cap - self._size, dtype=np.int64)])

    # -- insertion -----------------------------------------------------
    def insert(self, vertex: int, drest: int) -> None:
        self.insert_many(np.array([vertex], dtype=np.int64),
                         np.array([drest], dtype=np.int64))

    def insert_many(self, vertices: np.ndarray, drests: np.ndarray) -> None:
        """Batch insert; non-fresh vertices (already members, or second
        occurrences within the batch) are dropped, keeping the first
        score — exactly a loop of reference ``insert`` calls."""
        vertices = np.asarray(vertices, dtype=np.int64)
        drests = np.asarray(drests, dtype=np.int64)
        if not len(vertices):
            return
        self._grow_member(int(vertices.max()))
        fresh = np.flatnonzero(~self._member[vertices])
        if not len(fresh):
            return
        vs = vertices[fresh]
        # A strictly ascending batch (what the plane's update kernel
        # feeds: its keys come out of ``sorted_unique``) holds no
        # duplicate — one vector compare, no per-queue dedup scratch.
        if not (vs[1:] > vs[:-1]).all():
            fresh = fresh[first_occurrence(vs)]
            vs = vertices[fresh]
        ds = drests[fresh]
        self._member[vs] = True
        need = self._size + len(vs)
        self._grow_heap(need)
        self._drest[self._size:need] = ds
        self._vertex[self._size:need] = vs
        self._size = need

    # -- selection -----------------------------------------------------
    def pop_k_min_array(self, k: int) -> np.ndarray:
        """Pop the ``k`` minimum-⟨drest, vertex⟩ members as an ndarray."""
        size = self._size
        if size == 0 or k <= 0:
            return np.empty(0, dtype=np.int64)
        d = self._drest[:size]
        v = self._vertex[:size]
        if k >= size:
            out = v[np.lexsort((v, d))].copy()
            self._member[v] = False
            self._size = 0
            return out
        # Candidates: every entry with drest <= the k-th smallest drest
        # (a superset covering boundary ties), then an exact lexsort
        # over just the candidates.
        kth = np.partition(d, k - 1)[k - 1]
        cand = np.flatnonzero(d <= kth)
        take = cand[np.lexsort((v[cand], d[cand]))[:k]]
        out = v[take].copy()
        self._member[out] = False
        keep = np.ones(size, dtype=bool)
        keep[take] = False
        nk = size - k
        self._drest[:nk] = d[keep]
        self._vertex[:nk] = v[keep]
        self._size = nk
        return out

    def pop_k_min(self, k: int) -> list[int]:
        """List form of :meth:`pop_k_min_array` (reference-compatible)."""
        return self.pop_k_min_array(k).tolist()


class ExpansionProcess(Process):
    """Drives the expansion of one partition."""

    #: checkpoint/restore excludes: the shared placement, the injected
    #: seed source and the own one-machine plane (wiring, not state) —
    #: boundary queue, RNG, collected edges and counters all ride the
    #: snapshot.
    _STATE_EXCLUDE = Process._STATE_EXCLUDE | frozenset({
        "placement", "seed_source", "_plane"})

    def __init__(self, partition: int, num_partitions: int,
                 limit: int, total_edges: int, lam: float,
                 seed: int, placement, seed_strategy: str = "random",
                 kernel: str = "vectorized", seed_source=None):
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

        #: where the empty-boundary fallback takes seed vertices from;
        #: injected by the driver (or worker program) after construction
        #: when not given here.  See :class:`DirectSeedSource`.
        self.seed_source = seed_source
        #: the one-machine plane a directly stepped vectorized process
        #: runs its phases through (see :meth:`_own_plane`)
        self._plane = None
        self.boundary = (BoundaryQueue() if kernel == "vectorized"
                         else HeapqBoundaryQueue())
        self.edge_count = 0                     # |E_p|
        self.edge_ids: list[np.ndarray] = []    # received edge batches
        self.finished = False
        self.random_seed_requests = 0
        self.remote_seed_requests = 0
        self.selection_seconds = 0.0            # Fig 10(j) phase share
        #: modeled selection work: one op per ⟨selected vertex, replica
        #: process⟩ multicast pair — the per-machine quantity whose
        #: O(sqrt |P|) fan-out growth drives §7.4's share trend.
        #: Kernel-independent (both kernels hit identical replica sets).
        self.selection_ops = 0

    # ------------------------------------------------------------------
    # Iteration phase A: select vertices and multicast to allocators.
    # ------------------------------------------------------------------
    def _own_plane(self):
        """The one-machine plane behind a directly stepped vectorized
        process, built on the first such step (a scheduler's plane
        spans every process it owns and never comes through here)."""
        if self._plane is None:
            # fused.py imports this module.
            from repro.core.fused import FusedDnePlane
            self._plane = FusedDnePlane([self], self.placement)
        return self._plane

    def select_and_multicast(self) -> int:
        """Run the selection step.  Returns how many vertices were sent.

        The injected :attr:`seed_source` serves the empty-boundary
        fallback.
        """
        if self.kernel == "vectorized":
            return self._own_plane().run("select_and_multicast",
                                         [self.pid])[self.pid]
        if self.finished:
            return 0
        return self._select_and_multicast_python()

    def _select_and_multicast_python(self) -> int:
        """Reference selection: heapq pops, per-vertex replica fan-out
        into per-process tuple lists."""
        start = time.perf_counter()
        selected: list[int] = []
        if len(self.boundary):
            k = max(1, int(np.ceil(self.lam * len(self.boundary))))
            selected = self.boundary.pop_k_min(k)
        else:
            v = self._random_seed()
            if v is not None:
                selected = [v]
        self.selection_seconds += time.perf_counter() - start
        if not selected:
            return 0

        fanout: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for v in selected:
            procs = self.placement.replica_processes(v)
            self.selection_ops += len(procs)
            for proc in procs:
                fanout[proc].append((v, self.partition))
        for proc, payload in sorted(fanout.items()):
            self.send(("alloc", proc), TAG_SELECT, payload)
        return len(selected)

    def _random_seed(self) -> int | None:
        """Seed lookup: co-located allocator first, then remote scan.

        Remote lookups are accounted as one request/response message
        pair per scanned process (the paper takes the vertex "from the
        other machines only if necessary") through
        :meth:`~repro.cluster.runtime.Process.account_rpc_pair`, which
        parallel backends capture in the outbox instead of letting this
        step touch another process's counters mid-superstep.
        """
        seed_source = self.seed_source
        if seed_source is None:
            raise RuntimeError(
                f"expansion process {self.pid!r} hit the empty-boundary "
                "seed fallback but no seed source is available — inject "
                "seed_source (DirectSeedSource / the backend's shared-"
                "memory source) at or after construction")
        self.random_seed_requests += 1
        order = [self.partition] + [
            p for p in range(self.num_partitions) if p != self.partition]
        # Probe first, account after: the RPC pricing never touches the
        # RNG or the probes, so deferring the per-remote accounting of
        # the scanned prefix to one bulk call leaves the counters (and
        # the outbox entry sequence) identical while the O(|P|) scan
        # loop stays free of per-probe accounting dispatch.
        probed: list = []
        found = None
        min_degree = self.seed_strategy == "min_degree"
        for proc_id in order:
            if proc_id != self.partition:
                probed.append(("alloc", proc_id))
            if min_degree:
                v = seed_source.min_degree_vertex(proc_id)
            else:
                v = seed_source.random_vertex(proc_id, self.rng)
            if v is not None:
                found = v
                break
        self.remote_seed_requests += len(probed)
        # request + response, 8 bytes each way, per scanned remote
        self.account_rpc_pairs(probed, 8)
        return found

    @property
    def boundary_size(self) -> int:
        """Current boundary cardinality (gatherable across backends)."""
        return len(self.boundary)

    # ------------------------------------------------------------------
    # Iteration phase B: fold in allocation results.
    # ------------------------------------------------------------------
    def update_state(self) -> None:
        if self.kernel == "vectorized":
            self._own_plane().run("update_state", [self.pid])
            return
        drest_sums: dict[int, int] = defaultdict(int)
        for _, payload in self.receive(TAG_BOUNDARY):
            for v, local_drest in payload:
                drest_sums[int(v)] += int(local_drest)
        for v in sorted(drest_sums):
            self.boundary.insert(v, drest_sums[v])

        for _, payload in self.receive(TAG_EDGES):
            if len(payload):
                self.edge_ids.append(np.asarray(payload, dtype=np.int64))
                self.edge_count += len(payload)

        # Memory model: boundary entries + received partition edges
        # (one 64-bit edge id per collected edge).
        self.set_resident("boundary", len(self.boundary) * 16)
        self.set_resident("partition_edges", self.edge_count * 8)

    def check_termination(self, global_allocated: int) -> None:
        """Algorithm 1 line 15."""
        if self.edge_count > self.limit or global_allocated >= self.total_edges:
            self.finished = True

    # ------------------------------------------------------------------
    def collected_edge_ids(self) -> np.ndarray:
        if not self.edge_ids:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self.edge_ids)
