"""The vectorized kernel of every Distributed NE phase.

Dispatching one step *per machine* per phase loses end-to-end at
|P| ≫ 64: each step's batch is tiny and the per-call NumPy setup floor
of ~|P| small kernel invocations dominates.  :class:`FusedDnePlane`
removes the dispatch axis: machine id becomes a *segment axis* of one
concatenated state, and each DNE phase runs as a single batched kernel
over per-machine segments (``searchsorted`` / ``np.add.at`` / stable
sorts over offset arrays instead of a Python loop over processes).

It is the *only* vectorized implementation of the phases — the DNE
code has two tiers, the ``kernel="python"`` reference in
``allocation.py`` / ``expansion.py`` and this plane.  A scheduler
builds one plane over the processes it owns (the whole cluster for the
simulated/threads backends, one worker's share for the processes
backend), and it is the only way into the kernel: a vectorized
process's own step methods raise.  A unit harness or a microbenchmark
builds its plane the same way, over the processes it steps.

The message plane between the phases is segment-level too.  A phase's
whole emission sweep is one
:class:`~repro.cluster.runtime.SegmentBatch` — one row array, segment
offsets, aligned source/destination slots — that the kernel builds
straight from its ``(source, destination)`` sort, hands to
``Process.send_segments`` (priced in one pass, stored as one mailbox
entry, one outbox entry under a parallel backend), and that the next
phase's kernel takes back whole with
``SimulatedCluster.take_segments``: ``np.repeat(dst_slots, lengths)``
is the per-row machine index, no per-``(src, dst, tag)`` object is
ever created.  Every phase issues a constant number of NumPy calls per
superstep — per machine group, where a sweep outgrows the row budget
(below) — on all three backends; what is left per process is attribute
bookkeeping (counters, residents that moved, collected edge batches).

Equivalence contract (the hard constraint, pinned by
``tests/test_kernel_equivalence.py`` and ``tests/test_backends.py``):
the plane is *observationally identical* to the reference's sequential
per-process steps — bit-identical assignments, ops counters, message
payloads, payload order, and memory reports — over any machine subset.
The mechanisms:

* **Shared mutable state, fused layout.**  Each allocator's ``alloc``
  array, ``_part_loads`` vector and membership array are re-pointed at
  row/segment *views* of one fused array (same dtype and per-machine
  shape, so ``report_memory`` totals are unchanged).  The dense
  membership array is a byte store padded to whole ``uint64`` words
  per row: pair probes and sets index its bytes, the two-hop row
  algebra reads the same rows as words (one word per row up to
  |P| = 8), and its masks come back as words.  ``rest_degree``
  stays per-process — the processes backend maps it into shared
  memory per machine.  The partition width is fixed at construction: a
  wider partition id raises instead of growing.
* **One 32-bit copy of the local CSR.**  The plane *adopts* every
  allocator's int32 local CSR (adjacency edge ids and neighbours, edge
  endpoints) into fused int32 arrays with machine offsets added, and
  the allocator drops its own — one plane per process, and the memory
  model was reported at construction.  Fused edge and vertex ids, global
  edge ids and global vertex ids must be below 2³¹: adoption past that
  raises ``ValueError`` before anything is adopted (there is no int64
  path), and every ``(id, partition)`` key is widened to int64 before it
  is multiplied (:func:`_pair_keys`).  The first-occurrence scratch
  buffers are int32 too.
* **int32 mail, held once.**  Every sweep the plane emits or parks is
  int32 — rows, offsets, slots — built int32 where its rows are made
  (no cast-after copy): the global ids the rows carry are bounded at
  adoption, and the cluster prices a segment by the declared wire
  format (8 bytes per row field), not by the held width, so the
  width moves no counter.  Products that can pass 2³¹ widen
  first (``_pair_keys``; the update fold's ``slot * G`` row key and its
  edge report's slot-pair sort key).  A phase holds its mail once: the
  taken batches are dropped as soon as they are merged, two-hop's
  ingest frees the merged mail once its present rows are gathered, and
  one-hop's allocation pass (:meth:`FusedDnePlane._allocate_one_hop`)
  returns before the sync fan-out, its temporaries freed.
* **One boundary store.**  The plane makes the one
  :class:`~repro.core.expansion.BoundaryStore` and sets each expander's
  ``boundary`` to a segment of it (as ``alloc`` is a slice; a process
  builds no store of its own): selection is one ``pop``, the fold one
  ``insert`` — under the store's lock, since shares of a superstep
  call ``run`` concurrently over disjoint pid sets.  Contents ride the
  *process* snapshots as plain arrays, not the plane's.
* **Single-pass one-hop.**  The reference walks a machine's
  (partition, vertex) groups in ascending partition order, each group
  observing the writes of earlier groups.  Only two kinds of write are
  ever observed, and neither needs the groups run one after another:
  an edge taken by an earlier slot of the walk — one first-occurrence
  over the free edge ids of all gathered adjacency slots, already in
  (machine, partition, vertex) key order, names each edge's taker
  (lowest (p, v) wins; machines are edge-disjoint) — and a membership
  bit, which a (machine, p) group reads and writes in column p alone,
  so one probe of pre-phase state is every group's pre-group probe
  and the new boundary rows are the distinct unknown (vertex, p)
  targets in event order.  Cost is the slots touched, not the number
  of groups.
* **Cost follows the rows touched.**  Dedups go through
  ``repro.graph.csr``'s ``sorted_unique`` (sort + adjacent diff) and
  ``first_occurrence`` (a scatter onto plane-owned scratch over the
  fused edge / vertex id spaces, never snapshotted; a key sort where
  the key space has no such bound) — never NumPy's ``unique``, which
  on int64 hashes and then sorts.  Each machine's replica-entry count is kept
  where bits are set (tested before set, distinct pairs) and rides
  the process snapshot, so ``report_memory`` never re-sums a
  membership matrix (``entries()`` stays as the test oracle) and
  reports only a value that moved.
* **Presence first on ingest.**  Two-hop's sync rows stay where they
  arrived: a walk-ordered row index resolves which destinations hold
  the vertex, only those rows are gathered, and only pairs whose bit
  is not yet set are deduplicated (:meth:`FusedDnePlane._ingest`).
* **Bounded sweeps.**  What one call holds at once is capped by the
  module constant ``_SWEEP_ROWS`` (2¹⁵ rows, not a knob), so the
  transient stops growing with |P|.  Two-hop cuts the call's machines,
  ascending, into contiguous groups whose queued ingest rows (parked
  one-hop rows plus delivered sync rows, read off the queues before
  anything is taken) fit the budget, and runs once per group; one-hop
  allocates in one pass and fans its new boundary rows out in
  machine-contiguous ranges whose rows × placement fan-out fit it, one
  sweep per range.  A
  machine is never split (one over budget is a group of its own), so
  every (source, destination) message is unchanged; the groups are
  exact because loads are per (machine, partition), each edge has one
  home machine, the walk is machine-major and ingest re-sorts its mail.
  A call under the budget is one group: the single-sweep code, as is.
* **Mail conservation.**  Every call but selection takes every row
  queued for the processes it runs: one-hop its ``select`` mail,
  two-hop its ``sync`` mail and both parked one-hop queues, update
  its ``boundary`` and ``edges`` mail.  After the call those counts
  (segment lengths, no row touched) must be zero, or it raises naming
  the method, iteration, machine, queue and row count: mail a step
  left behind fails the superstep that lost it, not the stall check
  iterations later.  A ``processes`` worker checks its private
  cluster.
* **Deterministic emission and ingest order.**  One stable sort by
  (machine, destination) makes a sweep's segments exactly the
  per-``(src, dst, tag)`` messages the accounting model prices, in the
  order sequential per-process steps would have sent them (machines
  ascending, destinations ascending).  On ingest, where order matters
  (two-hop's first-occurrence dedup walks each mailbox front to back),
  one stable sort of the taken segments by (destination,
  own-rows-first, source) rebuilds every mailbox's source-ascending
  order — whatever order a parallel backend replayed the sweeps in.

The plane serves ``select_and_multicast``, ``one_hop_and_sync``,
``two_hop_and_report`` and ``update_state``; ``check_termination``
stays per-process (no mail, one comparison).  It reads segment mail
only, so whoever feeds it — a scheduler's previous phase or a test
harness — delivers a ``SegmentBatch``.  Vectorized kernel only — the
reference kernel keeps its per-process steps, one ``send`` sweep per
step and tag.

Invariants pinned by the tests — where to look when a change here
breaks CI:

* plane == python reference on assignments and every accounting total
  at |P| ∈ {4, 64, 256}, and one plane per machine == one plane over
  the whole cluster (what each ``processes`` worker's plane relies on):
  ``tests/test_kernel_equivalence.py::TestFusedDispatchEquivalence``
  (also: incremental replica count == ``entries()`` after every
  phase; per superstep one ``adjacency_slots`` gather, one store
  ``pop``, at most one ``insert``, and at most one
  ``_resolve_multi_shared`` per two-hop machine group);
  store == one heapq reference per segment:
  ``tests/test_expansion_process.py``; no NumPy ``unique`` here or in
  ``expansion.py``: ``tests/test_source_guards.py``;
* the superstep *ledger* is backend-invariant: empty-mailbox
  short-circuits are decided by the driver and submitted as counted
  no-ops (``steps_skipped``), never silently elided, so
  checkpoint/resume and fault-recovery replay see the same step
  sequence on every backend (``tests/test_backends.py``,
  ``tests/test_faults.py``);
* a ``SegmentBatch`` delivery equals one ``send`` per segment on
  every counter and on mailbox order, and the number of mailbox
  entries per superstep and machine group does not depend on |P|; an
  int32 sweep prices like its int64 twin, and a row past int32 raises:
  ``tests/test_cluster_batched.py``;
* bounded sweeps — a run cut into many machine groups by a small
  budget == the one-group run == the python reference on every
  backend, the grouping rule, a crash-then-resume in groups:
  ``tests/test_kernel_equivalence.py::TestBoundedSweeps``, the
  ``..._in_machine_groups`` resume case in ``tests/test_faults.py``,
  and the ``rmat13_p256`` / ``rmat11_p256`` ``tracemalloc`` ceilings;
* one 32-bit copy — fused arrays int32, no allocator copy, the 2³¹
  bound, widened keys:
  ``TestFusedDispatchEquivalence::test_scheduler_plane_adopts_the_local_csr_as_int32``
  and the four tests after it (the global vertex bound and the update
  kernel's widened products among them), an AST guard against
  ``astype(np.int64)`` in the constructor
  (``tests/test_source_guards.py``), and a ``tracemalloc`` ceiling per
  edge:
  ``benchmarks/perf/test_perf_smoke.py::test_dne_traced_peak_bytes_per_edge_under_ceiling``;
* the ``dne_p256`` end-to-end speedup floor:
  ``benchmarks/perf/test_perf_smoke.py::test_dne_p256_end_to_end_at_least_2x``
  (CI perf-smoke matrix, its own entry).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.runtime import SegmentBatch, SegmentQueue
from repro.core.allocation import (DENSE_MEMBERSHIP_MAX_PARTITIONS,
                                   TAG_BOUNDARY, TAG_EDGES, TAG_SELECT,
                                   TAG_SYNC, AllocationProcess)
from repro.core.expansion import (BoundarySegment, BoundaryStore,
                                  ExpansionProcess)
from repro.graph.csr import (adjacency_slots, first_occurrence,
                             sorted_unique)

__all__ = ["FusedDnePlane"]


#: the plane holds fused ids as int32: an id space past this raises
_FUSED_ID_BOUND = 2 ** 31

#: rows one sweep may hold at once: two-hop ingests, and one-hop fans
#: out, machine group by machine group under this budget (a machine
#: over it is a group of its own); a call under it is one group
_SWEEP_ROWS = 1 << 15


def _budget_groups(sizes, budget: int) -> list:
    """Cut items of ``sizes`` (in order) into contiguous ``(lo, hi)``
    ranges, covering them all, whose sizes sum to at most ``budget`` —
    greedily, so an item over budget is a range of its own and items
    that fit together form one range."""
    if sum(sizes) <= budget:
        return [(0, len(sizes))] if len(sizes) else []
    groups, lo, total = [], 0, 0
    for i, size in enumerate(sizes):
        if i > lo and total + size > budget:
            groups.append((lo, i))
            lo, total = i, 0
        total += size
    groups.append((lo, len(sizes)))
    return groups


def _check_taken(method: str, iteration: int | None, slots: list,
                 queued: list) -> None:
    """Raise unless every ``(queue, rows per slot)`` pair of
    ``queued`` is zero for the machines ``slots`` a ``method`` call
    ran."""
    where = "" if iteration is None else f" in iteration {iteration}"
    for name, rows in queued:
        for slot, count in zip(slots, rows):
            if count:
                raise RuntimeError(
                    f"{method}{where} left {count} {name!r} rows queued "
                    f"for machine {slot}: a machine's mail was not taken")


def _check_fused_bound(size: int, what: str) -> None:
    """Raise unless ids in ``[0, size)`` fit the plane's int32 — no
    int64 fallback, as :class:`~repro.core.expansion.BoundaryStore`
    raises rather than wraps."""
    if size > _FUSED_ID_BOUND:
        raise ValueError(
            f"fused {what} ids run to {size - 1}, past the plane's int32 "
            f"bound 2**31 - 1")


def _fuse_int32(parts, offsets: np.ndarray, what: str) -> np.ndarray:
    """``parts[i] + offsets[i]`` concatenated into one int32 array,
    where part ``i``'s ids lie in ``[offsets[i], offsets[i + 1])`` once
    offset (``offsets[-1]`` is the fused id-space size, checked first)."""
    _check_fused_bound(int(offsets[-1]), what)
    out = np.empty(sum(len(part) for part in parts), dtype=np.int32)
    lo = 0
    for part, offset in zip(parts, offsets):
        hi = lo + len(part)
        np.add(part, offset, out=out[lo:hi], casting="unsafe")
        lo = hi
    return out


def _adopt_int32(allocs, name: str, offsets: np.ndarray,
                 what: str) -> np.ndarray:
    """Fuse every allocator's local ``name`` array (:func:`_fuse_int32`)
    and drop the allocator's own copy: one copy, the plane's."""
    fused = _fuse_int32([getattr(a, name) for a in allocs], offsets, what)
    for a in allocs:
        setattr(a, name, None)
    return fused


def _pair_keys(ids: np.ndarray, ps: np.ndarray, width: int) -> np.ndarray:
    """``id * width + partition`` keys, the id widened to int64 first:
    a fused id is int32, and its product with the width would wrap."""
    return ids.astype(np.int64) * width + ps


def _runs(keys: np.ndarray):
    """``(value, start, end)`` per maximal run of equal values in
    ``keys`` (non-empty, grouped)."""
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    bounds = starts.tolist()
    bounds.append(len(keys))
    return zip(keys[starts].tolist(), bounds, bounds[1:])


def _resolve_multi_shared(member, loads: np.ndarray,
                          cand_shared: np.ndarray, tgt: np.ndarray,
                          multi: np.ndarray, cand_mi: np.ndarray) -> None:
    """Loads-delta batching for the multi-shared tie-break, every
    machine's contested edges in one call.

    The reference walks a machine's candidate edges in order,
    allocating each contested edge to the least-loaded shared
    partition under the *running* loads.  The running load of
    partition q at walk position i decomposes as::

        base[q] + #{single-shared edges before i targeting q}
                + #{contested edges before i that chose q}

    The first two terms are position-dependent but order-free: the
    single-shared prefix counts come out of one sorted-segment
    ``searchsorted`` over (partition, position) keys for every
    (contested edge, candidate) pair at once.  Only the third term
    is genuinely order-dependent, and it is nonzero only for
    contested edges whose candidate set overlaps another contested
    edge's — an edge whose candidates appear in no other contested
    edge can never receive a delta from one (a contested edge only
    ever bumps its own candidates).  Those *collisions* replay
    sequentially in walk order; isolated contested edges resolve in
    one vectorized segment-min.

    In real DNE runs the colliding edges dominate the contested set
    (hub partitions recur across candidate sets), so the speedup
    comes from the batched prefix-count base — the reference's
    inner loop over every intervening single-shared edge is gone —
    and from a replay that touches only contested edges, not from
    the isolated fast path.

    ``member`` is the membership layout ``cand_shared`` is in,
    ``loads`` the ``(machines, width)`` load rows and ``cand_mi`` each
    candidate's machine row (the walk is machine-major); loads, prefix
    counts and collisions are per machine, so ``q`` below is the slot
    ``machine * width + partition``.  Fills ``tgt[multi]`` in place; the
    caller applies the whole batch's load increments in one scatter-add.
    """
    rows, cols = member.mask_nonzero(cand_shared[multi])
    row_starts = np.searchsorted(rows, np.arange(len(multi) + 1))
    width = loads.shape[1]
    abs_pos = multi[rows]
    slots = cand_mi[abs_pos] * width + cols

    # Single-shared prefix counts per (contested edge, candidate):
    # sort the single-shared events by (machine, partition, walk
    # position), then each pair's count is one segment searchsorted.
    num_cand = len(tgt)
    single_pos = np.flatnonzero(tgt >= 0)
    single_keys = ((cand_mi[single_pos] * width + tgt[single_pos])
                   * (num_cand + 1) + single_pos)
    single_keys.sort()
    seg_lo = slots * (num_cand + 1)
    prefix = (np.searchsorted(single_keys, seg_lo + abs_pos)
              - np.searchsorted(single_keys, seg_lo))
    run_loads = loads.ravel()[slots] + prefix

    # Collision detection: candidates appearing in >1 contested edge.
    pair_shared = (np.bincount(slots)[slots] > 1).astype(np.int8)
    row_shared = np.maximum.reduceat(pair_shared, row_starts[:-1])

    # Isolated contested edges: vectorized min over (load, id) keys
    # per row segment.
    min_key = np.minimum.reduceat(run_loads * width + cols,
                                  row_starts[:-1])
    iso = np.flatnonzero(row_shared == 0)
    tgt[multi[iso]] = min_key[iso] % width

    colliding = np.flatnonzero(row_shared > 0)
    if len(colliding):
        # Sequential replay of the genuinely order-dependent tail:
        # running deltas restricted to the colliding edges' own
        # candidates (isolated decisions never touch them), one list
        # cell per distinct slot, addressed by its compact id.
        distinct = sorted_unique(slots)
        ids_l = np.searchsorted(distinct, slots).tolist()
        base_l = run_loads.tolist()
        starts_l = row_starts.tolist()
        delta = [0] * len(distinct)
        chosen = []
        for j in colliding.tolist():
            lo, hi = starts_l[j], starts_l[j + 1]
            best_k = lo
            best_v = base_l[lo] + delta[ids_l[lo]]
            for k in range(lo + 1, hi):
                v = base_l[k] + delta[ids_l[k]]
                if v < best_v:
                    best_v, best_k = v, k
            chosen.append(best_k)
            delta[ids_l[best_k]] += 1
        tgt[multi[colliding]] = cols[chosen]


class FusedDnePlane:
    """Single-kernel-call-per-phase dispatch over a set of DNE processes.

    Built over the allocation/expansion processes one scheduler owns
    (the whole cluster for the simulated/threads backends, one worker's
    share for the processes backend) or a harness steps — the only way
    to run a vectorized process's phases.  ``run`` may be called with
    any subset of the attached pids (empty-mailbox steps are
    short-circuited by the driver before dispatch).
    """

    #: step methods the plane can fuse
    methods = frozenset({"select_and_multicast", "one_hop_and_sync",
                         "two_hop_and_report", "update_state"})

    def __init__(self, processes, placement):
        allocs = sorted((p for p in processes
                         if isinstance(p, AllocationProcess)),
                        key=lambda a: a.machine)
        self._exp = {p.pid: p for p in processes
                     if isinstance(p, ExpansionProcess)}
        self._placement = placement
        owned = [*allocs, *self._exp.values()]
        if any(proc.kernel != "vectorized" for proc in owned):
            raise ValueError("FusedDnePlane requires the vectorized kernel")
        if any(a._adj_eid is None for a in allocs):
            raise ValueError("an allocator's local CSR is already adopted "
                             "by another plane")
        for a in allocs:
            a.report_memory()   # the fixed width's residents, on the books
        self._alloc_procs = allocs
        # One boundary store, a segment of it each expander's boundary.
        self._store = BoundaryStore(len(self._exp))
        #: partition -> segment of the store, -1 elsewhere
        self._seg_of = np.full(placement.num_processes, -1, dtype=np.int64)
        for seg, proc in enumerate(self._exp.values()):
            proc.boundary = BoundarySegment(self._store, seg)
            self._seg_of[proc.partition] = seg
        m = len(allocs)
        self._m = m
        self._machines = np.array([a.machine for a in allocs],
                                  dtype=np.int64)
        self._mindex = {int(a.machine): i for i, a in enumerate(allocs)}
        #: machine slot -> machine idx (the segment axis), -1 elsewhere
        self._mi_of_slot = np.full(placement.num_processes, -1,
                                   dtype=np.int64)
        self._mi_of_slot[self._machines] = np.arange(m, dtype=np.int64)
        #: one-hop outputs parked until two_hop_and_report: the new
        #: boundary (u, p) rows and the (p, edge id) allocation events,
        #: one machine-segmented batch per one-hop call (thread-pool
        #: chunks park and take disjoint machine sets concurrently)
        self._pending_bp = SegmentQueue()
        self._pending_edges = SegmentQueue()
        if not m:
            self._width = placement.num_processes
            self._g = 1
            return
        self._g = max(allocs[0].num_vertices, 1)
        width = len(allocs[0]._part_loads)
        if any(len(a._part_loads) != width for a in allocs):
            raise ValueError("allocators disagree on partition width")
        self._width = width

        # -- fused read-only layout: the allocators' local CSR, adopted
        # (int32 ids, machine offsets added; each allocator drops its
        # own copy, so there is one) ------------------------------------
        nv = np.array([len(a.local_vertices) for a in allocs],
                      dtype=np.int64)
        ne = np.array([len(a.eids) for a in allocs], dtype=np.int64)
        ns = np.array([int(a._adj_ptr[-1]) for a in allocs],
                      dtype=np.int64)
        self._voff = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(nv, out=self._voff[1:])
        self._eoff = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(ne, out=self._eoff[1:])
        soff = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(ns, out=soff[1:])
        g = self._g
        # Message rows carry global vertex ids (sync, select, boundary)
        # and global edge ids (edges) as int32: bound both before
        # anything is adopted.
        _check_fused_bound(g, "global vertex")
        _check_fused_bound(len(allocs[0].edges), "global edge")
        #: machine-major presence keys: mi * G + vertex, sorted unique
        self._vkeys = np.concatenate(
            [i * g + a.local_vertices for i, a in enumerate(allocs)])
        self._adj_ptr = np.concatenate(
            [a._adj_ptr[:-1] + soff[i] for i, a in enumerate(allocs)]
            + [soff[-1:]])
        self._adj_eid = _adopt_int32(allocs, "_adj_eid", self._eoff, "edge")
        self._adj_other = _adopt_int32(allocs, "_adj_other", self._voff,
                                       "vertex")
        self._lsrc = _adopt_int32(allocs, "_lsrc", self._voff, "vertex")
        self._ldst = _adopt_int32(allocs, "_ldst", self._voff, "vertex")
        for a in allocs:
            a._adj_ptr = None
        #: fused local edge id -> global edge id (the allocators keep
        #: theirs: views of the home-grouped id array of
        #: ``DneWorkerProgram.arrays``)
        self._eids = np.concatenate([a.eids for a in allocs],
                                    dtype=np.int32)
        #: first-occurrence scratch over fused local edge / vertex ids
        #: (machine-disjoint, so concurrent chunks never share a slot);
        #: contents are never read before written — not snapshotted
        self._edge_scratch = np.empty(self._eoff[-1], dtype=np.int32)
        self._vertex_scratch = np.empty(self._voff[-1], dtype=np.int32)

        # -- fused mutable state, re-pointed as per-machine views ------
        alloc_f = np.concatenate([a.alloc for a in allocs])
        for i, a in enumerate(allocs):
            a.alloc = alloc_f[self._eoff[i]:self._eoff[i + 1]]
        self._alloc = alloc_f
        loads = np.vstack([a._part_loads for a in allocs])
        for i, a in enumerate(allocs):
            a._part_loads = loads[i]
        self._loads = loads
        kind = allocs[0]._member.kind
        if any(a._member.kind != kind for a in allocs):
            raise ValueError("allocators disagree on membership layout")
        cls = allocs[0]._member.__class__
        self._member = cls(0, width)
        if kind == "dense":
            mat = np.concatenate([a._member._mat for a in allocs], axis=0)
            for i, a in enumerate(allocs):
                a._member._mat = mat[self._voff[i]:self._voff[i + 1]]
            self._member._mat = mat
        else:
            words = np.concatenate([a._member._words for a in allocs],
                                   axis=0)
            for i, a in enumerate(allocs):
                a._member._words = words[self._voff[i]:self._voff[i + 1]]
            self._member._words = words

    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict:
        """Snapshot the plane's cross-superstep transients.

        The fused mutable arrays are views over the attached processes'
        state and ride *their* snapshots; the only state the plane owns
        is the one-hop output parked between the one-hop and two-hop
        supersteps.  Worker supervision captures this alongside the
        per-process blobs so a worker respawned between those two
        supersteps replays two-hop on identical inputs.  Batches are
        immutable, so the snapshot shares them.
        """
        return {"pending_bp": self._pending_bp.batches(),
                "pending_edges": self._pending_edges.batches()}

    def restore_state(self, state: dict) -> None:
        self._pending_bp = SegmentQueue(state["pending_bp"])
        self._pending_edges = SegmentQueue(state["pending_edges"])

    def _park(self, pending: SegmentQueue, rows: np.ndarray,
              mi_rows: np.ndarray) -> None:
        """Park ``rows`` (grouped by machine idx ``mi_rows``) as one
        machine-segmented batch."""
        slots = self._machines[mi_rows]
        pending.put(SegmentBatch.from_runs(rows, "alloc", slots,
                                           "alloc", slots))

    # ------------------------------------------------------------------
    def run(self, method: str, pids, iteration: int | None = None) -> dict:
        """Run one fused superstep for ``pids``; returns pid -> value.
        ``iteration`` is the driver's, named by a mail-conservation
        error."""
        if method == "select_and_multicast":
            return self._run_select(pids)
        slots = [pid[1] for pid in pids]
        if method == "one_hop_and_sync":
            out = self._run_one_hop(pids)
            cluster = self._alloc_procs[self._mindex[slots[0]]].cluster
            queued = [(TAG_SELECT,
                       cluster.queued_rows("alloc", TAG_SELECT, slots))]
        elif method == "two_hop_and_report":
            out = {}
            for mis in self._two_hop_groups(pids):
                out.update(self._run_two_hop(mis))
            cluster = self._alloc_procs[self._mindex[slots[0]]].cluster
            queued = [
                (TAG_SYNC, cluster.queued_rows("alloc", TAG_SYNC, slots)),
                ("parked one-hop boundary", self._pending_bp.rows(slots)),
                ("parked one-hop edges", self._pending_edges.rows(slots))]
        elif method == "update_state":
            out = self._run_update(pids)
            cluster = self._exp[pids[0]].cluster
            queued = [(tag, cluster.queued_rows("expansion", tag, slots))
                      for tag in (TAG_BOUNDARY, TAG_EDGES)]
        else:
            raise ValueError(f"unsupported fused method {method!r}")
        _check_taken(method, iteration, slots, queued)
        return out

    # ------------------------------------------------------------------
    # Selection: one pop over every live expander's segment, one seed
    # scan, one enumerated replica fan-out, the whole multicast emitted
    # as one (source, destination)-segmented sweep.
    # ------------------------------------------------------------------
    def _run_select(self, pids) -> dict:
        values = dict.fromkeys(pids, 0)
        live = [proc for proc in map(self._exp.__getitem__, pids)
                if not proc.finished]
        if not live:
            return values
        parts = np.array([proc.partition for proc in live], dtype=np.int64)
        segs = self._seg_of[parts]
        sizes = self._store.sizes[segs]
        ks = np.ceil(np.array([proc.lam for proc in live]) * sizes)
        selected, counts = self._store.pop(
            segs, np.maximum(ks, 1).astype(np.int64))
        src_idx = np.repeat(np.arange(len(live), dtype=np.int64), counts)
        empty = np.flatnonzero(sizes == 0)
        if len(empty):
            # Empty-boundary fallback: one liveness query serves every
            # requester.
            alive = live[empty[0]].seed_source.live()
            seeds, seeders = [], []
            for i in empty.tolist():
                v = live[i]._random_seed(alive)
                if v is not None:
                    seeds.append(v)
                    seeders.append(i)
            counts[seeders] = 1
            selected = np.concatenate(
                (selected, np.array(seeds, dtype=np.int64)))
            src_idx = np.concatenate(
                (src_idx, np.array(seeders, dtype=np.int64)))
        if not len(selected):
            return values
        # int32 (vertex, partition) rows: vertex ids are bounded below
        # 2**31 where the plane adopts the graph.
        rows = np.empty((len(selected), 2), dtype=np.int32)
        rows[:, 0] = selected
        rows[:, 1] = parts[src_idx]
        vidx, dsts = self._placement.replica_hits(selected)
        hit_src = src_idx[vidx]
        ops = np.bincount(hit_src, minlength=len(live)).tolist()
        for proc, count, op in zip(live, counts.tolist(), ops):
            values[proc.pid] = count
            proc.selection_ops += op
        # Stable sort by (source, destination): within a pair, hits stay
        # in selection order — each source's per-destination segment is
        # exactly the payload the reference's per-vertex fan-out builds.
        order = np.argsort(hit_src * self._placement.num_processes + dsts,
                           kind="stable")
        live[0].send_segments(TAG_SELECT, SegmentBatch.from_runs(
            rows[vidx[order]], "expansion", parts[hit_src[order]],
            "alloc", dsts[order]))
        return values

    # ------------------------------------------------------------------
    # One-hop allocation + sync fan-out.
    # ------------------------------------------------------------------
    def _run_one_hop(self, pids) -> dict:
        mis = sorted(self._mindex[pid[1]] for pid in pids)
        out = {("alloc", int(self._machines[mi])): None for mi in mis}
        # Cluster and outbox state come from a process of THIS call's
        # subset: thread-pool chunks arm outboxes per chunk, workers
        # own a private cluster.
        carrier = self._alloc_procs[mis[0]]
        bp_rows, nt_mi = self._allocate_one_hop(carrier, mis)
        if len(bp_rows):
            # The rows are machine-major: fan out machine-contiguous
            # ranges of them whose rows × fan-out fit the sweep budget.
            starts = np.searchsorted(nt_mi, np.arange(self._m + 1)).tolist()
            fanout = self._placement.replica_count(0)
            for lo, hi in _budget_groups(
                    [(b - a) * fanout for a, b in zip(starts, starts[1:])],
                    _SWEEP_ROWS):
                a, b = starts[lo], starts[hi]
                if b > a:
                    self._send_sync(carrier, bp_rows[a:b], nt_mi[a:b])
        return out

    def _allocate_one_hop(self, carrier, mis: list):
        """One-hop's allocation pass over the sorted machine idx
        ``mis``: take their ``select`` mail, allocate, park the edge
        events and the new boundary rows.  Returns those rows — int32
        ``(vertex, partition)``, machine-major — and their machine idx,
        what the sync fan-out sends.  A method of its own, so the
        select mail and the per-slot temporaries are freed before the
        fan-out."""
        g, width, m = self._g, self._width, self._m
        nothing = np.empty((0, 2), dtype=np.int32), np.empty(0, np.int64)
        mail = carrier.cluster.take_segments(
            "alloc", TAG_SELECT, self._machines[mis].tolist())
        if not mail:
            return nothing
        select = SegmentBatch.merge(mail)
        del mail
        arr = select.rows
        m_row = np.repeat(self._mi_of_slot[select.dst_slots], select.lengths)
        if int(arr[:, 1].max()) >= width:
            raise ValueError(
                "fused dispatch cannot grow partition capacity; "
                "partition id exceeds the deployment width")
        # Dedup per (machine, partition, vertex); the keys come out
        # sorted, which is each machine's (p, v)-lexicographic
        # reference walk order.
        keys = sorted_unique((m_row * width + arr[:, 1]) * g + arr[:, 0])
        del select, arr, m_row
        mp = keys // g
        mi_r = mp // width
        p_r = mp % width
        pos, present = self._locate(mi_r * g + keys % g)
        if not present.any():
            return nothing
        lv = pos[present]
        mi_r, p_r = mi_r[present], p_r[present]

        # One pass over every adjacency slot of ``lv`` in walk order.
        alloc_f = self._alloc
        member = self._member
        slot_idx, counts = adjacency_slots(self._adj_ptr, lv)
        ops_acc = np.zeros(m, dtype=np.int64)
        np.add.at(ops_acc, mi_r, counts)
        les = self._adj_eid[slot_idx]
        free = np.flatnonzero(alloc_f[les] == -1)
        # The walk allocates a free edge at its first slot: lowest
        # (p, v) wins.  Machines are edge-disjoint (fused edge ids).
        ev = free[first_occurrence(les[free], self._edge_scratch)]
        new_les = les[ev]
        ev_t = self._adj_other[slot_idx[ev]]
        ev_row = np.searchsorted(np.cumsum(counts), ev, side="right")
        p_ev, mi_ev = p_r[ev_row], mi_r[ev_row]
        alloc_f[new_les] = p_ev
        # Membership is probed once, against pre-phase state: a (m, p)
        # group reads and writes column p only, and inside a group no
        # probe targets a vertex the group selected earlier (that
        # vertex's walk already took the shared edge).
        bits = np.bincount(mi_r[~member.test_pairs(lv, p_r)], minlength=m)
        cand = np.flatnonzero(~member.test_pairs(ev_t, p_ev))
        member.set_pairs(lv, p_r)
        # New boundary rows: distinct (vertex, p) in event order.
        cand = cand[first_occurrence(_pair_keys(ev_t[cand], p_ev[cand],
                                                width))]
        nt, nt_p, nt_mi = ev_t[cand], p_ev[cand], mi_ev[cand]
        bits += np.bincount(nt_mi[~member.test_pairs(nt, nt_p)], minlength=m)
        member.set_pairs(nt, nt_p)

        # Order-free totals applied once per machine.
        np.add.at(self._loads, (mi_ev, p_ev), 1)
        self._book_allocated(new_les, mi_ev, mis)
        for mi in mis:
            proc = self._alloc_procs[mi]
            proc.ops_one_hop += int(ops_acc[mi])
            proc._replica_count += int(bits[mi])
        if len(new_les):
            # The TAG_EDGES events, already machine-major in walk order
            # (partition groups ascending), as (partition, global edge
            # id) rows.
            ev_rows = np.empty((len(new_les), 2), dtype=np.int32)
            ev_rows[:, 0] = p_ev
            ev_rows[:, 1] = self._eids[new_les]
            self._park(self._pending_edges, ev_rows, mi_ev)
        bp_rows = np.empty((len(nt), 2), dtype=np.int32)
        if len(nt):
            bp_rows[:, 0] = self._vkeys[nt] % g
            bp_rows[:, 1] = nt_p
            self._park(self._pending_bp, bp_rows, nt_mi)
        return bp_rows, nt_mi

    def _send_sync(self, carrier, bp_rows: np.ndarray,
                   mi_rows: np.ndarray) -> None:
        """Fan new boundary rows (grouped by machine idx ``mi_rows``)
        out to every other replica machine of their vertex, as one
        sweep."""
        # Sync fan-out hits, minus each row's own machine.
        hit_v, hit_d = self._placement.replica_hits(bp_rows[:, 0])
        keep = hit_d != self._machines[mi_rows[hit_v]]
        hit_v, hit_d = hit_v[keep], hit_d[keep]
        if len(hit_v):
            # (machine asc, destination asc); hits within a pair stay in
            # group/row order — each pair's gathered segment is the
            # reference's sync_out[destination] list.
            order = np.argsort(mi_rows[hit_v] * self._width + hit_d,
                               kind="stable")
            hit_v = hit_v[order]
            carrier.send_segments(TAG_SYNC, SegmentBatch.from_runs(
                bp_rows[hit_v], "alloc", self._machines[mi_rows[hit_v]],
                "alloc", hit_d[order]))

    def _book_allocated(self, les: np.ndarray, mi_les: np.ndarray,
                        mis: list) -> None:
        """Book newly allocated fused local edges ``les`` (machine idx
        ``mi_les``, within the sorted ``mis``): each endpoint's rest
        degree and each machine's unallocated count drop — counted over
        the vertex range of ``mis``'s machine span, not the plane's."""
        lo, hi = mis[0], mis[-1] + 1
        voff = (self._voff[lo:hi + 1] - self._voff[lo]).tolist()
        vlo = self._voff[lo]
        dec = (np.bincount(self._lsrc[les] - vlo, minlength=voff[-1])
               + np.bincount(self._ldst[les] - vlo, minlength=voff[-1]))
        nalloc = np.bincount(mi_les - lo, minlength=hi - lo).tolist()
        for k, count in enumerate(nalloc):
            if count:
                proc = self._alloc_procs[lo + k]
                proc.rest_degree -= dec[voff[k]:voff[k + 1]].astype(
                    proc.rest_degree.dtype)
                proc.unallocated -= count

    # ------------------------------------------------------------------
    # Sync merge + two-hop allocation + Drest/edge reports.
    # ------------------------------------------------------------------
    def _two_hop_groups(self, pids) -> list:
        """The call's machine idx, ascending, cut into contiguous groups
        whose queued ingest rows — parked one-hop rows plus delivered
        sync rows — fit the sweep budget (a machine is never split)."""
        mis = sorted(self._mindex[pid[1]] for pid in pids)
        slots = self._machines[mis].tolist()
        cluster = self._alloc_procs[mis[0]].cluster
        queued = [own + sync for own, sync in zip(
            self._pending_bp.rows(slots),
            cluster.queued_rows("alloc", TAG_SYNC, slots))]
        return [mis[lo:hi] for lo, hi in _budget_groups(queued, _SWEEP_ROWS)]

    def _run_two_hop(self, mis: list) -> dict:
        """Two-hop over one machine group (sorted machine idx ``mis``)."""
        out = {("alloc", int(self._machines[mi])): None for mi in mis}
        g, width, m = self._g, self._width, self._m
        member = self._member
        procs = self._alloc_procs
        carrier = procs[mis[0]]       # this group's cluster + outbox
        slots = self._machines[mis].tolist()
        merged_rows, merged_lv, merged_m, bits = self._ingest(carrier, slots)

        # Two-hop allocation over the merged batch (Condition 5).
        cand_mi = cand_tgt = np.empty(0, dtype=np.int64)
        cand_geids = np.empty(0, dtype=np.int32)
        two_hop = self._alloc_procs[0].two_hop if m else False
        ops2 = np.zeros(m, dtype=np.int64)
        if two_hop and len(merged_rows):
            docc = first_occurrence(merged_lv, self._vertex_scratch)
            lvs_u, m_u = merged_lv[docc], merged_m[docc]
            slot_idx, counts = adjacency_slots(self._adj_ptr, lvs_u)
            np.add.at(ops2, m_u, counts)
            if len(slot_idx):
                alloc_f = self._alloc
                les = self._adj_eid[slot_idx]
                # Only free slots are read past this point: their
                # neighbour, row and machine are gathered once, by
                # position (the row via the slot-count prefix sums).
                free = np.flatnonzero(alloc_f[les] == -1)
                if len(free):
                    row = np.searchsorted(np.cumsum(counts), free,
                                          side="right")
                    shared = member.rows_and(
                        lvs_u[row], self._adj_other[slot_idx[free]])
                    has = np.flatnonzero(member.mask_any(shared))
                    if len(has):
                        les_f = les[free[has]]
                        occ3 = first_occurrence(les_f, self._edge_scratch)
                        cand_les = les_f[occ3]
                        keep = has[occ3]
                        cand_shared = shared[keep]
                        cand_mi = m_u[row[keep]]
                        nshared = member.mask_count(cand_shared)
                        tgt = np.where(
                            nshared == 1,
                            member.mask_single_partition(cand_shared), -1)
                        multi = np.flatnonzero(nshared > 1)
                        if len(multi):
                            _resolve_multi_shared(
                                member, self._loads, cand_shared, tgt,
                                multi, cand_mi)
                        np.add.at(self._loads, (cand_mi, tgt), 1)
                        alloc_f[cand_les] = tgt.astype(alloc_f.dtype)
                        self._book_allocated(cand_les, cand_mi, mis)
                        cand_tgt = tgt
                        cand_geids = self._eids[cand_les]
        # Drest report, one sweep for all machines.  The unique
        # (machine, vertex, partition) keys come out sorted, so after
        # the stable (machine, partition) regroup each segment keeps
        # its vertices ascending — the reference's sorted(set(merged))
        # walk, sliced per destination partition.
        if len(merged_rows):
            ukeys = sorted_unique((merged_m * g + merged_rows[:, 0]) * width
                                  + merged_rows[:, 1])
            u_mi = ukeys // (g * width)
            u_v = (ukeys // width) % g
            # Read over the group's machine span only.
            lo, hi = mis[0], mis[-1] + 1
            drest = np.concatenate([a.rest_degree for a in procs[lo:hi]])[
                np.searchsorted(self._vkeys[self._voff[lo]:self._voff[hi]],
                                u_mi * g + u_v)]
            keep = np.flatnonzero(drest > 0)
            if len(keep):
                keep = keep[np.argsort(
                    u_mi[keep] * width + ukeys[keep] % width, kind="stable")]
                rows_out = np.empty((len(keep), 2), dtype=np.int32)
                rows_out[:, 0] = u_v[keep]
                rows_out[:, 1] = drest[keep]
                carrier.send_segments(TAG_BOUNDARY, SegmentBatch.from_runs(
                    rows_out, "alloc", self._machines[u_mi[keep]],
                    "expansion", ukeys[keep] % width))

        # Edge report, one sweep: every machine's parked one-hop events
        # then its two-hop events, stably regrouped by (machine,
        # partition) — each segment is the reference's _ep_new[p] list.
        parked = self._pending_edges.take(slots)
        if parked:
            oh = SegmentBatch.merge(parked)
            del parked
            ev_mi = np.concatenate((
                np.repeat(self._mi_of_slot[oh.dst_slots], oh.lengths),
                cand_mi))
            ev_p = np.concatenate((oh.rows[:, 0], cand_tgt))
            ev_eid = np.concatenate((oh.rows[:, 1], cand_geids))
        else:
            ev_mi, ev_p, ev_eid = cand_mi, cand_tgt, cand_geids
        if len(ev_mi):
            eord = np.argsort(ev_mi * width + ev_p, kind="stable")
            carrier.send_segments(TAG_EDGES, SegmentBatch.from_runs(
                ev_eid[eord], "alloc", self._machines[ev_mi[eord]],
                "expansion", ev_p[eord]))

        for mi in mis:
            procs[mi].ops_two_hop += int(ops2[mi])
            procs[mi]._replica_count += int(bits[mi])
            # (past this width: two constant residents, on the books)
            if width <= DENSE_MEMBERSHIP_MAX_PARTITIONS:
                procs[mi].report_memory()
        return out

    def _locate(self, vk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per ``mi * G + vertex`` key: its fused local vertex index
        (valid where present) and whether machine ``mi`` holds the
        vertex — one machine-major ``searchsorted``."""
        if not len(self._vkeys):
            return (np.zeros(len(vk), dtype=np.int64),
                    np.zeros(len(vk), dtype=bool))
        pos = np.searchsorted(self._vkeys, vk)
        return pos, self._vkeys[np.minimum(pos, len(self._vkeys) - 1)] == vk

    def _ingest(self, carrier, slots: list):
        """Take one two-hop machine group's boundary rows — the parked
        one-hop batches of machine ``slots`` (each machine's own new
        boundary pairs, merged unconditionally) then their sync mail —
        and merge them into replica state.

        Returns the merged int32 ``(vertex, partition)`` rows in every
        mailbox's reference walk order, their fused local vertex ids and
        machine idx, and the replica bits set per machine.

        Presence comes first: rows stay where they arrived, a
        walk-ordered row index resolves which destinations hold the
        vertex, and only those rows are gathered.  Forced rows are
        distinct and their bits were set (and counted) by one-hop; a
        sync row repeating a known pair merges nothing — so only pairs
        whose bit is not yet set are deduplicated (first occurrence in
        walk order) and set.  A method of its own, so its per-row
        temporaries are freed before the allocation pass; the mail is
        held once (merged, the taken batches dropped) and freed once
        its present rows are gathered.
        """
        m, width = self._m, self._width
        own = self._pending_bp.take(slots)
        nforced = sum(len(b) for b in own)
        parts = own + carrier.cluster.take_segments("alloc", TAG_SYNC, slots)
        del own
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            return np.empty((0, 2), dtype=np.int32), empty, empty, \
                np.zeros(m, dtype=np.int64)
        mail = SegmentBatch.merge(parts)
        del parts
        # Every mailbox's reference walk order: machine ascending; per
        # machine its own one-hop rows first (merged unconditionally),
        # then sync mail by ascending source — independent of the order
        # sweeps were replayed in.
        seg_mi = self._mi_of_slot[mail.dst_slots]
        rank = np.where(np.arange(len(mail)) < nforced, 0,
                        mail.src_slots + 1)
        order = np.argsort(seg_mi * (width + 1) + rank, kind="stable")
        # The segments' row ranges in that order: an index, not a copy.
        idx, lengths = adjacency_slots(mail.offsets, order)
        m_row = np.repeat(seg_mi[order], lengths)
        vk = m_row * self._g
        vk += mail.rows[idx, 0]
        lv, present = self._locate(vk)
        del vk
        keep = np.flatnonzero(present)
        merged = np.repeat(order < nforced, lengths)[keep]
        idx, lv, m_row = idx[keep], lv[keep], m_row[keep]
        rows = mail.rows[idx]
        del mail, idx
        ps = rows[:, 1]
        if len(ps) and int(ps.max()) >= width:
            raise ValueError(
                "fused dispatch cannot grow partition capacity; "
                "partition id exceeds the deployment width")
        new = np.flatnonzero(~self._member.test_pairs(lv, ps))
        new = new[first_occurrence(_pair_keys(lv[new], ps[new], width))]
        self._member.set_pairs(lv[new], ps[new])
        merged[new] = True
        fresh = np.flatnonzero(merged)
        return (rows[fresh], lv[fresh], m_row[fresh],
                np.bincount(m_row[new], minlength=m))

    # ------------------------------------------------------------------
    # Expansion-side fold of the boundary and edge reports.
    # ------------------------------------------------------------------
    def _run_update(self, pids) -> dict:
        exps = [self._exp[pid] for pid in pids]
        cluster = exps[0].cluster
        slots = [proc.partition for proc in exps]
        mail = cluster.take_segments("expansion", TAG_BOUNDARY, slots)
        if mail:
            # Per-process local Drest scores summed into global ones:
            # the unique (partition, vertex) keys come out sorted, so
            # each partition's slice inserts in ascending vertex order
            # (the reference's sorted-dict iteration).
            report = SegmentBatch.merge(mail)
            del mail
            g = int(report.rows[:, 0].max()) + 1
            # int64 before the product: slot × g passes 2**31.
            row_keys = (np.repeat(report.dst_slots.astype(np.int64),
                                  report.lengths) * g
                        + report.rows[:, 0])
            keys = sorted_unique(row_keys)
            sums = np.zeros(len(keys), dtype=np.int64)
            np.add.at(sums, np.searchsorted(keys, row_keys),
                      report.rows[:, 1])
            self._store.insert(self._seg_of[keys // g], keys % g, sums)
        mail = cluster.take_segments("expansion", TAG_EDGES, slots)
        if mail:
            # Mailbox order (destination, then ascending source) makes
            # a partition's edge ids one contiguous row range.
            report = SegmentBatch.merge(mail)
            del mail
            # int64 before the product: slot × slot passes 2**31.
            report = report.select(np.argsort(
                report.dst_slots.astype(np.int64)
                * (int(report.src_slots.max()) + 1)
                + report.src_slots, kind="stable"))
            bounds = report.offsets.tolist()
            for p, a, b in _runs(report.dst_slots):
                proc = self._exp["expansion", p]
                proc.edge_ids.append(report.rows[bounds[a]:bounds[b]])
                proc.edge_count += bounds[b] - bounds[a]
        # Memory model: boundary entries + received partition edges
        # (one 64-bit edge id per collected edge).
        sizes = self._store.sizes[self._seg_of[slots]].tolist()
        for proc, size in zip(exps, sizes):
            proc._report("boundary", size * 16)
            proc._report("partition_edges", proc.edge_count * 8)
        return dict.fromkeys(pids)
