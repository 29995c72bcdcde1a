"""Allocation process (§4, Algorithms 2 and 3).

Each allocation process owns a unique slice of the input edges (placed
by 2D hash) in a local CSR, plus the partition-id sets of the vertices
it has seen.  Per outer iteration it runs the four phases of
``EdgeAllocation``:

1. **One-hop allocation** — for every received ⟨v, p⟩, allocate v's
   non-allocated local edges to p.  Conflicts (two partitions selecting
   endpoints of the same local edge in one iteration) are resolved
   locally, first-writer-wins, mirroring the CAS in the paper.
2. **Synchronisation** — newly appended (vertex, partition) pairs are
   sent to the vertex's replica processes (computable from the id, §4)
   so all replicas agree on allocation ids.
3. **Two-hop allocation** — any local non-allocated edge whose both
   endpoints now share a partition is allocated to the sharing
   partition with the fewest edges (Condition 5: these edges never add
   replicas).
4. **Local Drest** — for each new boundary pair ⟨u, p⟩, the local count
   of u's non-allocated edges is reported to expansion process p, which
   sums the local scores into the global ``Drest(u)``.

Message tags: ``select`` (expansion→alloc), ``sync`` (alloc→alloc),
``boundary`` and ``edges`` (alloc→expansion).

Kernel architecture
-------------------
The paper's §4 data-structure argument is that everything the
allocation phases touch lives in *flat arrays* (CSR ``indptr`` /
``indices`` parallels), never in pointer-chasing maps — that is where
the order-of-magnitude speed and memory win over ParMETIS-style code
comes from.  The phases exist in exactly two implementations:

* ``kernel="vectorized"`` (default) — the flat-array kernels of
  :class:`~repro.core.fused.FusedDnePlane`: replica membership is a
  per-local-vertex partition-set matrix (see *Membership backends*
  below), one-hop allocation is a batched gather of whole adjacency
  slices via ``indptr`` fancy-indexing followed by first-occurrence
  dedup, ``rest_degree`` / per-partition load updates are
  ``np.bincount`` scatter-adds, and every emission sweep is one
  :class:`~repro.cluster.runtime.SegmentBatch` on ``send_segments``.
  A scheduler builds one plane over all the processes it owns; a
  process whose step methods are called directly (unit harnesses, the
  microbenchmarks) runs *its own one-machine plane*, built on the
  first such call — the same kernel over a one-machine subset, not a
  second implementation.  Either way the process reads segment mail
  only, and sizes its partition width before the first step.
* ``kernel="python"`` — the slow reference, implemented here:
  dict-of-set replica state walked one adjacency slot at a time,
  exchanging tuple-list payloads over eager per-message ``send``, kept
  for golden equivalence tests (``tests/test_kernel_equivalence.py``
  pins vectorized == reference bit-for-bit) and as executable
  documentation of Algorithms 2–3.

Both kernels produce identical ``alloc`` arrays, identical message
payloads (byte size *and* order under the accounting model), and
identical ``ops_*`` counters.

Membership backends
-------------------
The vectorized replica state is ``(num_local_vertices, |P|)`` bits with
two layouts behind one interface:

* :class:`DenseMembership` — one byte per bit, rows padded to whole
  ``uint64`` words; the default for |P| ≤ 64, where the footprint is
  small, pair ops index bytes directly and row algebra reads the same
  bytes as words.
* :class:`PackedMembership` — uint64 words, 64 partitions per word
  (``ceil(|P|/64)`` words per vertex), selected automatically for
  |P| > 64.  Row combination becomes word-wise ``&``/``|``, cardinality
  ``np.bitwise_count``, cutting the membership footprint 8× — the
  layout the Fig-9 memory model reports at |P| > 64 (the
  ``membership_words`` resident entry, identical under both kernels).

Both backends produce bit-identical allocation behaviour (pinned by the
packed-vs-dense property tests), and |P| alone picks between them —
there is no selector argument, because each layout wins on its own side
of the switch.  Measured on the gate (``benchmarks/e2e``) with the
layout as the only changed line, two sets of 6 alternated pairs per
workload (CHANGES.md, PR 17): packed at |P| ≤ 64 is between a tie and
+15 % ``partition_s`` on ``road_p64``, 5–7 % faster on ``rmat_p8``
(inside the gate's bound) and saves 8 % ``peak_rss_mb`` on
``road_p64``; past 64, packed is what ``rmat_p256`` runs on and what
the Fig-9 model reports.  (That measurement also had packed costing
``serve_hdrf`` +26–29 %, through the HDRF walker's scalar bit ops;
HDRF and FENNEL no longer read these backends, so that evidence no
longer applies and the |P| ≤ 64 case for dense rests on ``road_p64``.)
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.cluster.runtime import Process
from repro.core.hash2d import unpack_bool_matrix
from repro.graph.csr import CSRGraph
from repro.kernels import validate_kernel

__all__ = ["AllocationProcess", "DenseMembership", "PackedMembership",
           "seed_vertex_random", "seed_vertex_min_degree",
           "TAG_SELECT", "TAG_SYNC", "TAG_BOUNDARY", "TAG_EDGES"]

TAG_SELECT = "select"
TAG_SYNC = "sync"
TAG_BOUNDARY = "boundary"
TAG_EDGES = "edges"

#: widest |P| served by the dense boolean backend; beyond it the packed
#: uint64 backend takes over
DENSE_MEMBERSHIP_MAX_PARTITIONS = 64

_U64_ONE = np.uint64(1)


def seed_vertex_random(local_vertices: np.ndarray,
                       rest_degree: np.ndarray,
                       rng: np.random.Generator) -> int | None:
    """A vertex with non-allocated local edges, or None.

    The single home of the random seed-lookup rule — one uniform draw
    over the candidate set, no draw when it is empty — shared by
    :meth:`AllocationProcess.random_unallocated_vertex` and the
    processes backend's shared-memory seed source, so the two can
    never diverge on the RNG sequence.
    """
    candidates = np.flatnonzero(rest_degree > 0)
    if not len(candidates):
        return None
    return int(local_vertices[candidates[rng.integers(len(candidates))]])


def seed_vertex_min_degree(local_vertices: np.ndarray,
                           rest_degree: np.ndarray) -> int | None:
    """Lowest-remaining-degree seed (the seeding ablation), or None.

    Ties break to the lowest local index (``np.argmin``); shared for
    the same never-diverge reason as :func:`seed_vertex_random`.
    """
    candidates = np.flatnonzero(rest_degree > 0)
    if not len(candidates):
        return None
    best = candidates[np.argmin(rest_degree[candidates])]
    return int(local_vertices[best])


class DenseMembership:
    """Replica membership stored as bytes, combined as words.

    One C-contiguous boolean ``(num_vertices, 8 * ceil(width / 8))``
    array, one byte per (vertex, partition) bit; the padding columns
    past ``width`` are never set.  Pair ops (the one-hop probes and
    the sync merge) address bytes directly.  Row algebra reads each row
    as ``ceil(width / 8)`` little-endian ``uint64`` words: at |P| = 8 a
    row is one machine word, so intersection is one ``&``, "any" one
    compare and cardinality one popcount (byte ``0x01`` per set bit)
    instead of an 8-wide boolean reduction."""

    kind = "dense"

    def __init__(self, num_vertices: int, width: int):
        self._width = width
        self._mat = np.zeros((num_vertices, -(-width // 8) * 8), dtype=bool)

    @property
    def width(self) -> int:
        return self._width

    def entries(self) -> int:
        """Number of set (vertex, partition) bits."""
        return int(self._mat.sum())

    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        """(vertex idx, partition) coordinates of every set bit."""
        return np.nonzero(self._mat)

    # -- (vertex, partition) pair ops (one-hop, sync merge) ------------
    def test_pairs(self, idx: np.ndarray, ps: np.ndarray) -> np.ndarray:
        return self._mat[idx, ps]

    def set_pairs(self, idx: np.ndarray, ps: np.ndarray) -> None:
        self._mat[idx, ps] = True

    # -- row-mask algebra (two-hop shared-partition tests) -------------
    def rows_and(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-row partition-set intersection masks: ``'<u8'`` words,
        byte ``p`` of a row's memory = partition ``p``."""
        words = self._mat.view("<u8")
        return words[a] & words[b]

    @staticmethod
    def mask_any(masks: np.ndarray) -> np.ndarray:
        return np.bitwise_or.reduce(masks, axis=1) != 0

    @staticmethod
    def mask_count(masks: np.ndarray) -> np.ndarray:
        return np.bitwise_count(masks).sum(axis=1)

    @staticmethod
    def mask_single_partition(masks: np.ndarray) -> np.ndarray:
        """Partition id per row, valid only for single-bit rows."""
        return masks.view(bool).argmax(axis=1)

    @staticmethod
    def mask_nonzero(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.nonzero(masks.view(bool))

    def nbytes(self) -> int:
        return self._mat.nbytes


class PackedMembership:
    """Packed replica membership: ``ceil(width/64)`` uint64 words per
    vertex, bit ``p % 64`` of word ``p // 64`` = partition ``p``.

    Same interface as :class:`DenseMembership` at 1/8 the footprint;
    row-mask algebra works on word matrices (``&`` for intersection,
    ``np.bitwise_count`` for cardinality)."""

    kind = "packed"

    def __init__(self, num_vertices: int, width: int):
        self._width = width
        self._words = np.zeros((num_vertices, (width + 63) // 64),
                               dtype=np.uint64)

    @property
    def width(self) -> int:
        return self._width

    def entries(self) -> int:
        return int(np.bitwise_count(self._words).sum())

    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        return self.mask_nonzero(self._words)

    def test_pairs(self, idx: np.ndarray, ps: np.ndarray) -> np.ndarray:
        bits = (ps & 63).astype(np.uint64)
        return (self._words[idx, ps >> 6] >> bits) & _U64_ONE != 0

    def set_pairs(self, idx: np.ndarray, ps: np.ndarray) -> None:
        # Distinct pairs can share a (vertex, word) slot with different
        # bits; bitwise_or.at applies every duplicate.
        np.bitwise_or.at(self._words, (idx, ps >> 6),
                         _U64_ONE << (ps & 63).astype(np.uint64))

    def rows_and(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._words[a] & self._words[b]

    @staticmethod
    def mask_any(masks: np.ndarray) -> np.ndarray:
        return masks.any(axis=1)

    @staticmethod
    def mask_count(masks: np.ndarray) -> np.ndarray:
        return np.bitwise_count(masks).sum(axis=1).astype(np.int64)

    @staticmethod
    def mask_single_partition(masks: np.ndarray) -> np.ndarray:
        word = (masks != 0).argmax(axis=1)
        vals = masks[np.arange(len(masks)), word]
        # Bit position by vectorized binary search (exact for any
        # single-bit word; garbage-in-garbage-out for multi-bit rows,
        # which callers mask away).
        pos = np.zeros(len(masks), dtype=np.int64)
        for shift in (32, 16, 8, 4, 2, 1):
            high = vals >= (_U64_ONE << np.uint64(shift))
            pos[high] += shift
            vals = vals >> np.where(high, np.uint64(shift), np.uint64(0))
        return word * 64 + pos

    def mask_nonzero(self, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # One home for the word->bool layout (endian-safe): hash2d's
        # unpacker, the exact inverse of pack_bool_matrix.
        return np.nonzero(unpack_bool_matrix(masks, self._width))

    def nbytes(self) -> int:
        return self._words.nbytes


class AllocationProcess(Process):
    """One allocation process holding a 2D-hash slice of the graph."""

    #: checkpoint/restore excludes: the shared CSR graph and placement,
    #: the local index structures derived once in the constructor
    #: (immutable for the life of the process, rebuilt identically by a
    #: respawned worker), and the own one-machine plane (kernel wiring
    #: over this process's arrays, not state) — everything else is
    #: mutable allocation state.
    _STATE_EXCLUDE = Process._STATE_EXCLUDE | frozenset({
        "graph", "placement", "eids", "local_vertices", "_lsrc", "_ldst",
        "_vindex", "_adj_ptr", "_adj_eid", "_adj_other", "_plane"})

    def __init__(self, machine: int, graph: CSRGraph, edge_ids: np.ndarray,
                 placement, two_hop: bool = True,
                 kernel: str = "vectorized"):
        super().__init__(("alloc", machine))
        validate_kernel(kernel)
        self.machine = machine
        self.graph = graph
        self.placement = placement
        self.two_hop = two_hop
        self.kernel = kernel
        self.num_partitions = placement.num_processes

        # Local CSR over the owned edges.  ``self.eids`` maps local edge
        # index -> global canonical edge id.  Local arrays use 32-bit
        # ids, mirroring the paper's space-conscious layout (local edge
        # and vertex counts fit comfortably in 32 bits at any per-
        # machine scale the paper runs).
        self.eids = np.asarray(edge_ids, dtype=np.int64)
        src = graph.edges[self.eids, 0]
        dst = graph.edges[self.eids, 1]
        self.local_vertices, inverse = np.unique(
            np.concatenate([src, dst]), return_inverse=True)
        k = len(self.eids)
        self._lsrc = inverse[:k].astype(np.int32)
        self._ldst = inverse[k:].astype(np.int32)

        # Adjacency over local edges: for each local vertex, the list of
        # (local edge idx, other endpoint's local vertex idx), ordered
        # by local edge index within each row.  Built with one
        # counting-sort-style pass (lexsort keyed by vertex, then local
        # edge id) instead of a per-edge Python loop.
        nv = len(self.local_vertices)
        counts = np.bincount(self._lsrc, minlength=nv) + np.bincount(
            self._ldst, minlength=nv)
        self._adj_ptr = np.zeros(nv + 1, dtype=np.int64)
        np.cumsum(counts, out=self._adj_ptr[1:])
        ids = np.arange(k, dtype=np.int32)
        vert = np.concatenate([self._lsrc, self._ldst])
        order = np.lexsort((np.concatenate([ids, ids]), vert))
        self._adj_eid = np.concatenate([ids, ids])[order]
        self._adj_other = np.concatenate([self._ldst, self._lsrc])[order]

        # Mutable allocation state.
        self.alloc = np.full(k, -1, dtype=np.int32)     # partition per local edge
        self.rest_degree = counts.astype(np.int32).copy()  # unallocated local degree
        self.unallocated = k
        #: local view of |E_p| — flat array in both kernels (exact ints)
        self._part_loads = np.zeros(self.num_partitions, dtype=np.int64)
        #: the one-machine plane a directly stepped vectorized process
        #: runs its phases through (see :meth:`_own_plane`)
        self._plane = None
        #: set (vertex, partition) replica bits on this machine — the
        #: vectorized kernel counts them where it sets them (the plane
        #: tests before it sets), so the memory model never re-sums the
        #: membership matrix; rides the checkpoint payload
        self._replica_count = 0
        if kernel == "python":
            #: reference replica state: local vid -> set of partitions
            self._parts: dict[int, set] | None = defaultdict(set)
            self._member = None
            #: global vid -> local vid; only the reference steps read it
            self._vindex = {int(v): i
                            for i, v in enumerate(self.local_vertices)}
        else:
            self._parts = None
            if self.num_partitions > DENSE_MEMBERSHIP_MAX_PARTITIONS:
                #: vectorized replica state, uint64-packed (|P| ≫ 64)
                self._member = PackedMembership(nv, self.num_partitions)
            else:
                #: vectorized replica state, word-padded byte store
                self._member = DenseMembership(nv, self.num_partitions)

        # Operation counters for the Theorem 3 cost model: adjacency
        # slots touched in each allocation phase.
        self.ops_one_hop = 0
        self.ops_two_hop = 0

        if kernel == "python":
            # Per-iteration outboxes of the reference's allocation
            # phases, reset by two_hop_and_report.  Initialised here
            # (not lazily in one_hop_and_sync) so a superstep scheduler
            # may skip an empty-mailbox one-hop step and still run the
            # two-hop step.
            self._ep_new: dict[int, list] = defaultdict(list)
            self._bp_new: list = []

        # The local CSR and the alloc/rest_degree arrays are sized here
        # and never reallocated: reported once.
        self.set_resident(
            "graph_csr",
            self.eids.nbytes + self._lsrc.nbytes + self._ldst.nbytes
            + self._adj_ptr.nbytes + self._adj_eid.nbytes
            + self._adj_other.nbytes + self.local_vertices.nbytes)
        self.set_resident("alloc_state",
                          self.alloc.nbytes + self.rest_degree.nbytes)
        self.report_memory()

    # ------------------------------------------------------------------
    # Replica-state views (kernel-independent API)
    # ------------------------------------------------------------------
    @property
    def membership_kind(self) -> str:
        """Replica-state layout: ``dict`` (reference), ``dense`` or
        ``packed`` (vectorized backends)."""
        return "dict" if self._parts is not None else self._member.kind

    @property
    def vertex_parts(self) -> dict:
        """Replica state as ``{local vid: set of partition ids}``.

        Always a materialised *snapshot* (under both kernels): mutating
        the returned dict never changes allocation state.  Kernels
        update their own private state (``_parts`` / ``_member``).
        """
        out: dict[int, set] = defaultdict(set)
        if self._parts is not None:
            for lv, ps in self._parts.items():
                out[lv] = set(ps)
            return out
        lv_idx, p_idx = self._member.nonzero()
        for lv, p in zip(lv_idx.tolist(), p_idx.tolist()):
            out[lv].add(p)
        return out

    @property
    def edges_per_partition(self) -> dict:
        """Local per-partition edge counts (dict view of the flat array)."""
        return {p: int(c) for p, c in enumerate(self._part_loads.tolist()) if c}

    def _ensure_partition_capacity(self, p: int) -> None:
        """Grow the flat per-partition state to cover partition id ``p``.

        In a DNE deployment partitions and allocation processes are
        1:1, so the initial ``num_processes`` width already covers every
        id; unit harnesses may drive more partitions than processes.
        The reference kernel grows whenever a wider id arrives; the
        vectorized kernel's width is fixed once a plane holds its state,
        so its harnesses call this before the first step.
        """
        width = len(self._part_loads)
        if p < width:
            return
        if self._member is not None:
            if self._plane is not None:
                raise ValueError(
                    "the vectorized kernel sizes its partition width "
                    "before the first step")
            self._member = type(self._member)(len(self.local_vertices), p + 1)
        self._part_loads = np.concatenate(
            [self._part_loads, np.zeros(p + 1 - width, dtype=np.int64)])

    def _replica_entries(self) -> int:
        """Number of real (vertex, partition) replica pairs held locally."""
        if self._parts is not None:
            return sum(len(s) for s in self._parts.values())
        return self._replica_count

    # ------------------------------------------------------------------
    # Memory model (Figure 9): CSR arrays + allocation state + replica sets.
    # ------------------------------------------------------------------
    def report_memory(self) -> None:
        # Replica metadata, one layout at a time (never both): up to 64
        # partitions the model is one byte-scale entry per real
        # (vertex, partition) pair (probed-but-absent vertices
        # contribute nothing — the reference kernel uses non-mutating
        # lookups, so no phantom entries exist); past 64 partitions the
        # deployed layout is the packed uint64-word bitset, and the
        # model reports its footprint *instead* — identically under
        # both kernels, the reference dict standing in for the same
        # deployed structure.
        width = len(self._part_loads)
        if width > DENSE_MEMBERSHIP_MAX_PARTITIONS:
            words = (width + 63) // 64
            self._report("replica_sets", 0)
            self._report("membership_words",
                         len(self.local_vertices) * words * 8)
        else:
            self._report("replica_sets", self._replica_entries() * 8)

    # ------------------------------------------------------------------
    # Seed lookup (expansion fallback when the boundary is empty).
    # ------------------------------------------------------------------
    def random_unallocated_vertex(self, rng: np.random.Generator) -> int | None:
        """A vertex with non-allocated local edges, or None."""
        return seed_vertex_random(self.local_vertices, self.rest_degree, rng)

    def min_degree_unallocated_vertex(self) -> int | None:
        """Lowest-remaining-degree seed (the seeding ablation)."""
        return seed_vertex_min_degree(self.local_vertices, self.rest_degree)

    # ------------------------------------------------------------------
    # Vectorized kernel: the phases live in the plane.
    # ------------------------------------------------------------------
    def _own_plane(self):
        """The one-machine plane behind a directly stepped vectorized
        process, built on the first such step.

        A scheduler's plane spans every process it owns and never comes
        through here; a harness that calls the step methods itself gets
        the same kernel over this machine alone.  The plane re-points
        ``alloc`` / ``_part_loads`` / the membership matrix at its own
        arrays, so a process is stepped either directly or through a
        scheduler's plane, never both.
        """
        if self._plane is None:
            # fused.py imports this module (tags, the process classes).
            from repro.core.fused import FusedDnePlane
            self._plane = FusedDnePlane([self], self.placement)
        return self._plane

    # ------------------------------------------------------------------
    # Phase 1+2: one-hop allocation, then send syncs.
    # ------------------------------------------------------------------
    def one_hop_and_sync(self) -> None:
        if self.kernel == "vectorized":
            self._own_plane().run("one_hop_and_sync", [self.pid])
            return
        received = self.receive(TAG_SELECT)
        self._ep_new: dict[int, list] = defaultdict(list)  # p -> global eids
        #: (global vid, p) new pairs
        self._bp_new: list = []
        # Deterministic order: by (partition, vertex) over all messages.
        pairs = sorted({(int(p), int(v)) for _, payload in received
                        for (v, p) in payload})
        sync_out: dict[int, list] = defaultdict(list)
        if pairs:
            self._ensure_partition_capacity(max(p for p, _ in pairs))
        self._one_hop_python(pairs, sync_out)
        for proc, payload in sorted(sync_out.items()):
            self.send(("alloc", proc), TAG_SYNC, payload)

    def _one_hop_python(self, pairs, sync_out) -> None:
        """Reference one-hop: one adjacency slot at a time."""
        for p, v in pairs:
            lv = self._vindex.get(v)
            if lv is None:
                continue  # replica candidate process holding no v-edges
            # The selected vertex itself joins V(E_p) on every process
            # that received the multicast; no sync needed for it.
            self._parts[lv].add(p)
            self.ops_one_hop += int(self._adj_ptr[lv + 1]
                                    - self._adj_ptr[lv])
            for slot in range(self._adj_ptr[lv], self._adj_ptr[lv + 1]):
                le = self._adj_eid[slot]
                if self.alloc[le] != -1:
                    continue
                self._allocate_local(le, p)
                self._ep_new[p].append(int(self.eids[le]))
                lu = int(self._adj_other[slot])
                # Non-mutating membership probe: a defaultdict lookup
                # here would materialise an empty set per probed vertex.
                parts_lu = self._parts.get(lu)
                if parts_lu is None or p not in parts_lu:
                    self._parts[lu].add(p)
                    u = int(self.local_vertices[lu])
                    self._bp_new.append((u, p))
                    for proc in self.placement.replica_processes(u):
                        if proc != self.machine:
                            sync_out[proc].append((u, p))

    # ------------------------------------------------------------------
    # Phase 2(recv)+3+4: merge syncs, two-hop allocation, local Drest.
    # ------------------------------------------------------------------
    def two_hop_and_report(self) -> None:
        if self.kernel == "vectorized":
            self._own_plane().run("two_hop_and_report", [self.pid])
            return
        self._two_hop_and_report_python(self.receive(TAG_SYNC))
        self._bp_new = []
        self._ep_new = defaultdict(list)
        self.report_memory()

    def _two_hop_and_report_python(self, received) -> None:
        merged: list[tuple[int, int]] = list(self._bp_new)
        for _, payload in received:
            for v, p in payload:
                lv = self._vindex.get(int(v))
                if lv is None:
                    continue
                self._ensure_partition_capacity(int(p))
                parts_lv = self._parts.get(lv)
                if parts_lv is None or p not in parts_lv:
                    self._parts[lv].add(p)
                    merged.append((int(v), int(p)))

        if self.two_hop:
            self._allocate_two_hop(merged)

        # Local Drest for each new boundary pair, reported to the
        # expansion process of that partition.
        boundary_out: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for v, p in sorted(set(merged)):
            lv = self._vindex[v]
            drest = int(self.rest_degree[lv])
            if drest > 0:
                boundary_out[p].append((v, drest))
        for p, payload in sorted(boundary_out.items()):
            self.send(("expansion", p), TAG_BOUNDARY, payload)

        for p, eids in sorted(self._ep_new.items()):
            self.send(("expansion", p), TAG_EDGES,
                      np.asarray(eids, dtype=np.int64))

    def _allocate_two_hop(self, merged: list[tuple[int, int]]) -> None:
        """Condition 5 (reference): allocate local edges whose endpoints
        share partitions, one adjacency slot at a time."""
        seen: set[int] = set()
        for v, _ in merged:
            lv = self._vindex[v]
            if lv in seen:
                continue
            seen.add(lv)
            parts_lv = self._parts.get(lv) or set()
            self.ops_two_hop += int(self._adj_ptr[lv + 1]
                                    - self._adj_ptr[lv])
            for slot in range(self._adj_ptr[lv], self._adj_ptr[lv + 1]):
                le = self._adj_eid[slot]
                if self.alloc[le] != -1:
                    continue
                lw = int(self._adj_other[slot])
                # Non-mutating probe: the defaultdict lookup used to
                # materialise an empty set for every neighbour checked
                # here, bloating the replica dict with phantom entries.
                parts_lw = self._parts.get(lw)
                if not parts_lw:
                    continue
                shared = parts_lv & parts_lw
                if not shared:
                    continue
                pnew = min(shared,
                           key=lambda q: (self._part_loads[q], q))
                self._allocate_local(le, pnew)
                self._ep_new[pnew].append(int(self.eids[le]))

    def _allocate_local(self, le: int, p: int) -> None:
        self.alloc[le] = p
        self.rest_degree[self._lsrc[le]] -= 1
        self.rest_degree[self._ldst[le]] -= 1
        self._part_loads[p] += 1
        self.unallocated -= 1
