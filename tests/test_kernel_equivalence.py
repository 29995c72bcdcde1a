"""Golden equivalence: vectorized kernels == per-slot reference.

Every hot path that grew a flat-array kernel keeps its original
implementation behind ``kernel="python"``; these tests pin the two
bit-for-bit against each other across graph shapes, partition counts,
and seeds:

* NE / SNE / Distributed NE produce identical ``assignment`` arrays,
  identical ``ops_one_hop`` / ``ops_two_hop`` counters, identical
  replication factors, and (for DNE) identical simulated-cluster
  message/byte/memory totals;
* the GAS engine's ``gather_sum`` / ``gather_min`` return bit-identical
  vectors and identical communication accounting;
* the bulk all-gather accounting matches the per-message loop exactly;
* the one-segment boundary store (``BoundarySegment``) reproduces the
  heapq reference's exact pop order, membership semantics, and
  re-insert drops (the many-segment property test lives in
  ``tests/test_expansion_process.py``);
* the packed uint64-bitset replica membership, the dense byte store's
  word masks and a plain boolean-matrix definition agree bit-for-bit
  across |P| ∈ {3, 8, 13, 64, 65, 256} (8: one exact word per dense
  row; 13: a padded two-word row), and a full DNE run at |P| > 64
  (where the packed backend engages) stays bit-identical to the
  reference kernel;
* the plane (the one vectorized DNE kernel) stays bit-identical to the
  python reference at |P| ∈ {4, 64, 256} — tiny per-partition batches
  included — and one plane per machine matches one plane over the
  whole cluster, and a run whose sweeps a small row budget cuts into many
  machine groups matches the one-group run on every backend;
* the reference allocation path holds no phantom (empty) replica sets
  — the ``defaultdict`` probe leak stays fixed;
* the batch least-loaded fill equals the sequential ``argmin`` loop.
"""

import hashlib
import re

import numpy as np
import pytest

from repro.apps.engine import AppRunStats, DistributedGraphEngine
from repro.cluster.runtime import (Process, SegmentBatch, SimulatedCluster,
                                   _same_machine)
from repro.core import fused as fused_module
from repro.core.allocation import (TAG_BOUNDARY, TAG_EDGES, TAG_SELECT,
                                   TAG_SYNC, AllocationProcess,
                                   DenseMembership, PackedMembership)
from repro.core.distributed_ne import DistributedNE, DneWorkerProgram
from repro.core.expansion import (BoundarySegment, BoundaryStore,
                                  ExpansionProcess, HeapqBoundaryQueue,
                                  SharedSeedSource)
from repro.core.fused import FusedDnePlane
from repro.core.hash2d import Hash2DPlacement
from repro.graph.csr import CSRGraph
from repro.graph.generators import ring_graph, rmat_edges
from repro.partitioners import PARTITIONER_REGISTRY
from repro.partitioners import sne as sne_module
from repro.partitioners.base import _least_loaded_targets
from repro.partitioners.ne import NEPartitioner
from repro.partitioners.sne import SNEPartitioner

GRAPHS = {
    "rmat": lambda: CSRGraph(rmat_edges(9, 6, seed=42)),
    "ring": lambda: CSRGraph(ring_graph(48)),
    "star": lambda: CSRGraph(np.array([[0, i] for i in range(1, 24)])),
}


@pytest.fixture(params=sorted(GRAPHS))
def graph(request):
    return GRAPHS[request.param]()


@pytest.mark.parametrize("partitions", [2, 5])
@pytest.mark.parametrize("seed", [0, 1])
class TestPartitionerEquivalence:
    def test_distributed_ne(self, graph, partitions, seed):
        vec = DistributedNE(partitions, seed=seed).partition(graph)
        ref = DistributedNE(partitions, seed=seed,
                            kernel="python").partition(graph)
        assert np.array_equal(vec.assignment, ref.assignment)
        assert vec.iterations == ref.iterations
        assert vec.extra["ops_one_hop"] == ref.extra["ops_one_hop"]
        assert vec.extra["ops_two_hop"] == ref.extra["ops_two_hop"]
        # Simulated cluster totals: same messages, bytes, barriers,
        # peak memory.
        assert vec.extra["cluster"] == ref.extra["cluster"]
        assert vec.replication_factor() == ref.replication_factor()

    def test_distributed_ne_no_two_hop(self, graph, partitions, seed):
        vec = DistributedNE(partitions, seed=seed,
                            two_hop=False).partition(graph)
        ref = DistributedNE(partitions, seed=seed, two_hop=False,
                            kernel="python").partition(graph)
        assert np.array_equal(vec.assignment, ref.assignment)
        assert vec.extra["cluster"] == ref.extra["cluster"]

    def test_ne(self, graph, partitions, seed):
        vec = NEPartitioner(partitions, seed=seed).partition(graph)
        ref = NEPartitioner(partitions, seed=seed,
                            kernel="python").partition(graph)
        assert np.array_equal(vec.assignment, ref.assignment)
        assert vec.replication_factor() == ref.replication_factor()

    @pytest.mark.parametrize("buffer_factor", [2.0, 16.0])
    def test_sne(self, graph, partitions, seed, buffer_factor, monkeypatch):
        """At the default buffer and at a tight one (more refills)."""
        monkeypatch.setattr(sne_module, "_BUFFER_FACTOR", buffer_factor)
        vec = SNEPartitioner(partitions, seed=seed).partition(graph)
        ref = SNEPartitioner(partitions, seed=seed,
                             kernel="python").partition(graph)
        assert np.array_equal(vec.assignment, ref.assignment)
        assert vec.replication_factor() == ref.replication_factor()


def _segment() -> BoundarySegment:
    """The one segment of a fresh one-segment store."""
    return BoundarySegment(BoundaryStore(), 0)


class TestBoundaryQueueEquivalence:
    """One-segment boundary store == heapq reference, op for op."""

    def test_random_op_sequences_match(self):
        for trial in range(25):
            rng = np.random.default_rng(trial)
            arr, ref = _segment(), HeapqBoundaryQueue()
            for _ in range(80):
                if rng.random() < 0.6:
                    n = int(rng.integers(1, 9))
                    vs = rng.integers(0, 50, n)
                    ds = rng.integers(0, 12, n)
                    arr.insert_many(vs, ds)
                    for v, d in zip(vs.tolist(), ds.tolist()):
                        ref.insert(v, d)
                else:
                    k = int(rng.integers(1, 12))
                    assert arr.pop_k_min(k) == ref.pop_k_min(k)
                assert len(arr) == len(ref)
            # Drain both completely: residual contents must match too.
            assert arr.pop_k_min(10 ** 6) == ref.pop_k_min(10 ** 6)

    def test_reinsert_after_pop_takes_new_score(self):
        q = _segment()
        q.insert(7, 9)
        assert q.pop_k_min(1) == [7]
        q.insert(7, 1)          # membership cleared by the pop
        q.insert(3, 5)
        assert q.pop_k_min(2) == [7, 3]

    def test_insert_many_keeps_first_score_within_batch(self):
        q = _segment()
        q.insert_many(np.array([4, 4, 9]), np.array([8, 1, 5]))
        assert len(q) == 2
        assert q.pop_k_min(2) == [9, 4]  # 4 kept Drest 8, not 1

    def test_entry_time_scores_kept(self):
        for cls in (_segment, HeapqBoundaryQueue):
            q = cls()
            q.insert(5, 10)
            q.insert(5, 0)       # dropped: already a member
            q.insert(6, 3)
            assert q.pop_k_min(2) == [6, 5]


@pytest.mark.parametrize("partitions", [3, 8, 13, 64, 65, 256])
class TestPackedMembership:
    """uint64-bitset membership == dense byte store == boolean matrix,
    property-tested."""

    def test_backends_agree_on_random_updates(self, partitions):
        rng = np.random.default_rng(partitions + 1)
        nv = 40
        dense = DenseMembership(nv, partitions)
        packed = PackedMembership(nv, partitions)
        oracle = np.zeros((nv, partitions), dtype=bool)
        for _ in range(30):
            if rng.integers(2):
                k = int(rng.integers(1, 8))
                idx = rng.integers(0, nv, k)
                ps = rng.integers(0, partitions, k)
                for layout in (dense, packed):
                    assert np.array_equal(layout.test_pairs(idx, ps),
                                          oracle[idx, ps])
                    layout.set_pairs(idx, ps)
                oracle[idx, ps] = True
            else:
                k = int(rng.integers(1, 8))
                a = rng.integers(0, nv, k)
                b = rng.integers(0, nv, k)
                want = oracle[a] & oracle[b]
                count = want.sum(axis=1)
                single = count == 1
                for layout in (dense, packed):
                    masks = layout.rows_and(a, b)
                    assert np.array_equal(layout.mask_any(masks),
                                          want.any(axis=1))
                    assert np.array_equal(layout.mask_count(masks), count)
                    assert np.array_equal(
                        layout.mask_single_partition(masks)[single],
                        want.argmax(axis=1)[single])
                    got, ref = layout.mask_nonzero(masks), np.nonzero(want)
                    assert np.array_equal(got[0], ref[0])
                    assert np.array_equal(got[1], ref[1])
                    rows = layout.mask_nonzero(layout.rows_and(a, a))
                    want_rows = np.nonzero(oracle[a])
                    assert np.array_equal(rows[0], want_rows[0])
                    assert np.array_equal(rows[1], want_rows[1])
            assert dense.entries() == packed.entries() == oracle.sum()
        dnz, pnz = dense.nonzero(), packed.nonzero()
        assert np.array_equal(dnz[0], pnz[0])
        assert np.array_equal(dnz[1], pnz[1])
        # Dense rows are whole words; the padding bytes are never set.
        assert dense._mat.shape == (nv, -(-partitions // 8) * 8)
        assert not dense._mat[:, partitions:].any()
        if partitions > 64:
            # The point of the packed layout: 8 partitions per byte
            # instead of 1 (worthwhile only beyond the auto threshold).
            assert packed.nbytes() * 8 <= dense.nbytes() + 64 * nv

    def test_allocation_backends_bit_identical(self, partitions):
        """Same selections through allocation processes holding the
        dense and the packed layout (injected before the first step —
        production picks by |P| alone): identical state, and identical
        counters — messages, bytes, batch ticks, residents — on every
        process."""
        graph = CSRGraph(rmat_edges(8, 6, seed=11))
        results = {}
        for layout in (DenseMembership, PackedMembership):
            cluster = SimulatedCluster()
            placement = Hash2DPlacement(1, seed=0)
            alloc = cluster.add_process(AllocationProcess(
                0, graph.edges, graph.num_vertices,
                np.arange(graph.num_edges), placement))
            alloc._ensure_partition_capacity(min(partitions, 4) - 1)
            alloc._member = layout(len(alloc.local_vertices),
                                   min(partitions, 4))
            plane = FusedDnePlane([alloc], placement)
            for p in range(min(partitions, 4)):
                cluster.add_process(Process(("expansion", p)))
            rng = np.random.default_rng(0)
            for _ in range(3):
                sel = np.column_stack(
                    [rng.integers(0, graph.num_vertices, 12),
                     rng.integers(0, min(partitions, 4), 12)])
                cluster.process(("expansion", 0)).send(
                    "alloc", TAG_SELECT, [(alloc.pid[1], sel)])
                cluster.barrier()
                plane.run("one_hop_and_sync", [alloc.pid])
                cluster.barrier()
                plane.run("two_hop_and_report", [alloc.pid])
                cluster.barrier()
            assert alloc.membership_kind == layout.kind
            results[layout.kind] = (
                alloc.alloc.copy(), alloc.rest_degree.copy(),
                alloc.ops_one_hop, alloc.ops_two_hop,
                dict(alloc.vertex_parts),
                cluster.stats.per_process)
        for a, b in zip(results["dense"], results["packed"]):
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b)
            else:
                assert a == b


class TestPackedDNEEquivalence:
    """Full DNE at |P| > 64: the auto-selected packed backend stays
    bit-identical to the python reference (assignments, counters,
    message/byte/memory totals — including the membership_words
    resident entry of the Fig-9 model)."""

    def test_dne_at_65_partitions(self):
        graph = CSRGraph(rmat_edges(9, 6, seed=7))
        vec = DistributedNE(65, seed=0).partition(graph)
        ref = DistributedNE(65, seed=0, kernel="python").partition(graph)
        assert vec.extra["membership"] == "packed"
        assert ref.extra["membership"] == "dict"
        assert np.array_equal(vec.assignment, ref.assignment)
        assert vec.extra["ops_one_hop"] == ref.extra["ops_one_hop"]
        assert vec.extra["ops_two_hop"] == ref.extra["ops_two_hop"]
        assert vec.extra["cluster"] == ref.extra["cluster"]


#: every deterministic accounting key of a DNE run's ``extra``
_ACCOUNTING_KEYS = (
    "cluster", "ops_one_hop", "ops_two_hop", "mem_score",
    "steps_executed", "steps_skipped", "model_selection_ops",
    "model_allocation_ops", "selection_share_model",
    "random_seed_requests", "remote_seed_requests")


def _flat_mail(cluster):
    """Undrained segment mail as per-tag ``(dst, src, payload)`` lists
    in delivery order — the form in which one whole-cluster sweep and
    the per-machine sweeps of directly stepped processes compare."""
    out: dict = {}
    for tag, batch in cluster.segment_mail():
        out.setdefault(tag, []).extend(
            (dst, src, payload.tolist())
            for dst, (src, payload) in batch.messages())
    return out


def _mini_dne(graph, placement):
    """A DNE deployment without its driver: one vectorized allocation
    and one expansion process per machine of ``placement``, registered
    with a fresh cluster — ``(cluster, allocs, exps)``."""
    machines = placement.num_processes
    homes = placement.place_edges(graph.edges)
    cluster = SimulatedCluster()
    allocs = [cluster.add_process(AllocationProcess(
        k, graph.edges, graph.num_vertices, np.flatnonzero(homes == k),
        placement))
        for k in range(machines)]
    source = SharedSeedSource([a.local_vertices for a in allocs],
                              [a.rest_degree for a in allocs])
    exps = [cluster.add_process(ExpansionProcess(
        k, machines, limit=graph.num_edges,
        total_edges=graph.num_edges, lam=0.5, seed=0,
        placement=placement, seed_source=source))
        for k in range(machines)]
    return cluster, allocs, exps


class TestFusedDispatchEquivalence:
    """The two DNE tiers: python reference == plane, and one plane per
    machine == one plane over the whole cluster.

    A small graph spread over 256 partitions is the worst case for
    the plane's segment bookkeeping: most per-partition batches hold a
    handful of edges and most mailboxes are empty, so any ordering or
    accounting slip between the concatenated-segment path and the
    reference's per-process loop shows up here first."""

    @staticmethod
    def _assert_plane_matches_reference(partitions):
        graph = CSRGraph(rmat_edges(8, 6, seed=3))
        vec = DistributedNE(partitions, seed=0).partition(graph)
        ref = DistributedNE(partitions, seed=0,
                            kernel="python").partition(graph)
        assert np.array_equal(vec.assignment, ref.assignment)
        assert vec.iterations == ref.iterations
        for key in _ACCOUNTING_KEYS:
            assert vec.extra[key] == ref.extra[key], key
        assert vec.replication_factor() == ref.replication_factor()
        return vec

    def test_tiny_batches_at_256_partitions(self):
        vec = self._assert_plane_matches_reference(256)
        assert vec.extra["membership"] == "packed"

    @pytest.mark.parametrize("partitions", [4, 64])
    def test_plane_matches_reference(self, partitions):
        vec = self._assert_plane_matches_reference(partitions)
        assert vec.extra["membership"] == "dense"

    def test_one_plane_per_machine_is_the_plane_over_the_whole_cluster(self):
        """One explicit plane per machine (its allocator and expander —
        the subset property each ``processes`` worker's plane relies
        on): same state, same counters and the same sweeps, message for
        message, as one plane over the whole cluster."""
        graph = CSRGraph(rmat_edges(9, 6, seed=5))
        placement = Hash2DPlacement(4, seed=0)
        whole, w_allocs, w_exps = _mini_dne(graph, placement)
        plane = FusedDnePlane(w_allocs + w_exps, placement)
        direct, d_allocs, d_exps = _mini_dne(graph, placement)
        planes = [FusedDnePlane([a, e], placement)
                  for a, e in zip(d_allocs, d_exps)]
        phases = [("select_and_multicast", w_exps, d_exps),
                  ("one_hop_and_sync", w_allocs, d_allocs),
                  ("two_hop_and_report", w_allocs, d_allocs),
                  ("update_state", w_exps, d_exps)]
        sweeps = 0
        for _ in range(6):
            for method, w_procs, d_procs in phases:
                plane.run(method, [proc.pid for proc in w_procs])
                for proc in d_procs:
                    planes[proc.pid[1]].run(method, [proc.pid])
                mail = _flat_mail(whole)
                assert mail == _flat_mail(direct), method
                sweeps += len(mail)
                whole.barrier()
                direct.barrier()
        assert sweeps >= 12          # the comparison saw real traffic
        assert all(own._alloc_procs == [a] and own._exp == {e.pid: e}
                   for own, a, e in zip(planes, d_allocs, d_exps))
        for w, d in zip(w_allocs, d_allocs):
            assert w.unallocated == d.unallocated < len(w.eids)
            assert np.array_equal(w.alloc, d.alloc)
            assert np.array_equal(w._part_loads, d._part_loads)
            assert np.array_equal(w.rest_degree, d.rest_degree)
            assert w.vertex_parts == d.vertex_parts
            assert (w.ops_one_hop, w.ops_two_hop) \
                == (d.ops_one_hop, d.ops_two_hop)
        for w, d in zip(w_exps, d_exps):
            assert w.edge_count == d.edge_count
            assert np.array_equal(w.collected_edge_ids(),
                                  d.collected_edge_ids())
            assert w.selection_ops == d.selection_ops
            assert w.boundary.pop_k_min(10 ** 6) \
                == d.boundary.pop_k_min(10 ** 6)
        assert whole.stats.per_process == direct.stats.per_process

    def test_scheduler_plane_adopts_the_local_csr_as_int32(self):
        """One 32-bit copy: once a scheduler's plane exists its fused
        adjacency arrays and scratch are int32, hold each allocator's
        local CSR plus its machine offset, and no allocator keeps a copy
        — so a second plane over them raises (and a direct step raises
        as it does for any vectorized process)."""
        graph = CSRGraph(rmat_edges(9, 6, seed=5))
        placement = Hash2DPlacement(4, seed=0)
        program = DneWorkerProgram(4, placement, True, "vectorized", 0.5,
                                   0, "random", graph.num_edges,
                                   graph.num_vertices)
        pids = [(role, k) for role in ("alloc", "expansion")
                for k in range(4)]
        procs = program.build(pids, program.arrays(graph.edges))
        allocs = [procs["alloc", k] for k in range(4)]
        local = [{name: getattr(a, name).copy()
                  for name in ("_adj_eid", "_adj_other", "_lsrc", "_ldst")}
                 for a in allocs]
        plane = program.build_plane(procs)
        for name in ("_adj_eid", "_adj_other", "_lsrc", "_ldst", "_eids",
                     "_edge_scratch", "_vertex_scratch"):
            assert getattr(plane, name).dtype == np.int32, name
        for name, offsets in (("_adj_eid", plane._eoff),
                              ("_adj_other", plane._voff),
                              ("_lsrc", plane._voff), ("_ldst", plane._voff)):
            assert np.array_equal(getattr(plane, name), np.concatenate(
                [arrs[name] + off for arrs, off in zip(local, offsets)]))
        assert np.array_equal(plane._eids,
                              np.concatenate([a.eids for a in allocs]))
        for a in allocs:
            assert all(getattr(a, name) is None for name in (
                "_adj_ptr", "_adj_eid", "_adj_other", "_lsrc", "_ldst"))
        with pytest.raises(ValueError, match="already adopted"):
            FusedDnePlane(allocs, placement)
        with pytest.raises(RuntimeError, match="FusedDnePlane"):
            allocs[0].one_hop_and_sync()

    def test_fused_id_bound_raises_past_2_31(self):
        """Fused ids are int32 with no int64 fallback: an id space past
        2³¹ (a fabricated machine offset here) raises instead of
        wrapping, and one that ends exactly at 2³¹ is exact."""
        part = np.arange(2, dtype=np.int32)
        fused = fused_module._fuse_int32(
            [part], np.array([2 ** 31 - 2, 2 ** 31]), "edge")
        assert fused.dtype == np.int32
        assert fused.tolist() == [2 ** 31 - 2, 2 ** 31 - 1]
        with pytest.raises(ValueError, match="2\\*\\*31"):
            fused_module._fuse_int32(
                [part], np.array([2 ** 31 - 1, 2 ** 31 + 1]), "edge")

    @pytest.mark.parametrize("width", [8, 64, 256])
    def test_pair_keys_do_not_wrap_near_the_int32_bound(self, width):
        """``(id, partition)`` keys from int32 fused ids are widened
        before the multiply, so ids at and past 2³¹ / width stay exact."""
        ids = np.array([2 ** 31 // width - 1, 2 ** 31 // width,
                        2 ** 31 - 1], dtype=np.int32)
        ps = np.array([width - 1, 0, width - 1], dtype=np.int64)
        keys = fused_module._pair_keys(ids, ps, width)
        assert keys.dtype == np.int64
        assert keys.tolist() == [int(i) * width + int(p)
                                 for i, p in zip(ids, ps)]

    def test_adoption_bounds_the_global_vertex_space(self, monkeypatch):
        """Sync, select and boundary rows carry global vertex ids as
        int32, so a vertex-id space past the bound raises at adoption —
        before any allocator's CSR is adopted — instead of wrapping in
        the mail.  The bound is patched down, nothing large is built."""
        graph = CSRGraph(rmat_edges(9, 6, seed=5))
        placement = Hash2DPlacement(4, seed=0)
        program = DneWorkerProgram(4, placement, True, "vectorized", 0.5,
                                   0, "random", graph.num_edges,
                                   graph.num_vertices)
        pids = [(role, k) for role in ("alloc", "expansion")
                for k in range(4)]
        procs = program.build(pids, program.arrays(graph.edges))
        monkeypatch.setattr(fused_module, "_FUSED_ID_BOUND",
                            graph.num_vertices - 1)
        with pytest.raises(ValueError, match=(
                rf"global vertex ids run to {graph.num_vertices - 1}")):
            program.build_plane(procs)
        assert all(procs["alloc", k]._adj_eid is not None
                   for k in range(4))

    def test_update_products_do_not_wrap_near_the_int32_bound(self):
        """The update kernel widens int32 slots to int64 before its two
        products: the boundary fold's ``slot * G`` row key (a vertex id
        of 2**31 - 1 makes G = 2**31) and the edge report's ``dst *
        (max src + 1)`` sort key (a source slot of 2**31 - 1).
        Synthetic mail, filed straight into the mailboxes."""
        placement = Hash2DPlacement(4, seed=0)
        cluster = SimulatedCluster()
        source = SharedSeedSource([], [])
        exps = [cluster.add_process(ExpansionProcess(
            k, 4, limit=100, total_edges=100, lam=0.5, seed=0,
            placement=placement, seed_source=source)) for k in range(4)]
        plane = FusedDnePlane(exps, placement)
        top = 2 ** 31 - 1
        cluster.put_segments(TAG_BOUNDARY, SegmentBatch.from_runs(
            np.array([[top - 1, 2], [5, 1], [top - 1, 3], [top, 1], [7, 4]],
                     dtype=np.int32), "alloc", np.array([0, 0, 1, 1, 1]),
            "expansion", np.array([3, 3, 3, 1, 2])))
        cluster.put_segments(TAG_EDGES, SegmentBatch.from_runs(
            np.array([10, 11, 12, 13, 14, 15], dtype=np.int32), "alloc",
            np.array([top, top, 3, 3, 3, top]), "expansion",
            np.array([1, 1, 1, 2, 2, 3])))
        plane.run("update_state", [proc.pid for proc in exps], iteration=1)
        got = [tuple(arr.tolist() for arr in proc.boundary.entries())
               for proc in exps]
        assert got == [([], []), ([top], [1]), ([7], [4]),
                       ([5, top - 1], [1, 5])]
        # mailbox order: destination, then ascending source
        assert [proc.collected_edge_ids().tolist() for proc in exps] == [
            [], [12, 10, 11], [13, 14], [15]]
        assert [proc.edge_count for proc in exps] == [0, 3, 2, 1]

    @pytest.mark.parametrize("machines", [4, 8, 13, 64, 256])
    def test_replica_count_is_maintained_where_bits_are_set(self, machines):
        """The memory model's replica-entry count is incremental: after
        every phase it equals a full recount of the machine's
        membership matrix (``entries()``, the oracle), under both
        layouts, and what each machine last reported is the from-
        scratch value — dense: 8 bytes per entry; packed (|P| = 256):
        the constant word footprint, entries never reported."""
        graph = CSRGraph(rmat_edges(9, 6, seed=5))
        placement = Hash2DPlacement(machines, seed=0)
        cluster, allocs, exps = _mini_dne(graph, placement)
        plane = FusedDnePlane(allocs + exps, placement)
        kind = "packed" if machines > 64 else "dense"
        assert {a.membership_kind for a in allocs} == {kind}
        grown = 0
        for _ in range(5):
            for method, procs in (("select_and_multicast", exps),
                                  ("one_hop_and_sync", allocs),
                                  ("two_hop_and_report", allocs),
                                  ("update_state", exps)):
                before = [a._replica_count for a in allocs]
                plane.run(method, [proc.pid for proc in procs])
                cluster.barrier()
                for a, was in zip(allocs, before):
                    assert a._replica_count == a._member.entries(), method
                    grown += a._replica_count - was
                if method != "two_hop_and_report":
                    continue
                for a in allocs:
                    resident = cluster.stats.stats_for(a.pid)._resident
                    if kind == "dense":
                        assert resident["replica_sets"] \
                            == a._member.entries() * 8
                        assert "membership_words" not in resident
                    else:
                        assert resident["replica_sets"] == 0
                        assert resident["membership_words"] \
                            == a._member.nbytes()
        assert grown > 0             # both allocation phases set bits

    @pytest.mark.parametrize("partitions", [16, 64])
    def test_one_hop_gathers_adjacency_once(self, partitions, monkeypatch):
        """Structural pin of the single-pass one-hop: however many
        (machine, partition) groups a superstep walks, it gathers the
        adjacency slots of its selected vertices in one call — no
        per-round loop."""
        calls = []
        real_slots = fused_module.adjacency_slots
        real_one_hop = FusedDnePlane._run_one_hop

        def counting_slots(indptr, rows):
            calls.append(len(rows))
            return real_slots(indptr, rows)

        def counting_one_hop(plane, pids):
            start = len(calls)
            out = real_one_hop(plane, pids)
            per_step.append(len(calls) - start)
            return out

        per_step: list = []
        monkeypatch.setattr(fused_module, "adjacency_slots", counting_slots)
        monkeypatch.setattr(FusedDnePlane, "_run_one_hop", counting_one_hop)
        res = DistributedNE(partitions, seed=0).partition(
            CSRGraph(rmat_edges(8, 6, seed=3)))
        assert len(per_step) == res.iterations
        assert set(per_step) == {1}
        assert max(calls) > 1        # a gather spans many groups

    @pytest.mark.parametrize("partitions", [16, 64])
    def test_selection_and_update_are_segment_kernels(self, partitions,
                                                      monkeypatch):
        """Structural pin of the plane-owned boundary store: however
        many expanders take part, a selection superstep pops the store
        exactly once, an update superstep inserts at most once, and a
        two-hop machine group (``_run_two_hop``; the whole superstep at
        this shape) resolves every machine's contested edges in at most
        one call — no per-process, per-machine loop."""
        calls = {"pop": 0, "insert": 0, "resolve": 0}
        per_step = {"pop": [], "insert": [], "resolve": []}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        def stepping(name, real):
            def wrapper(plane, pids):
                before = calls[name]
                out = real(plane, pids)
                per_step[name].append(calls[name] - before)
                return out
            return wrapper

        monkeypatch.setattr(BoundaryStore, "pop",
                            counting("pop", BoundaryStore.pop))
        monkeypatch.setattr(BoundaryStore, "insert",
                            counting("insert", BoundaryStore.insert))
        monkeypatch.setattr(
            fused_module, "_resolve_multi_shared",
            counting("resolve", fused_module._resolve_multi_shared))
        for name, method in (("pop", "_run_select"),
                             ("insert", "_run_update"),
                             ("resolve", "_run_two_hop")):
            monkeypatch.setattr(FusedDnePlane, method,
                                stepping(name, getattr(FusedDnePlane,
                                                       method)))
        res = DistributedNE(partitions, seed=0).partition(
            CSRGraph(rmat_edges(8, 6, seed=3)))
        assert len(per_step["pop"]) == res.iterations
        assert set(per_step["pop"]) == {1}
        for name in ("insert", "resolve"):
            assert set(per_step[name]) <= {0, 1}, name
            assert sum(per_step[name]) > 0, name    # the pin saw real work


class TestBoundedSweeps:
    """Bounded sweeps: two-hop runs machine group by machine group and
    one-hop fans its sync rows out in machine ranges, each within the
    plane's ``_SWEEP_ROWS`` budget.  A run cut into many groups must be
    bit-identical to the one-group run and to the python reference."""

    def test_budget_groups_examples(self):
        groups = fused_module._budget_groups
        assert groups([], 5) == []
        assert groups([3, 1, 1], 5) == [(0, 3)]          # under: one group
        assert groups([3, 9, 2, 2, 0, 4], 4) \
            == [(0, 1), (1, 2), (2, 5), (5, 6)]           # 9: alone
        assert groups([7], 4) == [(0, 1)]

    @pytest.mark.parametrize("trial", range(16))
    def test_budget_groups_contiguous_covering_and_bounded(self, trial):
        rng = np.random.default_rng(trial)
        sizes = rng.integers(0, 40, int(rng.integers(0, 30))).tolist()
        budget = int(rng.integers(1, 60))
        groups = fused_module._budget_groups(sizes, budget)
        # Contiguous, covering, order kept, none empty.
        assert [i for lo, hi in groups for i in range(lo, hi)] \
            == list(range(len(sizes)))
        assert all(hi > lo for lo, hi in groups)
        # Within the budget unless a single item; greedy, so the next
        # group's first item did not fit.
        for lo, hi in groups:
            assert sum(sizes[lo:hi]) <= budget or hi - lo == 1
        for (lo, hi), (nxt, _) in zip(groups, groups[1:]):
            assert sum(sizes[lo:hi]) + sizes[nxt] > budget
        if sizes and sum(sizes) <= budget:
            assert groups == [(0, len(sizes))]

    @pytest.mark.parametrize("partitions", [16, 64, 256])
    def test_many_groups_match_one_group_and_reference(self, partitions,
                                                       monkeypatch):
        """A 16-row budget cuts most sweeps into many groups: the
        simulated, threads (3) and processes (2; forked workers inherit
        the budget) runs all equal the one-group run and the python
        reference — assignments, every accounting total, the step
        ledger and the per-iteration history."""
        graph = CSRGraph(rmat_edges(8, 6, seed=3))

        def run(kernel="vectorized", backend="simulated", workers=None):
            return DistributedNE(partitions, seed=0, kernel=kernel,
                                 backend=backend, workers=workers,
                                 collect_history=True).partition(graph)

        runs = {"python": run("python")}
        base = runs["one group"] = run()
        seen = []
        real_groups = fused_module._budget_groups

        def counting_groups(sizes, budget):
            out = real_groups(sizes, budget)
            seen.append(len(out))
            return out

        monkeypatch.setattr(fused_module, "_budget_groups", counting_groups)
        monkeypatch.setattr(fused_module, "_SWEEP_ROWS", 16)
        runs["simulated"] = run()
        assert max(seen) > 1
        seen.clear()
        runs["threads"] = run(backend="threads", workers=3)
        assert max(seen) > 1
        runs["processes"] = run(backend="processes", workers=2)
        history = hashlib.sha256(
            repr(base.extra["history"]).encode()).hexdigest()
        for name, res in runs.items():
            assert np.array_equal(res.assignment, base.assignment), name
            assert res.iterations == base.iterations, name
            for key in _ACCOUNTING_KEYS:
                assert res.extra[key] == base.extra[key], (name, key)
            assert hashlib.sha256(repr(res.extra["history"]).encode()) \
                .hexdigest() == history, name


    def test_untaken_group_mail_raises_instead_of_spinning(self,
                                                           monkeypatch):
        """A two-hop that skips one machine group in every ``processes``
        worker, replacing the plane's whole call (so its conservation
        check never runs), leaves that group's sync mail queued in the
        worker: the run loses those edges' reports, every live expander
        ends with an empty boundary and no seed, and without the
        driver's stall check the loop repeats one no-op iteration for
        ever.  It must raise, naming the iteration."""
        real_run = fused_module.FusedDnePlane.run

        def skip_second_group(plane, method, pids, iteration=None):
            if method != "two_hop_and_report":
                return real_run(plane, method, pids, iteration)
            out = dict.fromkeys(pids)
            for i, mis in enumerate(plane._two_hop_groups(pids)):
                if i != 1:
                    out.update(plane._run_two_hop(mis))
            return out

        monkeypatch.setattr(fused_module.FusedDnePlane, "run",
                            skip_second_group)
        monkeypatch.setattr(fused_module, "_SWEEP_ROWS", 64)
        graph = CSRGraph(rmat_edges(10, 8, seed=0))
        with pytest.raises(RuntimeError,
                           match=r"stalled in iteration \d+: no vertex"):
            DistributedNE(64, seed=0, backend="processes", workers=2,
                          max_iterations=500).partition(graph)

    @pytest.mark.parametrize("backend,workers", [
        ("simulated", None), ("threads", 3), ("processes", 2)])
    def test_untaken_group_mail_raises_at_the_two_hop_that_lost_it(
            self, backend, workers, monkeypatch, tmp_path):
        """The same lost group, inside the plane's own call: every
        two-hop drops its machine group 1.  The plane's conservation
        check raises in the first iteration whose two-hop had two
        groups, naming the sync tag — on a ``processes`` worker's
        private cluster too — not iterations later through the stall
        check.  The log is a file: forked workers append to it."""
        log = tmp_path / "two_group_iterations"
        log.write_text("")
        real_groups = fused_module.FusedDnePlane._two_hop_groups
        real_run = fused_module.FusedDnePlane.run

        def logging_run(plane, method, pids, iteration=None):
            if (method == "two_hop_and_report"
                    and len(real_groups(plane, pids)) > 1):
                with open(log, "a") as fh:
                    fh.write(f"{iteration}\n")
            return real_run(plane, method, pids, iteration)

        def drop_group_1(plane, pids):
            groups = real_groups(plane, pids)
            return groups[:1] + groups[2:]

        monkeypatch.setattr(fused_module.FusedDnePlane, "run", logging_run)
        monkeypatch.setattr(fused_module.FusedDnePlane, "_two_hop_groups",
                            drop_group_1)
        monkeypatch.setattr(fused_module, "_SWEEP_ROWS", 64)
        graph = CSRGraph(rmat_edges(10, 8, seed=0))
        with pytest.raises(RuntimeError, match=(
                r"two_hop_and_report in iteration (\d+) left \d+ "
                r"'sync' rows queued for machine \d+")) as info:
            DistributedNE(64, seed=0, backend=backend, workers=workers,
                          max_iterations=500).partition(graph)
        raised = int(re.search(r"in iteration (\d+) left",
                               str(info.value)).group(1))
        assert raised == min(map(int, log.read_text().split()))

    @pytest.mark.parametrize("backend,workers", [
        ("simulated", None), ("threads", 3), ("processes", 2)])
    @pytest.mark.parametrize("method,role,tag", [
        ("one_hop_and_sync", "alloc", TAG_SELECT),
        ("update_state", "expansion", TAG_BOUNDARY),
        ("update_state", "expansion", TAG_EDGES)])
    def test_untaken_mail_raises_at_the_step_that_lost_it(
            self, backend, workers, method, role, tag, monkeypatch):
        """Every take of ``tag`` mail skips the first machine that has
        some: the plane's conservation check raises in iteration 1,
        naming the method, the iteration and the tag — on a
        ``processes`` worker's private cluster too (forked workers
        inherit the patch)."""
        real_take = SimulatedCluster.take_segments

        def drop_one_machine(cluster, dst_role, mail_tag, slots):
            if (dst_role, mail_tag) == (role, tag):
                waiting = cluster.mail_slots(dst_role, mail_tag)
                dropped = next(s for s in slots if s in waiting)
                slots = [s for s in slots if s != dropped]
            return real_take(cluster, dst_role, mail_tag, slots)

        monkeypatch.setattr(SimulatedCluster, "take_segments",
                            drop_one_machine)
        graph = CSRGraph(rmat_edges(8, 6, seed=3))
        with pytest.raises(RuntimeError, match=(
                rf"{method} in iteration 1 left \d+ '{tag}' rows queued "
                r"for machine \d+")):
            DistributedNE(16, seed=0, backend=backend, workers=workers,
                          max_iterations=500).partition(graph)


class TestEngineEquivalence:
    @pytest.mark.parametrize("partitions", [1, 4, 9])
    def test_gathers_bit_identical(self, partitions):
        graph = CSRGraph(rmat_edges(9, 6, seed=42))
        part = PARTITIONER_REGISTRY["random"](
            partitions, seed=1).partition(graph)
        vec = DistributedGraphEngine(part, seed=0)
        ref = DistributedGraphEngine(part, seed=0, kernel="python")
        assert np.array_equal(vec.master, ref.master)
        assert np.array_equal(vec.replica_count, ref.replica_count)

        rng = np.random.default_rng(0)
        values = rng.random(graph.num_vertices)
        active = rng.random(graph.num_vertices) < 0.4
        dist = np.where(active, values * 10, np.inf)
        sv = AppRunStats(local_seconds=np.zeros(partitions))
        sr = AppRunStats(local_seconds=np.zeros(partitions))

        assert np.array_equal(
            vec.gather_sum(values, sv, weight_by_degree=True),
            ref.gather_sum(values, sr, weight_by_degree=True))
        assert sv.comm_bytes == sr.comm_bytes

        assert np.array_equal(
            vec.gather_min(dist, sv, active, offset=1.0),
            ref.gather_min(dist, sr, active, offset=1.0))
        assert sv.comm_bytes == sr.comm_bytes


class TestAllGatherAccounting:
    def _reference_totals(self, pids):
        sent = {pid: [0, 0] for pid in pids}
        recv = {pid: [0, 0] for pid in pids}
        for src in pids:
            for dst in pids:
                if src == dst:
                    continue
                nbytes = 0 if _same_machine(src, dst) else 8
                sent[src][0] += 1
                sent[src][1] += nbytes
                recv[dst][0] += 1
                recv[dst][1] += nbytes
        return sent, recv

    @pytest.mark.parametrize("pids", [
        [("expansion", k) for k in range(6)],
        [("expansion", 0), ("alloc", 0), ("expansion", 1)],
        [("a", 0), ("b", 2), ("x", 1), ("y", 1)],
        [("solo", 0)],
    ])
    def test_bulk_matches_per_message_loop(self, pids):
        cluster = SimulatedCluster()
        for pid in pids:
            cluster.add_process(Process(pid))
        total = cluster.all_gather_sum({pid: 2.0 for pid in pids})
        assert total == 2.0 * len(pids)
        sent, recv = self._reference_totals(sorted(pids, key=repr))
        for pid in pids:
            s = cluster.stats.stats_for(pid)
            assert [s.messages_sent, s.bytes_sent] == sent[pid]
            assert [s.messages_received, s.bytes_received] == recv[pid]


class TestLeastLoadedFill:
    """The leftover sweep's batch form (NE, SNE and Distributed NE
    share it) equals the sequential loop: take ``argmin(loads)``, ties
    to the lowest partition id, and bump it."""

    @staticmethod
    def _argmin_loop(loads, count):
        loads = loads.copy()
        out = []
        for _ in range(count):
            target = int(np.argmin(loads))
            out.append(target)
            loads[target] += 1
        return out

    @pytest.mark.parametrize("trial", range(12))
    def test_equals_the_argmin_loop(self, trial):
        rng = np.random.default_rng(trial)
        num = int(rng.integers(1, 40))
        # few distinct levels, so ties are everywhere
        loads = rng.integers(0, 6, num) * int(rng.integers(1, 4))
        count = int(rng.integers(0, 5 * num))
        assert _least_loaded_targets(loads, count).tolist() \
            == self._argmin_loop(loads, count)

    @pytest.mark.parametrize("num,count", [(1, 5), (7, 0), (7, 23),
                                           (300, 1000)])
    def test_all_equal_loads_fill_round_robin(self, num, count):
        loads = np.full(num, 9, dtype=np.int64)
        got = _least_loaded_targets(loads, count)
        assert got.dtype == np.int64 and len(got) == count
        assert got.tolist() == self._argmin_loop(loads, count) \
            == [i % num for i in range(count)]

    def test_count_zero_returns_empty(self):
        assert _least_loaded_targets(np.array([3, 1, 2]), 0).tolist() == []


def _step(alloc, plane, method):
    """One allocation phase of ``alloc``: through ``plane`` under the
    vectorized kernel (``plane`` not ``None``), the reference step
    method otherwise."""
    if plane is None:
        getattr(alloc, method)()
    else:
        plane.run(method, [alloc.pid])


class TestTwoHopLoadsDelta:
    """Conflict-heavy two-hop: the loads-delta batching (vectorized
    segment reductions + collision-only replay) must match the
    reference's sequential running-loads walk bit-for-bit even when
    most contested edges collide with each other."""

    @pytest.mark.parametrize("partitions", [3, 6])
    @pytest.mark.parametrize("seed", [0, 4])
    def test_sync_flood_bit_identical(self, partitions, seed, monkeypatch):
        """Allocation state and every process's counters — messages,
        bytes, batch ticks, residents — tie whole: both kernels send
        on the one message plane."""
        contested = []
        orig = fused_module._resolve_multi_shared
        monkeypatch.setattr(
            fused_module, "_resolve_multi_shared",
            lambda member, loads, cand_shared, tgt, multi, cand_mi: (
                contested.append(len(multi)),
                orig(member, loads, cand_shared, tgt, multi, cand_mi))[1])

        graph = CSRGraph(rmat_edges(9, 14, seed=seed))
        results = {}
        for kernel in ("python", "vectorized"):
            cluster = SimulatedCluster()
            placement = Hash2DPlacement(1, seed=0)
            alloc = cluster.add_process(AllocationProcess(
                0, graph.edges, graph.num_vertices,
                np.arange(graph.num_edges), placement, kernel=kernel))
            alloc._ensure_partition_capacity(partitions - 1)
            plane = (FusedDnePlane([alloc], placement)
                     if kernel == "vectorized" else None)
            cluster.add_process(Process(("alloc", 1)))
            for p in range(partitions):
                cluster.add_process(Process(("expansion", p)))
            rng = np.random.default_rng(seed)
            for _ in range(5):
                vs = rng.integers(0, graph.num_vertices, 250)
                ps = rng.integers(0, partitions, 250)
                cluster.process(("alloc", 1)).send(
                    "alloc", TAG_SYNC, [(0, np.column_stack([vs, ps]))])
                cluster.barrier()
                _step(alloc, plane, "two_hop_and_report")
                cluster.barrier()
            results[kernel] = (
                alloc.alloc.copy(), alloc._part_loads.copy(),
                alloc.rest_degree.copy(), alloc.ops_two_hop,
                cluster.stats.per_process)
        for a, b in zip(results["python"], results["vectorized"]):
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b)
            else:
                assert a == b
        # The flood must actually produce contested (multi-shared)
        # edges through the loads-delta path, or this test pins
        # nothing.
        assert sum(contested) > 20
        assert (results["python"][0] >= 0).sum() > 100

    @pytest.mark.parametrize("trial", range(8))
    def test_resolve_multi_shared_matches_sequential_walk(self, trial):
        """Direct property test of the loads-delta resolution against
        a brute-force replay of the reference's running least-loaded
        walk — fabricated candidate batches covering both overlapping
        (colliding) and disjoint (isolated, vectorized segment-min)
        contested edges, over one to three machines in one call
        (machine-major walk; loads, prefix counts and collisions are
        per machine), in both membership layouts' mask forms."""
        rng = np.random.default_rng(trial)
        width = int(rng.integers(4, 10))
        num_cand = int(rng.integers(6, 60))
        machines = 1 + trial % 3
        base = rng.integers(0, 12, (machines, width)).astype(np.int64)
        cand_mi = np.sort(rng.integers(0, machines, num_cand))

        # Fabricate the candidate walk: singles with random targets,
        # contested rows with 2..4 candidate partitions.  Half the
        # trials confine contested candidates to disjoint partition
        # blocks, forcing the isolated fast path.
        cand = np.zeros((num_cand, width), dtype=bool)
        tgt = np.full(num_cand, -1, dtype=np.int64)
        multi_rows = []
        disjoint = trial % 2 == 0
        block = 0
        for i in range(num_cand):
            if rng.random() < 0.5:
                tgt[i] = rng.integers(width)
            elif disjoint:
                # Each contested row gets its own partition block (and
                # once blocks run out, rows become singles), so every
                # contested edge takes the isolated segment-min path.
                if 2 * (block + 1) <= width:
                    cand[i, [2 * block, 2 * block + 1]] = True
                    multi_rows.append(i)
                    block += 1
                else:
                    tgt[i] = rng.integers(width)
            else:
                qs = rng.choice(width, size=int(rng.integers(2, 5)),
                                replace=False)
                cand[i, qs] = True
                multi_rows.append(i)
        if not multi_rows:
            return
        multi = np.array(multi_rows)

        # Brute-force reference: the sequential walk over every
        # candidate edge with running loads.
        running = base.copy()
        expect = tgt.copy()
        for i in range(num_cand):
            loads = running[cand_mi[i]]
            if expect[i] >= 0:
                loads[expect[i]] += 1
            else:
                qs = np.flatnonzero(cand[i]).tolist()
                q = min(qs, key=lambda x: (loads[x], x))
                expect[i] = q
                loads[q] += 1

        # Each layout resolves its own masks: the candidate rows held
        # as membership rows, intersected with themselves.
        rows, ps = np.nonzero(cand)
        every = np.arange(num_cand)
        for layout in (DenseMembership, PackedMembership):
            member = layout(num_cand, width)
            member.set_pairs(rows, ps)
            got = tgt.copy()
            fused_module._resolve_multi_shared(
                member, base, member.rows_and(every, every), got, multi,
                cand_mi)
            assert np.array_equal(got, expect), layout.kind


class TestReferencePathHygiene:
    def test_no_phantom_replica_sets(self):
        """Two-hop membership probes must not materialise empty sets
        (the defaultdict leak inflated the Fig-9 replica report)."""
        graph = CSRGraph(rmat_edges(8, 6, seed=5))
        cluster = SimulatedCluster()
        placement = Hash2DPlacement(1, seed=0)
        alloc = cluster.add_process(AllocationProcess(
            0, graph.edges, graph.num_vertices, np.arange(graph.num_edges),
            placement, kernel="python"))
        driver = cluster.add_process(Process(("expansion", 0)))
        cluster.add_process(Process(("expansion", 1)))
        # Two rounds of selections, exercising one-hop and two-hop.
        for payload in ([(0, 0), (1, 1)], [(2, 0), (3, 1)]):
            driver.send("alloc", TAG_SELECT, [(0, payload)])
            cluster.barrier()
            alloc.one_hop_and_sync()
            cluster.barrier()
            alloc.two_hop_and_report()
            cluster.barrier()
        assert all(len(s) > 0 for s in alloc._parts.values())
        # The memory report counts exactly the real replica pairs.
        entries = sum(len(s) for s in alloc._parts.values())
        stats = cluster.stats.stats_for(alloc.pid)
        assert stats._resident["replica_sets"] == entries * 8

    def test_vectorized_replica_report_matches_reference(self):
        graph = CSRGraph(rmat_edges(8, 6, seed=5))
        results = {}
        for kernel in ("python", "vectorized"):
            cluster = SimulatedCluster()
            placement = Hash2DPlacement(1, seed=0)
            alloc = cluster.add_process(AllocationProcess(
                0, graph.edges, graph.num_vertices,
                np.arange(graph.num_edges), placement, kernel=kernel))
            alloc._ensure_partition_capacity(1)
            plane = (FusedDnePlane([alloc], placement)
                     if kernel == "vectorized" else None)
            cluster.add_process(Process(("expansion", 0)))
            cluster.add_process(Process(("expansion", 1)))
            cluster.process(("expansion", 0)).send(
                "alloc", TAG_SELECT, [(0, [(0, 0), (1, 1)])])
            cluster.barrier()
            _step(alloc, plane, "one_hop_and_sync")
            cluster.barrier()
            _step(alloc, plane, "two_hop_and_report")
            cluster.barrier()
            results[kernel] = (
                cluster.stats.per_process,
                {lv: set(ps) for lv, ps in alloc.vertex_parts.items()
                 if ps})
        assert results["python"] == results["vectorized"]
