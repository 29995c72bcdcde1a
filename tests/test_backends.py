"""Execution-backend equivalence pins.

The contract of :mod:`repro.cluster.backends`: the ``simulated``,
``threads`` and ``processes`` backends run the *same* Process/barrier
programs and must be observationally identical — bit-identical
``assignment`` arrays and identical message/byte/barrier/memory
accounting totals — for DNE, the one program on the plane, under both
kernels, at |P| well below and at the dense-membership width.  Wall
clock is the only thing a backend may change.

Every harness here enters a backend the one way there is,
``start(cluster, program, pids, arrays)``.  Also covered: the
one dispatch function behind all three backends (``run_steps``: fused
vs per-process, arming, failure naming) as a table, the outbox replay
protocol in isolation (each parallel backend == inline for every
payload shape; threads for every share boundary), the shared-memory
arena round trip and what DNE maps into it (of the graph, the edge
array only), the processes backend spawning only workers that own
a pid, and crash propagation over all three backends — a step that
raises on a parallel backend must surface as :class:`WorkerStepError`
naming the partition, promptly, with no hang and no orphaned workers.

Run with ``--workers N`` (root conftest option; default 2, CI runs 4).
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.cluster.backends import (BACKENDS, ProcessesBackend, ShmArena,
                                    ThreadsBackend, WorkerProgram,
                                    WorkerStepError, create_backend,
                                    validate_backend)
from repro.cluster.backends.base import run_steps
from repro.cluster.runtime import Process, SegmentBatch, SimulatedCluster
from repro.core.distributed_ne import DistributedNE, DneWorkerProgram
from repro.core.hash2d import Hash2DPlacement
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_edges
from tests.conftest import dense_membership_shapes

PARALLEL = ("threads", "processes")


@pytest.fixture(scope="module")
def graph() -> CSRGraph:
    return CSRGraph(rmat_edges(9, 6, seed=42))


@pytest.fixture
def workers(request) -> int:
    return request.config.getoption("--workers")


def _run_dne(graph, partitions, kernel, backend, workers,
             checkpoint_dir=None):
    return DistributedNE(partitions, seed=0, kernel=kernel,
                         backend=backend, workers=workers,
                         checkpoint_dir=checkpoint_dir).partition(graph)


#: extra keys that must be identical across backends (everything
#: deterministic: traffic, ops, memory, protocol counters, and the
#: superstep ledger — empty-mailbox short-circuits are driver
#: decisions, so executed/skipped step counts cannot depend on the
#: backend or on fused vs per-process dispatch)
_PINNED_EXTRA = ("cluster", "ops_one_hop", "ops_two_hop", "mem_score",
                 "membership", "model_selection_ops",
                 "model_allocation_ops", "random_seed_requests",
                 "remote_seed_requests", "steps_executed",
                 "steps_skipped")


class TestDneBackendEquivalence:
    @pytest.mark.parametrize("kernel", ["vectorized", "python"])
    @pytest.mark.parametrize("partitions", [4, 64])
    def test_backends_bit_identical(self, graph, kernel, partitions,
                                    workers, tmp_path):
        """simulated == threads == processes: assignments and every
        deterministic accounting total, both kernels, |P| ∈ {4, 64}.
        The parallel runs checkpoint, so their snapshots show the
        vectorized state each backend ran on: at |P| = 4 the padded
        dense byte store (8 columns, one word per row)."""
        base = _run_dne(graph, partitions, kernel, "simulated", None)
        for backend in PARALLEL:
            ckpt = str(tmp_path / backend)
            res = _run_dne(graph, partitions, kernel, backend, workers,
                           checkpoint_dir=ckpt)
            assert np.array_equal(res.assignment, base.assignment), backend
            assert res.iterations == base.iterations, backend
            for key in _PINNED_EXTRA:
                assert res.extra[key] == base.extra[key], (backend, key)
            if kernel == "vectorized":
                assert dense_membership_shapes(ckpt) == {
                    (-(-partitions // 8) * 8, partitions)}, backend

    def test_step_ledger_records_skips(self, graph):
        """Empty-mailbox short-circuits actually fire: a real run both
        executes and skips steps (the cross-backend agreement on the
        exact counts is pinned via _PINNED_EXTRA above)."""
        res = _run_dne(graph, 4, "vectorized", "simulated", None)
        assert res.extra["steps_executed"] > 0
        assert res.extra["steps_skipped"] > 0
        assert res.extra["steps_executed"] == \
            _run_dne(graph, 4, "python", "simulated", None) \
            .extra["steps_executed"]

    def test_min_degree_seed_strategy_identical(self, graph, workers):
        """The min_degree seed scan — SharedSeedSource routing through
        ``seed_vertex_min_degree`` over the shm arrays on the processes
        backend — must stay in lockstep with the in-process lookups
        (every first iteration hits the empty-boundary fallback)."""
        base = DistributedNE(4, seed=0,
                             seed_strategy="min_degree").partition(graph)
        for backend in PARALLEL:
            res = DistributedNE(4, seed=0, seed_strategy="min_degree",
                                backend=backend,
                                workers=workers).partition(graph)
            assert np.array_equal(res.assignment, base.assignment), backend
            assert res.extra["cluster"] == base.extra["cluster"], backend

    @pytest.mark.parametrize("kernel", ["vectorized", "python"])
    def test_allocators_own_the_seed_arrays(self, graph, kernel):
        """In-process, each allocator's local-vertex ids and remaining
        degrees *are* the program's ``lv<k>`` / ``rd<k>`` arrays the
        seed source reads: one copy — the home's sorted endpoint ids —
        and degrees filled in by the allocator at build time."""
        parts = 4
        placement = Hash2DPlacement(parts, seed=0)
        homes = placement.place_edges(graph.edges)
        program = DneWorkerProgram(parts, placement, True, kernel, 0.1, 0,
                                   "random", graph.num_edges,
                                   graph.num_vertices)
        arrays = program.arrays(graph.edges)
        pids = [("alloc", k) for k in range(parts)] + [("expansion", 0)]
        procs = program.build(pids, arrays)
        assert list(procs) == pids
        for k in range(parts):
            alloc = procs["alloc", k]
            home = graph.edges[homes == k]
            assert np.array_equal(alloc.eids, np.flatnonzero(homes == k))
            assert alloc.local_vertices is arrays[f"lv{k}"]
            assert alloc.rest_degree is arrays[f"rd{k}"]
            assert alloc.edges is arrays["edges"] is graph.edges
            assert np.array_equal(alloc.local_vertices, np.unique(home))
            assert alloc.rest_degree.sum() == home.size
        assert procs["expansion", 0].seed_source.live().all()

    def test_history_identical(self, graph, workers):
        """The per-iteration trace (Figure 6 series) survives gathering
        through worker boundaries."""
        base = DistributedNE(4, seed=0, collect_history=True).partition(graph)
        for backend in PARALLEL:
            res = DistributedNE(4, seed=0, collect_history=True,
                                backend=backend,
                                workers=workers).partition(graph)
            assert res.extra["history"] == base.extra["history"], backend


# ----------------------------------------------------------------------
# run_steps: the single dispatch site
# ----------------------------------------------------------------------
class _StepProcess(Process):
    """Every step reports one resident: an outbox entry when armed."""

    calls = 0

    def _step(self, name):
        self.calls += 1
        self.set_resident(name, self.calls)
        return (name, self.pid)

    def tick(self):
        return self._step("tick")

    def tock(self):
        return self._step("tock")

    def add(self, n):
        self._step("add")
        return ("add", n + 1)

    def boom(self):
        if self.pid == ("s", 2):
            raise RuntimeError("boom in ('s', 2)")
        return self._step("boom")


class _StubPlane:
    """Serves ``tick`` / ``add`` / ``boom`` by calling the processes."""

    methods = frozenset({"tick", "add", "boom"})

    def __init__(self, procs):
        self.procs = procs
        self.calls = []

    def run(self, method, pids, iteration=None):
        self.calls.append((method, list(pids)))
        return {pid: getattr(self.procs[pid], method)() for pid in pids}


_S = [("s", k) for k in range(4)]

#: name -> (steps, method the rule fuses to given a plane, or None)
_RUN_STEPS_TABLE = {
    "homogeneous zero-arg": (
        [(_S[0], "tick", ()), (_S[1], None, ()), (_S[2], "tick", ()),
         (_S[3], "tick", ())], "tick"),
    "two method names": (
        [(_S[0], "tick", ()), (_S[1], "tock", ()), (_S[2], None, ())], None),
    "plane does not serve it": (
        [(_S[0], "tock", ()), (_S[1], "tock", ())], None),
    "a step with args": (
        [(_S[0], "add", (1,)), (_S[1], "add", (2,))], None),
    "all skipped": ([(pid, None, ()) for pid in _S], None),
    "empty list": ([], None),
}


class TestRunSteps:
    def _procs(self):
        return {pid: _StepProcess(pid) for pid in _S}

    @pytest.mark.parametrize("armed", [False, True])
    @pytest.mark.parametrize("with_plane", [False, True])
    @pytest.mark.parametrize("case", sorted(_RUN_STEPS_TABLE))
    def test_dispatch_table(self, case, with_plane, armed):
        steps, fuses_to = _RUN_STEPS_TABLE[case]
        procs = self._procs()
        plane = _StubPlane(procs) if with_plane else None
        results, failure = run_steps(procs, plane, steps, ("calls",), armed)
        assert failure is None
        values, seconds, outboxes, gathered = results
        live = [pid for pid, method, _ in steps if method is not None]
        # Fused exactly when the rule says: one plane call over the
        # live pids, or none at all.
        if with_plane:
            assert plane.calls == ([(fuses_to, live)] if fuses_to else [])
        # Every step gathers, in step order; only live steps ran, and
        # only the live steps of an armed share carry an outbox.
        assert list(gathered) == [pid for pid, _, _ in steps]
        assert list(values) == list(seconds) == live
        assert list(outboxes) == (live if armed else [])
        for pid, method, args in steps:
            if method is None:
                assert gathered[pid] == {"calls": 0}
                continue
            assert values[pid] == ((method, args[0] + 1) if args
                                   else (method, pid))
            assert seconds[pid] >= 0.0
            assert gathered[pid] == {"calls": 1}
            if armed:
                assert outboxes[pid] == [("resident", method, 1)]
        assert all(proc._outbox is None for proc in procs.values())

    @pytest.mark.parametrize("armed", [False, True])
    @pytest.mark.parametrize("with_plane", [False, True])
    def test_failure_names_pid_and_disarms(self, with_plane, armed):
        """Per-process dispatch names the step that raised; a fused
        share names its first live pid.  Either way nothing after the
        raise ran and every outbox is disarmed again."""
        steps = [(_S[0], None, ()), (_S[1], "boom", ()), (_S[2], "boom", ()),
                 (_S[3], "boom", ())]
        procs = self._procs()
        plane = _StubPlane(procs) if with_plane else None
        results, failure = run_steps(procs, plane, steps, (), armed)
        assert results is None
        pid, exc, formatted = failure
        assert pid == (_S[1] if with_plane else _S[2])
        assert isinstance(exc, RuntimeError)
        assert "boom in ('s', 2)" in formatted
        assert procs[_S[1]].calls == 1 and procs[_S[3]].calls == 0
        assert all(proc._outbox is None for proc in procs.values())


# ----------------------------------------------------------------------
# Superstep protocol in isolation
# ----------------------------------------------------------------------
class _EchoProcess(Process):
    """Sends on both planes every step: one eager message, a
    one-segment sweep to its peer and a three-segment fan-out sweep."""

    def step(self, round_no: int):
        role, k = self.pid
        peer = ("echo", (k + 1) % 3)
        self.send(peer, "eager", [(k, round_no)])
        # Sweeps are delivered at send time, so a step reads the tag the
        # previous round wrote, never the one this superstep writes.
        self.send_segments(f"bulk{round_no % 2}", SegmentBatch(
            np.array([[k, round_no]], dtype=np.int64), np.array([0, 1]),
            role, np.array([k]), role, np.array([peer[1]])))
        self.send_segments("fan", SegmentBatch(
            np.array([[k, j] for j in range(3)], dtype=np.int64),
            np.arange(4), role, np.full(3, k), role, np.arange(3)))
        self.set_resident("state", 64 * (round_no + 1))
        self.account_rpc_pairs([peer], 8)
        got = self.receive(f"bulk{(round_no + 1) % 2}")
        return len(got)


class _Program(WorkerProgram):
    """Builds one ``process_cls`` per owned pid."""

    def __init__(self, process_cls):
        self.process_cls = process_cls

    def build(self, owned_pids, arrays):
        return {pid: self.process_cls(pid) for pid in owned_pids}


def _drive_echo(backend_name, workers):
    cluster = SimulatedCluster()
    pids = [("echo", k) for k in range(3)]
    backend = create_backend(backend_name, workers)
    backend.start(cluster, _Program(_EchoProcess), pids, {})
    try:
        values = []
        for round_no in range(3):
            res = backend.run_superstep(
                [(pid, "step", (round_no,)) for pid in pids])
            cluster.barrier()
            values.append([res[pid].value for pid in pids])
    finally:
        backend.close()
    return values, cluster.stats.summary(), \
        {repr(pid): (s.messages_sent, s.bytes_sent, s.messages_received,
                     s.bytes_received, s.send_batches, s.receive_batches,
                     s.peak_resident_bytes)
         for pid, s in cluster.stats.per_process.items()}


class TestOutboxReplay:
    @pytest.mark.parametrize("name", PARALLEL)
    def test_parallel_replay_matches_inline(self, name, workers):
        """Every outbox entry kind (eager send, segment sweep, resident
        report, RPC pair) replays to the identical cluster state and
        per-process counters."""
        assert _drive_echo(name, workers) == _drive_echo("simulated", None)

    @pytest.mark.parametrize("share_workers", [1, 3, 9])
    def test_share_boundaries_do_not_change_replay(self, share_workers):
        """One share, one step per share, more workers than steps:
        values, summary and per-process counters equal the inline run."""
        assert _drive_echo("threads", share_workers) == \
            _drive_echo("simulated", None)

    @pytest.mark.parametrize("kernel", ["vectorized", "python"])
    def test_dne_share_boundaries(self, graph, kernel):
        """|P| = 5 over 1 / 3 / 9 threads: uneven shares, shares made
        only of skipped steps, fused and per-process dispatch inside a
        share, shares popping and inserting disjoint segments of the
        one shared boundary store — all equal to the simulated run."""
        base = _run_dne(graph, 5, kernel, "simulated", None)
        for share_workers in (1, 3, 9):
            res = _run_dne(graph, 5, kernel, "threads", share_workers)
            assert np.array_equal(res.assignment, base.assignment)
            assert res.iterations == base.iterations
            for key in _PINNED_EXTRA:
                assert res.extra[key] == base.extra[key], (share_workers,
                                                           key)


# ----------------------------------------------------------------------
# Crash propagation
# ----------------------------------------------------------------------
class _BoomProcess(Process):
    def step(self):
        if self.pid == ("boom", 1):
            raise RuntimeError("injected failure in partition 1")
        return "ok"


class TestCrashPropagation:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_step_error_names_the_partition(self, name, workers):
        """A step that raises surfaces promptly, never as a hang: as
        itself inline, as a WorkerStepError naming the partition on the
        parallel backends — and close() still tears the workers down."""
        pids = [("boom", k) for k in range(3)]
        backend = create_backend(name, workers)
        backend.start(SimulatedCluster(), _Program(_BoomProcess), pids, {})
        try:
            with pytest.raises(Exception) as excinfo:
                backend.run_superstep([(pid, "step", ()) for pid in pids])
        finally:
            backend.close()
        assert "injected failure in partition 1" in str(excinfo.value)
        if name == "simulated":
            assert type(excinfo.value) is RuntimeError
        else:
            assert isinstance(excinfo.value, WorkerStepError)
            assert excinfo.value.pid == ("boom", 1)
        assert not getattr(backend, "_procs_mp", None)  # workers joined


class TestWorkerTopology:
    def test_spawns_only_workers_that_own_a_pid(self):
        """|P| = 2 on four workers: slots 0 and 1 own every pid, so two
        workers are spawned — none idles through the supersteps."""
        pids = [(role, k) for role in ("alloc", "expansion")
                for k in range(2)]
        backend = ProcessesBackend(4)
        backend.start(SimulatedCluster(), _Program(_BoomProcess), pids, {})
        try:
            assert len(backend._procs_mp) == 2
            assert backend._owned == [[pids[0], pids[2]], [pids[1], pids[3]]]
            out = backend.run_superstep([(pids[0], "step", ())])
            assert out[pids[0]].value == "ok"
        finally:
            backend.close()


# ----------------------------------------------------------------------
# Shared-memory arena
# ----------------------------------------------------------------------
class TestShmArena:
    def test_round_trip_and_views(self):
        arrays = {
            "a": np.arange(17, dtype=np.int64),
            "b": np.zeros((3, 2), dtype=np.int32),
            "c": np.array([], dtype=np.float64),
        }
        arena = ShmArena.create(arrays)
        try:
            attached = ShmArena.open(arena.spec())
            try:
                for name, arr in arrays.items():
                    view = attached.array(name)
                    assert view.dtype == arr.dtype
                    assert view.shape == arr.shape
                    assert np.array_equal(view, arr)
                # Writes through one attachment are visible in the other.
                attached.array("a")[0] = 99
                assert arena.array("a")[0] == 99
            finally:
                attached.close()
        finally:
            arena.close()
            arena.unlink()

    def test_dne_maps_only_the_edge_array_of_the_graph(self, graph, workers,
                                                       monkeypatch):
        """A DNE run on ``processes`` maps one arena, and of the graph
        only the canonical edge array — exactly 16 bytes per edge, no
        CSR adjacency (49 bytes per edge with it).  Everything else in
        the arena is the program's per-partition state.  The run still
        equals the simulated one."""
        mapped = []
        create = ShmArena.create.__func__

        def recording(cls, arrays):
            mapped.append({name: np.asarray(arr).nbytes
                           for name, arr in arrays.items()})
            return create(cls, arrays)

        monkeypatch.setattr(ShmArena, "create", classmethod(recording))
        res = _run_dne(graph, 4, "vectorized", "processes", workers)
        base = _run_dne(graph, 4, "vectorized", "simulated", None)
        program_state = re.compile(r"eids_by_home|eids_ptr|lv\d+|rd\d+")
        graph_bytes = sum(nbytes for arena in mapped
                          for name, nbytes in arena.items()
                          if not program_state.fullmatch(name))
        assert graph_bytes == 16 * graph.num_edges
        assert len(mapped) == 1
        assert np.array_equal(res.assignment, base.assignment)
        for key in _PINNED_EXTRA:
            assert res.extra[key] == base.extra[key], key


class TestValidation:
    def test_backend_names(self):
        for name in BACKENDS:
            assert validate_backend(name) == name
        with pytest.raises(ValueError, match="backend must be one of"):
            validate_backend("mpi")
        with pytest.raises(ValueError, match="backend must be one of"):
            DistributedNE(4, backend="mpi")

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            ThreadsBackend(0)
        with pytest.raises(ValueError):
            ProcessesBackend(0)
        # Fail-fast at construction, not deep inside the run.
        with pytest.raises(ValueError, match="workers"):
            DistributedNE(4, backend="threads", workers=0)

    @pytest.mark.parametrize("cls", [DistributedNE])
    @pytest.mark.parametrize("kwargs, message", [
        ({"step_timeout": -1.0}, "step_timeout must be positive or None"),
        ({"step_timeout": 0}, "step_timeout must be positive or None"),
        ({"max_retries": -2}, "max_retries must be >= 0"),
    ])
    def test_supervision_ranges_validated_at_construction(self, cls, kwargs,
                                                          message):
        with pytest.raises(ValueError, match=message):
            cls(4, backend="processes", **kwargs)
