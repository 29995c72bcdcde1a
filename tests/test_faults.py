"""Fault-tolerance pins: supervision, checkpoint/resume, fault injection.

The headline invariant of the fault-tolerant execution plane: a run
that suffers injected worker crashes/hangs/step errors *and recovers*
(``max_retries > 0`` on the processes backend) must be bit-identical —
assignments and every message/byte/barrier/memory total — to the
fault-free run; and a checkpointed run killed mid-flight and resumed
must be bit-identical to the uninterrupted one.  Supervision is pinned
for DNE, the one program on the execution plane; checkpoint/resume for
DNE and SNE, including the snapshot-format check that refuses a
snapshot another build wrote.

Also covered: corrupt-snapshot detection and fallback (a truncated or
byte-flipped newest snapshot resumes from the retained older one, all
corrupt fails loudly), the documented terminal-failure state (retained inboxes
pushed back into the parent's delivered map, accounting untouched),
the ``step_timeout`` hung-worker contract, leak-free ``/dev/shm``
teardown on every failure path, and the :class:`FaultPlan` /
:class:`CheckpointStore` units.

Run with ``--workers N`` (root conftest option; default 2, the CI
chaos job runs 4).
"""

from __future__ import annotations

import os
import pickle
import shutil
import time

import numpy as np
import pytest

from repro.cluster.backends import (FaultPlan, ProcessesBackend,
                                    WorkerProgram, WorkerStepError,
                                    create_backend)
from repro.cluster.checkpoint import (CheckpointCorrupt, CheckpointMismatch,
                                      CheckpointStore)
from repro.cluster.runtime import Process, SimulatedCluster
from repro.core import fused as fused_module
from repro.core.distributed_ne import DistributedNE
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_edges
from repro.observability import (MetricsRegistry, disable_metrics,
                                 enable_metrics)
from repro.partitioners.ne import ExpansionState
from repro.partitioners.sne import SNEPartitioner
from tests.conftest import dense_membership_shapes

#: extra keys that must survive recovery bit-for-bit (mirrors the
#: backend-equivalence pins: everything deterministic)
_PINNED_EXTRA = ("cluster", "ops_one_hop", "ops_two_hop", "mem_score",
                 "membership", "model_selection_ops",
                 "model_allocation_ops", "random_seed_requests",
                 "remote_seed_requests", "steps_executed",
                 "steps_skipped")


@pytest.fixture(scope="module")
def graph() -> CSRGraph:
    return CSRGraph(rmat_edges(9, 6, seed=42))


@pytest.fixture
def workers(request) -> int:
    return request.config.getoption("--workers")


@pytest.fixture(scope="module")
def base4(graph):
    return DistributedNE(4, seed=0).partition(graph)


@pytest.fixture(scope="module")
def base64(graph):
    return DistributedNE(64, seed=0).partition(graph)


def _assert_identical(res, base):
    assert np.array_equal(res.assignment, base.assignment)
    assert res.iterations == base.iterations
    for key in _PINNED_EXTRA:
        assert res.extra[key] == base.extra[key], key


def _shm_segments() -> set:
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


_HAS_DEV_SHM = os.path.isdir("/dev/shm")


def _truncate(path: str) -> None:
    """A torn write: the file stops halfway."""
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) // 2)


def _flip_byte(path: str) -> None:
    """Bit rot: one byte at 3/4 of the file inverted, length unchanged."""
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) * 3 // 4)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 0xFF]))


def _snapshot_paths(ckpt: str) -> list:
    """Snapshot files oldest -> newest; nothing else may sit beside them."""
    names = sorted(os.listdir(ckpt))
    assert all(name.startswith("ckpt-") and name.endswith(".pkl")
               for name in names), names
    return [os.path.join(ckpt, name) for name in names]


# ----------------------------------------------------------------------
# Recovery equivalence: injected faults + respawn-and-retry
# ----------------------------------------------------------------------
class TestRecoveryEquivalence:
    def test_kill_recovers_bit_identical(self, graph, workers, tmp_path,
                                         base4):
        """A worker hard-killed mid-run (os._exit, no cleanup) is
        respawned from its snapshot and the superstep re-run — final
        result indistinguishable from the fault-free run.  The state it
        respawns is the padded dense byte store (|P| = 4 in 8 columns),
        as the run's own checkpoint shows."""
        ckpt = str(tmp_path / "ckpt")
        plan = FaultPlan().kill(0, 2).kill(min(1, workers - 1), 7)
        res = DistributedNE(4, seed=0, backend="processes",
                            workers=workers, step_timeout=60,
                            max_retries=2, fault_plan=plan,
                            checkpoint_dir=ckpt).partition(graph)
        _assert_identical(res, base4)
        assert not plan.pending()
        assert dense_membership_shapes(ckpt) == {(8, 4)}

    def test_hang_recovers_bit_identical(self, graph, workers, base4):
        """A hung worker trips step_timeout, is killed and respawned;
        the re-run is bit-identical."""
        plan = FaultPlan().hang(0, 3)  # sleeps far beyond the timeout
        res = DistributedNE(4, seed=0, backend="processes",
                            workers=workers, step_timeout=2,
                            max_retries=1, fault_plan=plan).partition(graph)
        _assert_identical(res, base4)
        assert not plan.pending()

    def test_raise_recovers_bit_identical_python_kernel(self, graph,
                                                        workers):
        """An injected step exception recovers the same way, and the
        machinery is kernel-agnostic (python reference kernel)."""
        base = DistributedNE(4, seed=0, kernel="python").partition(graph)
        plan = FaultPlan().raise_error(0, 4, "injected boom")
        res = DistributedNE(4, seed=0, kernel="python",
                            backend="processes", workers=workers,
                            step_timeout=60, max_retries=1,
                            fault_plan=plan).partition(graph)
        _assert_identical(res, base)
        assert not plan.pending()

    def test_kill_recovers_wide_cluster(self, graph, workers, base64):
        """|P| = 64: recovery across the packed-membership width, with
        many pids per worker riding one snapshot."""
        plan = FaultPlan().kill(workers - 1, 5)
        res = DistributedNE(64, seed=0, backend="processes",
                            workers=workers, step_timeout=60,
                            max_retries=1, fault_plan=plan).partition(graph)
        _assert_identical(res, base64)
        assert not plan.pending()

    def test_kill_between_one_hop_and_two_hop(self, graph, workers, base64):
        """Superstep 8 is iteration 2's two-hop: the worker dies with
        the fused plane's one-hop output parked (pending boundary and
        edge batches) and sync sweeps already shipped to it.  The
        respawn restores both from the post-one-hop snapshot and
        replays two-hop on identical inputs.  The replica-entry count
        one-hop maintained rides that snapshot too: a respawn that
        lost it would under-report ``replica_sets`` from then on and
        move ``mem_score`` / ``peak_resident_bytes``."""
        plan = FaultPlan().kill(0, 8)
        res = DistributedNE(64, seed=0, backend="processes",
                            workers=workers, step_timeout=60,
                            max_retries=1, fault_plan=plan).partition(graph)
        _assert_identical(res, base64)
        assert not plan.pending()

    def test_kill_between_selection_and_one_hop(self, graph, workers,
                                                base64):
        """Superstep 7 is iteration 2's one-hop: the worker dies right
        after a selection superstep popped its expanders' segments of
        the worker's boundary store.  The respawned worker's plane
        builds a fresh store; the post-selection snapshot carries each
        segment's content as plain arrays and ``restore_state`` writes
        them into that store — a respawn that lost or rebound them
        would select different vertices from iteration 3 on."""
        plan = FaultPlan().kill(0, 7)
        res = DistributedNE(64, seed=0, backend="processes",
                            workers=workers, step_timeout=60,
                            max_retries=1, fault_plan=plan).partition(graph)
        _assert_identical(res, base64)
        assert not plan.pending()

    def test_seeded_delays_are_result_neutral(self, graph, workers, base4):
        """Seeded scheduling jitter (delays on every worker/superstep
        pair) must not change any pinned total."""
        plan = FaultPlan().seeded_delays(workers, supersteps=15,
                                         max_seconds=0.02, seed=7)
        res = DistributedNE(4, seed=0, backend="processes",
                            workers=workers, step_timeout=60,
                            max_retries=1, fault_plan=plan).partition(graph)
        _assert_identical(res, base4)


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_truncated_then_resumed_matches_uninterrupted(self, graph,
                                                          tmp_path, base4):
        """Stop a checkpointing run at the max_iterations valve, resume
        it, and get the uninterrupted run bit-for-bit."""
        ckpt = str(tmp_path / "ckpt")
        trunc = DistributedNE(4, seed=0, max_iterations=3,
                              checkpoint_dir=ckpt).partition(graph)
        assert trunc.iterations == 3
        assert dense_membership_shapes(ckpt) == {(8, 4)}   # padded
        res = DistributedNE(4, seed=0, checkpoint_dir=ckpt,
                            resume=True).partition(graph)
        _assert_identical(res, base4)

    def test_crashed_processes_run_resumes_bit_identical(self, graph,
                                                         workers, tmp_path,
                                                         base4):
        """The full story: a checkpointing processes-backend run is
        killed mid-flight by an unrecovered fault (max_retries=0), then
        resumed from disk — result identical to never having crashed,
        its padded dense arrays (|P| = 4 in 8 columns) restored through
        the snapshot."""
        ckpt = str(tmp_path / "ckpt")
        plan = FaultPlan().kill(0, 12)
        with pytest.raises(WorkerStepError):
            DistributedNE(4, seed=0, backend="processes", workers=workers,
                          step_timeout=60, fault_plan=plan,
                          checkpoint_dir=ckpt).partition(graph)
        assert dense_membership_shapes(ckpt) == {(8, 4)}
        res = DistributedNE(4, seed=0, backend="processes", workers=workers,
                            checkpoint_dir=ckpt, resume=True).partition(graph)
        _assert_identical(res, base4)

    def test_crashed_run_resumes_bit_identical_in_machine_groups(
            self, graph, workers, tmp_path, base64, monkeypatch):
        """The crash-then-resume story with sweeps cut into many machine
        groups (a 16-row budget; forked workers inherit it): killed at
        iteration 2's two-hop with no retry, resumed from disk, equal to
        the fault-free one-group run."""
        monkeypatch.setattr(fused_module, "_SWEEP_ROWS", 16)
        ckpt = str(tmp_path / "ckpt")
        plan = FaultPlan().kill(0, 8)
        with pytest.raises(WorkerStepError):
            DistributedNE(64, seed=0, backend="processes", workers=workers,
                          step_timeout=60, fault_plan=plan,
                          checkpoint_dir=ckpt).partition(graph)
        res = DistributedNE(64, seed=0, backend="processes", workers=workers,
                            checkpoint_dir=ckpt, resume=True).partition(graph)
        _assert_identical(res, base64)

    def test_resume_across_backends(self, graph, workers, tmp_path, base4):
        """State blobs are backend-neutral: checkpoint under the
        processes backend, resume on the simulated scheduler."""
        ckpt = str(tmp_path / "ckpt")
        DistributedNE(4, seed=0, max_iterations=4, backend="processes",
                      workers=workers, checkpoint_dir=ckpt).partition(graph)
        res = DistributedNE(4, seed=0, checkpoint_dir=ckpt,
                            resume=True).partition(graph)
        _assert_identical(res, base4)

    def test_resume_across_backends_wide(self, graph, workers, tmp_path,
                                         base64):
        """|P| = 64 across the backend boundary: the processes run
        moves its mail as per-worker segment sub-batches, the resumed
        simulated run as whole sweeps — same state blobs, same result."""
        ckpt = str(tmp_path / "ckpt")
        DistributedNE(64, seed=0, max_iterations=3, backend="processes",
                      workers=workers, checkpoint_dir=ckpt).partition(graph)
        res = DistributedNE(64, seed=0, checkpoint_dir=ckpt,
                            resume=True).partition(graph)
        _assert_identical(res, base64)

    @pytest.mark.parametrize("writer", ["simulated", "threads", "processes"])
    def test_resume_with_live_boundaries_on_every_backend(
            self, graph, workers, tmp_path, base64, writer):
        """|P| = 64, snapshot cut at iteration 3 with boundaries
        non-empty: each segment of the writer's boundary store rides
        the snapshot as plain ``(vertices, drests)`` arrays — no store,
        no segment index — so every backend resumes it bit-identically,
        whichever backend wrote it (one store per run, or one per
        worker)."""
        def backend_args(name):
            return {} if name == "simulated" else {"backend": name,
                                                   "workers": workers}
        ckpt = str(tmp_path / "ckpt")
        DistributedNE(64, seed=0, max_iterations=3, checkpoint_dir=ckpt,
                      **backend_args(writer)).partition(graph)
        held = [state["boundary"]
                for pid, state in CheckpointStore(ckpt).load_latest()[
                    "procs"].items() if pid[0] == "expansion"]
        assert all(isinstance(part, np.ndarray) for b in held for part in b)
        assert sum(len(vertices) for vertices, _ in held) > 64
        for reader in ("simulated", "threads", "processes"):
            copy = str(tmp_path / reader)
            shutil.copytree(ckpt, copy)
            res = DistributedNE(64, seed=0, checkpoint_dir=copy, resume=True,
                                **backend_args(reader)).partition(graph)
            _assert_identical(res, base64)

    def test_resume_with_history(self, graph, tmp_path):
        """The per-iteration trace survives a checkpoint boundary."""
        ckpt = str(tmp_path / "ckpt")
        base = DistributedNE(4, seed=0, collect_history=True).partition(graph)
        DistributedNE(4, seed=0, max_iterations=3, collect_history=True,
                      checkpoint_dir=ckpt).partition(graph)
        res = DistributedNE(4, seed=0, collect_history=True,
                            checkpoint_dir=ckpt, resume=True).partition(graph)
        assert res.extra["history"] == base.extra["history"]

    def test_resume_meta_mismatch_fails_loudly(self, graph, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        DistributedNE(4, seed=0, max_iterations=2,
                      checkpoint_dir=ckpt).partition(graph)
        with pytest.raises(CheckpointMismatch, match="seed"):
            DistributedNE(4, seed=1, checkpoint_dir=ckpt,
                          resume=True).partition(graph)

    def test_unknown_loop_field_fails_loudly(self, graph, tmp_path):
        """A snapshot whose loop variables are not this build's — here
        one a former build saved and this one dropped — is refused as a
        mismatch naming the field, not a bare ``TypeError``."""
        ckpt = str(tmp_path / "ckpt")
        DistributedNE(4, seed=0, max_iterations=2,
                      checkpoint_dir=ckpt).partition(graph)
        store = CheckpointStore(ckpt)
        snapshot = store.load_latest()
        snapshot["loop"]["allocation_seconds"] = 0.0
        store.save(store.steps()[-1] + 1, snapshot)
        with pytest.raises(CheckpointMismatch,
                           match="loop.allocation_seconds"):
            DistributedNE(4, seed=0, checkpoint_dir=ckpt,
                          resume=True).partition(graph)

    def test_int64_edge_batches_of_an_earlier_build_resume(self, graph,
                                                           tmp_path, base4):
        """Collected edge batches are int32 since mail is; a snapshot
        from a build that kept them int64 (same layout, wider arrays)
        resumes bit-identical rather than needing a format bump."""
        ckpt = str(tmp_path / "ckpt")
        DistributedNE(4, seed=0, max_iterations=3,
                      checkpoint_dir=ckpt).partition(graph)
        store = CheckpointStore(ckpt)
        snapshot = store.load_latest()
        widened = 0
        for pid, state in snapshot["procs"].items():
            if pid[0] == "expansion":
                assert all(b.dtype == np.int32 for b in state["edge_ids"])
                state["edge_ids"] = [b.astype(np.int64)
                                     for b in state["edge_ids"]]
                widened += len(state["edge_ids"])
        assert widened
        store.save(store.steps()[-1] + 1, snapshot)
        res = DistributedNE(4, seed=0, checkpoint_dir=ckpt,
                            resume=True).partition(graph)
        _assert_identical(res, base4)

    @pytest.mark.parametrize("cls", [DistributedNE, SNEPartitioner])
    def test_older_snapshot_format_fails_loudly(self, graph, tmp_path, cls):
        """A snapshot stamped with an older format number is refused by
        the ``meta`` check before any state is read."""
        ckpt = str(tmp_path / "ckpt")
        cls(4, seed=0, checkpoint_dir=ckpt).partition(graph)
        store = CheckpointStore(ckpt)
        snapshot = store.load_latest()
        snapshot["meta"]["format"] = 0
        store.save(store.steps()[-1] + 1, snapshot)
        with pytest.raises(CheckpointMismatch, match="format"):
            cls(4, seed=0, checkpoint_dir=ckpt, resume=True).partition(graph)

    def test_resume_empty_store_is_fresh_start(self, graph, tmp_path, base4):
        res = DistributedNE(4, seed=0, checkpoint_dir=str(tmp_path / "empty"),
                            resume=True).partition(graph)
        _assert_identical(res, base4)

    @pytest.mark.parametrize("damage", [_truncate, _flip_byte])
    def test_corrupt_newest_falls_back_to_older(self, graph, tmp_path,
                                                base4, damage, caplog):
        """A torn or bit-rotted newest snapshot is detected before it
        is unpickled, skipped with one warning, and the retained older
        snapshot serves the resume — bit-identically."""
        ckpt = str(tmp_path / "ckpt")
        DistributedNE(4, seed=0, max_iterations=6,
                      checkpoint_dir=ckpt).partition(graph)
        older, newest = _snapshot_paths(ckpt)
        damage(newest)
        with caplog.at_level("WARNING", logger="repro.cluster.checkpoint"):
            res = DistributedNE(4, seed=0, checkpoint_dir=ckpt,
                                resume=True).partition(graph)
        _assert_identical(res, base4)
        assert [r.getMessage() for r in caplog.records] == \
            [f"skipping corrupt checkpoint {newest}"]

    def test_every_snapshot_corrupt_fails_loudly(self, graph, tmp_path):
        """Snapshots exist but none verifies: never a silent fresh
        start — the error names every rejected file."""
        ckpt = str(tmp_path / "ckpt")
        DistributedNE(4, seed=0, max_iterations=6,
                      checkpoint_dir=ckpt).partition(graph)
        paths = _snapshot_paths(ckpt)
        _truncate(paths[0])
        _flip_byte(paths[1])
        with pytest.raises(CheckpointCorrupt) as excinfo:
            DistributedNE(4, seed=0, checkpoint_dir=ckpt,
                          resume=True).partition(graph)
        assert sorted(excinfo.value.paths) == paths
        assert all(path in str(excinfo.value) for path in paths)

    def test_sne_corrupt_newest_falls_back_to_older(self, graph, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        base = SNEPartitioner(6, seed=3).partition(graph)
        SNEPartitioner(6, seed=3, checkpoint_dir=ckpt).partition(graph)
        _truncate(_snapshot_paths(ckpt)[-1])
        res = SNEPartitioner(6, seed=3, checkpoint_dir=ckpt,
                             resume=True).partition(graph)
        assert np.array_equal(res.assignment, base.assignment)
        assert res.extra["state_bytes"] == base.extra["state_bytes"]

    def test_sne_resume_bit_identical(self, graph, tmp_path):
        """SNE snapshots at partition boundaries; resuming replays the
        remaining stream identically."""
        ckpt = str(tmp_path / "ckpt")
        base = SNEPartitioner(6, seed=3).partition(graph)
        first = SNEPartitioner(6, seed=3, checkpoint_dir=ckpt).partition(graph)
        assert np.array_equal(first.assignment, base.assignment)
        res = SNEPartitioner(6, seed=3, checkpoint_dir=ckpt,
                             resume=True).partition(graph)
        assert np.array_equal(res.assignment, base.assignment)
        assert res.extra["state_bytes"] == base.extra["state_bytes"]

    @pytest.mark.parametrize("kernel", ["vectorized", "python"])
    @pytest.mark.parametrize("partitions", [4, 64])
    def test_sne_crash_mid_stream_resumes_bit_identical(
            self, graph, tmp_path, monkeypatch, kernel, partitions):
        """SNE's recovery is its checkpoint plane: a run that dies
        halfway through the stream (here, at the start of partition
        ``partitions // 2``) resumes from the newest boundary snapshot
        and ends bit-identical to the uninterrupted run."""
        ckpt = str(tmp_path / "ckpt")
        base = SNEPartitioner(partitions, seed=3,
                              kernel=kernel).partition(graph)
        crash_at = partitions // 2
        begin = ExpansionState.begin_partition
        calls = []

        def dying(state):
            calls.append(None)
            if len(calls) > crash_at:
                raise RuntimeError("killed mid-stream")
            begin(state)

        with monkeypatch.context() as patch:
            patch.setattr(ExpansionState, "begin_partition", dying)
            with pytest.raises(RuntimeError, match="killed mid-stream"):
                SNEPartitioner(partitions, seed=3, kernel=kernel,
                               checkpoint_dir=ckpt).partition(graph)
        assert CheckpointStore(ckpt).steps()[-1] == crash_at
        res = SNEPartitioner(partitions, seed=3, kernel=kernel,
                             checkpoint_dir=ckpt,
                             resume=True).partition(graph)
        assert np.array_equal(res.assignment, base.assignment)
        assert res.extra["state_bytes"] == base.extra["state_bytes"]

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            DistributedNE(4, resume=True)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            SNEPartitioner(4, resume=True)
        with pytest.raises(ValueError, match="checkpoint_every"):
            DistributedNE(4, checkpoint_every=0)


# ----------------------------------------------------------------------
# Supervision protocol, low level
# ----------------------------------------------------------------------
class _PingProcess(Process):
    """Minimal mail-exchanging process for protocol tests."""

    def send_step(self):
        role, k = self.pid
        self.send(role, "ping", [(1 - k, [k, 10 + k])])
        return k

    def recv_step(self):
        return [(src, rows.tolist()) for src, rows in self.receive("ping")]


class _SleepProcess(Process):
    def slow_step(self):
        time.sleep(5)
        return "done"


class _PingProgram(WorkerProgram):
    def build(self, owned_pids, arrays):
        return {pid: _PingProcess(pid) for pid in owned_pids}


class _SleepProgram(WorkerProgram):
    def build(self, owned_pids, arrays):
        return {pid: _SleepProcess(pid) for pid in owned_pids}


def _start_pair(backend):
    cluster = SimulatedCluster()
    pids = [("ping", 0), ("ping", 1)]
    backend.start(cluster, _PingProgram(), pids, {})
    return cluster, pids


class TestSupervisionProtocol:
    def test_step_timeout_surfaces_as_worker_step_error(self):
        """Satellite: a hung worker must not hang the parent — the
        reply wait is bounded and the failure names the worker."""
        pid = ("ping", 0)
        backend = ProcessesBackend(1, step_timeout=0.5)
        backend.start(SimulatedCluster(), _SleepProgram(), [pid], {})
        try:
            with pytest.raises(WorkerStepError,
                               match=r"timed out after 0\.5s"):
                backend.run_superstep([(pid, "slow_step", ())])
        finally:
            backend.close()
        assert not backend._procs_mp

    def test_retry_preserves_mail_and_counts_respawns(self):
        """A killed worker's retained inbox is re-shipped on retry: the
        re-run step sees the same mail and the result is complete."""
        plan = FaultPlan().kill(0, 2)
        backend = ProcessesBackend(2, step_timeout=30, max_retries=1,
                                   fault_plan=plan)
        cluster, pids = _start_pair(backend)
        try:
            backend.run_superstep([(pid, "send_step", ()) for pid in pids])
            cluster.barrier()
            out = backend.run_superstep(
                [(pid, "recv_step", ()) for pid in pids])
            assert {pid: out[pid].value for pid in pids} == \
                {pids[0]: [(pids[1], [1, 11])], pids[1]: [(pids[0], [0, 10])]}
            assert backend.respawns == 1
            assert not plan.pending()
        finally:
            backend.close()

    def test_terminal_failure_restores_delivered_mail(self):
        """Documented atomic-superstep state: when retries are
        exhausted (here: none), every retained inbox returns to the
        parent's mailboxes and accounting is untouched."""
        plan = FaultPlan().kill(0, 2)
        backend = ProcessesBackend(2, step_timeout=30, fault_plan=plan)
        cluster, pids = _start_pair(backend)
        try:
            backend.run_superstep([(pid, "send_step", ()) for pid in pids])
            cluster.barrier()
            stats_before = cluster.stats.summary()
            with pytest.raises(WorkerStepError, match="worker process died"):
                backend.run_superstep(
                    [(pid, "recv_step", ()) for pid in pids])
            assert cluster.queued_rows("ping", "ping", [0, 1]) == [2, 2]
            assert {src: rows.tolist() for src, rows in
                    cluster.process(pids[0]).receive("ping")} \
                == {pids[1]: [1, 11]}
            assert cluster.stats.summary() == stats_before
        finally:
            backend.close()

    def test_supervision_kwargs_require_processes_backend(self):
        with pytest.raises(ValueError, match="processes"):
            DistributedNE(4, backend="threads", step_timeout=1.0)
        with pytest.raises(ValueError, match="processes"):
            DistributedNE(4, max_retries=1)
        with pytest.raises(ValueError, match="processes"):
            create_backend("threads", 2, fault_plan=FaultPlan())
        with pytest.raises(ValueError):
            ProcessesBackend(2, step_timeout=0)
        with pytest.raises(ValueError):
            ProcessesBackend(2, max_retries=-1)


# ----------------------------------------------------------------------
# /dev/shm leak pins
# ----------------------------------------------------------------------
@pytest.mark.skipif(not _HAS_DEV_SHM, reason="no /dev/shm on this platform")
class TestShmLeaks:
    def test_no_leak_after_normal_close(self, graph, workers):
        before = _shm_segments()
        DistributedNE(4, seed=0, backend="processes",
                      workers=workers).partition(graph)
        assert _shm_segments() - before == set()

    def test_no_leak_after_injected_kill_without_retry(self, graph,
                                                       workers):
        before = _shm_segments()
        plan = FaultPlan().kill(0, 2)
        with pytest.raises(WorkerStepError):
            DistributedNE(4, seed=0, backend="processes", workers=workers,
                          step_timeout=60,
                          fault_plan=plan).partition(graph)
        assert _shm_segments() - before == set()

    def test_no_leak_after_step_error(self, graph, workers):
        before = _shm_segments()
        plan = FaultPlan().raise_error(0, 3, "injected boom")
        with pytest.raises(WorkerStepError, match="injected boom"):
            DistributedNE(4, seed=0, backend="processes", workers=workers,
                          step_timeout=60,
                          fault_plan=plan).partition(graph)
        assert _shm_segments() - before == set()

    def test_no_leak_after_recovered_run(self, graph, workers):
        before = _shm_segments()
        plan = FaultPlan().kill(0, 2)
        DistributedNE(4, seed=0, backend="processes", workers=workers,
                      step_timeout=60, max_retries=1,
                      fault_plan=plan).partition(graph)
        assert _shm_segments() - before == set()


# ----------------------------------------------------------------------
# FaultPlan unit
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_events_fire_once(self):
        plan = FaultPlan().kill(1, 4)
        assert plan.take(1, 4) == ("kill", None)
        assert plan.take(1, 4) is None
        assert plan.fired == [(1, 4, "kill", None)]
        assert len(plan) == 0

    def test_duplicate_events_rejected(self):
        plan = FaultPlan().kill(1, 4)
        with pytest.raises(ValueError, match="duplicate"):
            plan.hang(1, 4)

    def test_pending_lists_unfired(self):
        plan = FaultPlan().kill(0, 1).delay(1, 2, 0.5)
        assert len(plan) == 2
        plan.take(0, 1)
        assert plan.pending() == [(1, 2, "delay", 0.5)]

    def test_seeded_delays_deterministic(self):
        a = FaultPlan().seeded_delays(2, 3, 0.5, seed=9)
        b = FaultPlan().seeded_delays(2, 3, 0.5, seed=9)
        assert a.pending() == b.pending()
        assert len(a) == 6


# ----------------------------------------------------------------------
# CheckpointStore unit
# ----------------------------------------------------------------------
class TestCheckpointStore:
    def test_save_load_prune(self, tmp_path):
        store = CheckpointStore(str(tmp_path), keep=2)
        for step in (1, 2, 3):
            store.save(step, {"step": step})
        assert store.steps() == [2, 3]
        assert store.load(3) == {"step": 3}
        assert store.load_latest() == {"step": 3}
        # No stray temp files from the atomic write.
        assert all(not name.endswith(".tmp")
                   for name in os.listdir(str(tmp_path)))

    def test_keep_one_corrupt_has_no_fallback(self, tmp_path):
        store = CheckpointStore(str(tmp_path), keep=1)
        store.save(1, {"step": 1})
        path = store.save(2, {"step": 2})
        assert store.steps() == [2]
        _flip_byte(path)
        with pytest.raises(CheckpointCorrupt) as excinfo:
            store.load_latest()
        assert excinfo.value.paths == [path]
        with pytest.raises(CheckpointCorrupt):
            store.load(2)

    def test_file_without_trailer_is_corrupt(self, tmp_path):
        """A bare pickle (the pre-trailer layout) is refused, and the
        rejection is counted."""
        store = CheckpointStore(str(tmp_path))
        store.save(1, {"step": 1})
        with open(store._path(2), "wb") as fh:
            pickle.dump({"step": 2}, fh)
        registry = enable_metrics(MetricsRegistry())
        try:
            assert store.load_latest() == {"step": 1}
        finally:
            disable_metrics()
        assert registry.counter_total("repro_checkpoint_corrupt_total") == 1

    def test_empty_store(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        assert store.steps() == []
        assert store.load_latest() is None
        with pytest.raises(ValueError):
            CheckpointStore(str(tmp_path), keep=0)

    def test_check_meta(self):
        snap = {"meta": {"p": 4, "seed": 0}}
        CheckpointStore.check_meta(snap, {"p": 4, "seed": 0})
        with pytest.raises(CheckpointMismatch) as excinfo:
            CheckpointStore.check_meta(snap, {"p": 8, "seed": 0})
        assert excinfo.value.mismatches == {"p": (4, 8)}
