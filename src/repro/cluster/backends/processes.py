"""Multiprocessing execution backend with worker supervision.

Real OS processes run the supersteps.  The program's arrays — for
DNE the canonical edge array and the flat per-partition state — are
mapped into every worker as zero-copy ``multiprocessing.shared_memory``
views (:mod:`repro.cluster.backends.shm`); the only data crossing the parent
boundary per superstep is message payloads (worker outboxes in,
delivered mail out) plus small counter gathers.  Mail travels in the
layout it was delivered in: per-``(dst, tag)`` lists for the eager
``send`` plane, and for segment sweeps
(:class:`~repro.cluster.runtime.SegmentBatch`) one vectorised
sub-batch per worker, selected by destination mask — never one object
per ``(src, dst)`` pair.

Topology: process ``(role, slot)`` belongs to worker ``slot % workers``
for the whole run, and only workers that own a process are spawned.
:meth:`ProcessesBackend.start` copies the caller's arrays into one
arena once; process objects are then *built inside* the
workers (from a picklable
:class:`~repro.cluster.backends.base.WorkerProgram`) and never travel.
Per superstep the parent

1. routes each step to the worker owning its pid and ships, to every
   worker, the mail delivered (since the last superstep) for the pids
   it owns;
2. each worker runs its steps as one armed
   :func:`~repro.cluster.backends.base.run_steps` share, against a
   local mailbox-only cluster;
3. the parent merges the returned outboxes in global step-list order
   via :func:`~repro.cluster.backends.base.apply_outbox`, so pricing,
   totals, and delivery order are bit-identical to the simulated
   scheduler.

Failure contract
----------------
A step exception travels back as a ``("step_error", pid, traceback)``
reply — every request gets exactly one reply, so a crash surfaces as
:class:`~repro.cluster.backends.base.WorkerStepError` naming the
partition, never as a hang; a dead worker surfaces as ``EOFError`` on
its pipe, repackaged the same way.  ``step_timeout`` bounds every
reply wait (``Connection.poll``), so a *hung* worker also surfaces as
a ``WorkerStepError`` instead of blocking the parent forever.

Supervision (``max_retries > 0``) upgrades those failures from fatal
to recoverable.  Each successful step reply piggybacks a worker-state
snapshot (per-process :meth:`~repro.cluster.runtime.Process.checkpoint_state`
blobs, leftover worker-mailbox entries, fused-plane transients), and
the parent retains each superstep's shipped inboxes until the step is
acknowledged.  When a worker crashes, hangs, or raises, the parent
kills it, respawns a fresh worker over the same shared-memory arena,
restores the last snapshot *in place* (so shm-backed arrays keep their
aliases), re-ships the retained mail, and re-runs the exact same step
list.  Steps are pure functions of their own state plus delivered
mail, so the re-run is bit-identical to the run that failed — totals,
assignments, and delivery order match a fault-free run exactly (pinned
by ``tests/test_faults.py``).

If retries are exhausted the superstep fails *atomically*: no outbox
has been applied, the retained inboxes are pushed back into the parent
cluster's delivered map, and accounting totals are untouched.  Worker-
local state is indeterminate at that point, so the only supported
operation on the backend afterwards is :meth:`ProcessesBackend.close`.

Deterministic fault injection for tests rides the same dispatch path:
a :class:`~repro.cluster.backends.faults.FaultPlan` is consumed
parent-side (fire-once) and shipped with the step message, so an
injected kill/hang/raise exercises exactly the recovery machinery a
real fault would.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import traceback

import numpy as np

from repro.cluster.backends.base import (ExecutionBackend, WorkerProgram,
                                         WorkerStepError, merge_shares,
                                         run_steps, validate_execution_args)
from repro.cluster.backends.shm import ShmArena
from repro.cluster.runtime import Process, SimulatedCluster
from repro.observability.metrics import get_registry

__all__ = ["ProcessesBackend"]

#: how long close() waits for the goodbye handshake before escalating
_CLOSE_TIMEOUT = 10.0
#: how long a respawned worker gets to rebuild and re-attach
_READY_TIMEOUT = 120.0


def _mp_context():
    """Prefer fork (fast, inherits the parent image); fall back to spawn."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _snapshot_worker(procs, wcluster, plane):
    """Everything the parent needs to rebuild this worker elsewhere.

    ``(per-pid state blobs, undrained worker mail in both layouts,
    fused-plane transients)`` — exactly the state a respawned worker
    restores before re-running a failed superstep.
    """
    states = {pid: proc.checkpoint_state() for pid, proc in procs.items()}
    mail = ([(key, list(msgs))
             for key, msgs in wcluster._delivered.items() if msgs],
            wcluster.segment_mail())
    plane_state = None
    if plane is not None and hasattr(plane, "checkpoint_state"):
        plane_state = plane.checkpoint_state()
    return (states, mail, plane_state)


def _restore_worker(procs, wcluster, plane, snapshot) -> None:
    """Inverse of :func:`_snapshot_worker`, writing arrays in place."""
    states, mail, plane_state = snapshot
    for pid, state in states.items():
        procs[pid].restore_state(state)
    wcluster._delivered.clear()
    wcluster.pop_segment_mail()
    _file_mail(wcluster, mail)
    if plane is not None and plane_state is not None:
        plane.restore_state(plane_state)


def _file_mail(cluster, mail) -> None:
    """File already-priced ``(per-pid lists, segment sweeps)`` mail."""
    listed, sweeps = mail
    for key, msgs in listed:
        cluster._delivered[key].extend(msgs)
    for tag, batch in sweeps:
        cluster.put_segments(tag, batch)


def _inject_fault(fault, steps, owned_pids, conn):
    """Act on an injected fault directive; ``True`` = skip this step.

    ``kill`` dies without a reply (the parent sees a dead pipe, same
    as a segfault); ``hang`` and ``delay`` sleep — a hang long enough
    to trip ``step_timeout`` is indistinguishable from a livelocked
    worker, a short delay just reorders wall-clock without touching
    results; ``raise`` reports a step error without running anything.
    """
    kind, arg = fault
    if kind == "kill":
        os._exit(23)
    if kind in ("hang", "delay"):
        time.sleep(arg)
        return False
    if kind == "raise":
        pid = steps[0][0] if steps else owned_pids[0]
        conn.send(("step_error", pid, f"injected fault: {arg}"))
        return True
    raise ValueError(f"unknown fault kind {kind!r}")  # pragma: no cover


def _worker_main(conn, program: WorkerProgram, owned_pids,
                 arena_spec: dict, supervise: bool) -> None:
    arena = ShmArena.open(arena_spec)
    try:
        arrays = {name: arena.array(name) for name in arena.keys()}
        procs = program.build(owned_pids, arrays)
        plane = program.build_plane(procs)
        # Initial resident reports (made in constructors, before any
        # cluster attach) travel to the parent accountant with the
        # ready handshake.
        pending = {pid: dict(proc._pending_resident)
                   for pid, proc in procs.items()}
        # Worker-local cluster: mailboxes only.  All accounting flows
        # through outboxes; steps never send eagerly here because the
        # outbox is always armed while they run.
        wcluster = SimulatedCluster()
        for pid in owned_pids:
            wcluster.add_process(procs[pid])
        # Under supervision the ready handshake carries a baseline
        # snapshot so even a superstep-1 failure has a restore point.
        conn.send(("ready", pending,
                   _snapshot_worker(procs, wcluster, plane)
                   if supervise else None))
        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "step":
                _, steps, inbox, gather, iteration, fault, snap = msg
                if fault is not None and _inject_fault(
                        fault, steps, owned_pids, conn):
                    continue
                _file_mail(wcluster, inbox)
                results, failure = run_steps(procs, plane, steps, gather,
                                             armed=True, iteration=iteration)
                if failure is not None:
                    conn.send(("step_error", failure[0], failure[2]))
                else:
                    conn.send(("step_ok", results,
                               _snapshot_worker(procs, wcluster, plane)
                               if snap else None))
            elif kind == "gather":
                _, requests = msg
                conn.send(("ok", {
                    pid: {a: getattr(procs[pid], a) for a in attrs}
                    for pid, attrs in requests}))
            elif kind == "call":
                _, requests = msg
                try:
                    conn.send(("ok", {pid: getattr(procs[pid], method)()
                                      for pid, method in requests}))
                except Exception:  # noqa: BLE001 - shipped to parent
                    conn.send(("call_error", traceback.format_exc()))
            elif kind == "apply":
                _, requests = msg
                try:
                    conn.send(("ok", {
                        pid: getattr(procs[pid], method)(*args)
                        for pid, method, args in requests}))
                except Exception:  # noqa: BLE001 - shipped to parent
                    conn.send(("call_error", traceback.format_exc()))
            elif kind == "snapshot":
                conn.send(("ok", _snapshot_worker(procs, wcluster, plane)))
            elif kind == "restore":
                _restore_worker(procs, wcluster, plane, msg[1])
                conn.send(("ok", None))
            elif kind == "close":
                conn.send(("ok", None))
                return
    finally:
        arena.close()
        conn.close()


class ProcessesBackend(ExecutionBackend):
    """Superstep scheduler over persistent, supervised worker processes.

    ``step_timeout`` (seconds) bounds every worker reply; ``None``
    waits forever (the pre-supervision behaviour).  ``max_retries``
    enables respawn-and-retry recovery: a failed worker is rebuilt
    from its last snapshot up to ``max_retries`` times per request
    before the failure becomes terminal.  ``fault_plan`` is a
    :class:`~repro.cluster.backends.faults.FaultPlan` for
    deterministic fault injection in tests.
    """

    name = "processes"

    def __init__(self, workers: int = 4, step_timeout: float | None = None,
                 max_retries: int = 0, fault_plan=None):
        validate_execution_args(self.name, workers, step_timeout, max_retries,
                                fault_plan)
        self.workers = workers
        self.step_timeout = step_timeout
        self.max_retries = max_retries
        self.fault_plan = fault_plan
        self._ctx = _mp_context()
        self._procs_mp: list = []
        self._conns: list = []
        self._arena: ShmArena | None = None
        self._worker_of: dict = {}
        self._started = False
        self._superstep = 0
        self._snapshots: list = []
        #: workers respawned after a crash/hang/raise (observability)
        self.respawns = 0

    # ------------------------------------------------------------------
    def start(self, cluster, program: WorkerProgram, pids,
              arrays: dict) -> None:
        """Map ``arrays`` into shared memory, spawn the workers that
        own a pid and build their process shares.

        Every pid is a ``(role, slot)`` pair owned by worker
        ``slot % workers``.  The arena belongs to the backend from the
        moment it exists: :meth:`close` unlinks it, and so does a
        failed start.  The parent cluster registers a plain
        :class:`~repro.cluster.runtime.Process` stub per pid, in
        ``pids`` order, so replay can resolve destinations and account
        per process.
        """
        self.cluster = cluster
        self.steps_executed = self.steps_skipped = 0
        self._superstep = 0
        self.respawns = 0
        self._program = program
        self._worker_of = {pid: pid[1] % self.workers for pid in pids}
        nworkers = max(self._worker_of.values(), default=-1) + 1
        self._owned = [[] for _ in range(nworkers)]
        #: role -> worker index per machine slot (-1 = unowned), for
        #: routing segment sweeps, which address ``(role, slot)``
        by_role: dict = {}
        for (role, slot), w in self._worker_of.items():
            self._owned[w].append((role, slot))
            by_role.setdefault(role, {})[slot] = w
        self._slot_worker = {}
        for role, by_slot in by_role.items():
            table = np.full(max(by_slot) + 1, -1, dtype=np.int64)
            table[list(by_slot)] = list(by_slot.values())
            self._slot_worker[role] = table
        try:
            self._arena = ShmArena.create(arrays)
            for pid in pids:
                cluster.add_process(Process(pid))
            self._snapshots = [None] * nworkers
            supervise = self.max_retries > 0
            for w in range(nworkers):
                proc, conn = self._spawn_worker(w, supervise)
                self._procs_mp.append(proc)
                self._conns.append(conn)
            self._started = True
            # Ready handshake: forward constructor-time resident reports
            # to the parent accountant (per-pid, so application order
            # across pids cannot change any per-process peak).
            for w in range(nworkers):
                reply = self._recv(w)
                for pid, resident in reply[1].items():
                    stats = cluster.stats.stats_for(pid)
                    for name, nbytes in resident.items():
                        stats.set_resident(name, nbytes)
                self._snapshots[w] = reply[2]
        except BaseException:
            self.close()
            raise

    def _spawn_worker(self, w: int, supervise: bool):
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._program, self._owned[w],
                  self._arena.spec(), supervise),
            daemon=True, name=f"repro-backend-{w}")
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def _send_to(self, w: int, msg) -> None:
        # A worker killed between supersteps (OOM, segfault) surfaces
        # on the *send* side as a broken pipe; wrap it the same way as
        # the recv side so the error contract (WorkerStepError naming
        # the worker, never an anonymous pipe traceback) holds.
        try:
            self._conns[w].send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerStepError(
                f"worker-{w}", f"worker process died: {exc!r}") from exc

    def _recv(self, w: int, timeout: float | None = None):
        conn = self._conns[w]
        if timeout is not None and not conn.poll(timeout):
            get_registry().counter_inc("repro_worker_timeouts_total")
            raise WorkerStepError(
                f"worker-{w}", f"step timed out after {timeout:g}s")
        try:
            reply = conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerStepError(
                f"worker-{w}", f"worker process died: {exc!r}") from exc
        return reply

    # ------------------------------------------------------------------
    def _kill_worker(self, w: int) -> None:
        """Force worker ``w`` down: terminate, escalate to SIGKILL."""
        proc = self._procs_mp[w]
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)
        if proc.is_alive():  # pragma: no cover - SIGTERM ignored
            proc.kill()
            proc.join(timeout=5)
        try:
            self._conns[w].close()
        except OSError:  # pragma: no cover - already closed
            pass

    def _respawn(self, w: int) -> None:
        """Replace a failed worker and restore its last snapshot.

        The replacement rebuilds from the WorkerProgram over the same
        arena (which may reset shm-backed arrays to constructor-time
        values), then the snapshot restore rewrites every process's
        mutable state *in place* — safe because the parent is
        sequential across supersteps, so no sibling reads shared state
        while this worker is mid-restore.
        """
        snapshot = self._snapshots[w]
        assert snapshot is not None, "respawn without a snapshot"
        self._kill_worker(w)
        proc, conn = self._spawn_worker(w, supervise=True)
        self._procs_mp[w] = proc
        self._conns[w] = conn
        # Fresh ready handshake: the rebuilt constructors re-report
        # residents and a new baseline snapshot; both are discarded —
        # the accountant already holds the run's totals and the real
        # restore point is the retained snapshot.
        self._recv(w, timeout=_READY_TIMEOUT)
        self._send_to(w, ("restore", snapshot))
        reply = self._recv(w, timeout=_READY_TIMEOUT)
        if reply[0] != "ok":  # pragma: no cover - restore never raises
            raise WorkerStepError(f"worker-{w}",
                                  f"restore failed: {reply!r}")
        self.respawns += 1
        get_registry().counter_inc("repro_worker_respawns_total")

    # ------------------------------------------------------------------
    def _execute_superstep(self, steps, gather=(), iteration=None) -> dict:
        assert self._started, "backend not started"
        self._superstep += 1
        supervise = self.max_retries > 0
        nworkers = len(self._conns)
        per_worker = [[] for _ in range(nworkers)]
        for step in steps:
            per_worker[self._worker_of[step[0]]].append(step)
        # Ship every owned pid's freshly-delivered mail along with the
        # step list (exactly the payload buffers the last barrier
        # priced).  The parent *retains* each worker's inbox until the
        # step is acknowledged: a retried step gets the identical mail
        # re-shipped, and a terminal failure pushes it back into the
        # cluster so the delivered map is well-defined afterwards.
        inboxes = [([], []) for _ in range(nworkers)]
        delivered = self.cluster._delivered
        for key in list(delivered.keys()):
            w = self._worker_of.get(key[0])
            if w is not None:
                inboxes[w][0].append((key, delivered.pop(key)))
        for tag, batch in self.cluster.pop_segment_mail():
            # One destination-masked sub-batch per addressed worker;
            # like listed mail, segments nobody owns stay put.
            owner = self._slot_worker[batch.dst_role][batch.dst_slots]
            for w in np.unique(owner).tolist():
                part = batch.select(np.flatnonzero(owner == w))
                if w < 0:
                    self.cluster.put_segments(tag, part)
                else:
                    inboxes[w][1].append((tag, part))
        gather = tuple(gather)
        plan = self.fault_plan
        failures: dict = {}
        for w in range(nworkers):
            fault = plan.take(w, self._superstep) if plan is not None else None
            try:
                self._send_to(w, ("step", per_worker[w], inboxes[w], gather,
                                  iteration, fault, supervise))
            except WorkerStepError as exc:
                failures[w] = exc
        # Collect ALL replies before any recovery: siblings must not be
        # left with queued replies while one worker is being respawned.
        replies: dict = {}
        for w in range(nworkers):
            if w in failures:
                continue
            try:
                reply = self._recv(w, timeout=self.step_timeout)
            except WorkerStepError as exc:
                failures[w] = exc
                continue
            if reply[0] == "step_error":
                failures[w] = WorkerStepError(reply[1], reply[2])
            else:
                replies[w] = reply
        for w in sorted(failures):
            error = failures.pop(w)
            for _ in range(self.max_retries):
                get_registry().counter_inc("repro_worker_retries_total")
                try:
                    self._respawn(w)
                    self._send_to(w, ("step", per_worker[w], inboxes[w],
                                      gather, iteration, None, True))
                    reply = self._recv(w, timeout=self.step_timeout)
                except WorkerStepError as exc:
                    error = exc
                    continue
                if reply[0] == "step_error":
                    error = WorkerStepError(reply[1], reply[2])
                    continue
                replies[w] = reply
                error = None
                break
            if error is not None:
                # Terminal failure: the superstep fails atomically.  No
                # outbox has been applied (accounting totals untouched)
                # and every retained inbox returns to the delivered map.
                # Worker-local state is indeterminate — only close() is
                # supported on this backend afterwards.
                for inbox in inboxes:
                    _file_mail(self.cluster, inbox)
                raise error
        for w, reply in replies.items():
            if supervise and reply[2] is not None:
                self._snapshots[w] = reply[2]
        return self._finish(
            steps, *merge_shares(reply[1] for reply in replies.values()))

    # ------------------------------------------------------------------
    def _exchange(self, w: int, msg):
        """One request/reply with a worker, with supervised recovery.

        Used by the read-only out-of-phase paths (gather / call /
        apply): a crashed or hung worker is respawned from its last
        snapshot and the request re-sent.  These requests don't mutate
        step state, so the retry is trivially equivalent.
        """
        try:
            self._send_to(w, msg)
            return self._recv(w, timeout=self.step_timeout)
        except WorkerStepError:
            if self.max_retries < 1 or self._snapshots[w] is None:
                raise
            self._respawn(w)
            self._send_to(w, msg)
            return self._recv(w, timeout=self.step_timeout)

    def gather(self, pids, attrs) -> dict:
        attrs = tuple(attrs)
        nworkers = len(self._conns)
        per_worker = [[] for _ in range(nworkers)]
        for pid in pids:
            per_worker[self._worker_of[pid]].append((pid, attrs))
        out = {}
        for w in range(nworkers):
            if per_worker[w]:
                out.update(self._exchange(w, ("gather", per_worker[w]))[1])
        return out

    def call_all(self, pids, method: str) -> dict:
        nworkers = len(self._conns)
        per_worker = [[] for _ in range(nworkers)]
        for pid in pids:
            per_worker[self._worker_of[pid]].append((pid, method))
        out = {}
        for w in range(nworkers):
            if not per_worker[w]:
                continue
            reply = self._exchange(w, ("call", per_worker[w]))
            if reply[0] == "call_error":
                raise WorkerStepError(f"worker-{w}", reply[1])
            out.update(reply[1])
        return out

    def apply_all(self, method: str, pid_args: dict) -> dict:
        nworkers = len(self._conns)
        per_worker = [[] for _ in range(nworkers)]
        for pid, args in pid_args.items():
            per_worker[self._worker_of[pid]].append((pid, method, args))
        active = [w for w in range(nworkers) if per_worker[w]]
        out = {}
        for w in active:
            reply = self._exchange(w, ("apply", per_worker[w]))
            if reply[0] == "call_error":
                raise WorkerStepError(f"worker-{w}", reply[1])
            out.update(reply[1])
        # A scatter mutates worker state by definition, so any retained
        # respawn baselines are stale — refresh them (e.g. right after
        # a checkpoint resume pours restored state into the workers).
        if self.max_retries > 0:
            for w in active:
                self._snapshots[w] = self._exchange(w, ("snapshot",))[1]
        return out

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear everything down; can never wedge.

        The goodbye handshake is polled with a timeout (a hung or dead
        worker simply doesn't answer), joins are bounded, and a worker
        that survives ``terminate()`` is ``kill()``-ed.  The arena is
        closed *and unlinked* regardless of worker health, so no
        ``/dev/shm`` segment outlives the backend — pinned by the leak
        tests in ``tests/test_faults.py``.
        """
        for conn in self._conns:
            try:
                conn.send(("close",))
                if conn.poll(_CLOSE_TIMEOUT):
                    conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for proc in self._procs_mp:
            proc.join(timeout=_CLOSE_TIMEOUT)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - SIGTERM ignored
                proc.kill()
                proc.join(timeout=5)
        self._conns = []
        self._procs_mp = []
        if self._arena is not None:
            self._arena.close()
            self._arena.unlink()
            self._arena = None
        self._snapshots = []
        self._started = False
