"""Execution-backend contract: who runs the steps between barriers.

The simulated cluster (:mod:`repro.cluster.runtime`) models a
bulk-synchronous program: per superstep, every process runs one step
method (compute + sends), then a barrier delivers and prices the
traffic.  This module carves that *superstep contract* out of the
driver loops so the same Process/barrier programs run unchanged on
three schedulers:

* ``simulated`` — :class:`SimulatedBackend`, the in-process reference:
  steps run sequentially in list order with immediate effect on the
  cluster, exactly the pre-backend behaviour.
* ``threads`` — :mod:`repro.cluster.backends.threads`: steps run on a
  thread pool.  The NumPy kernels release the GIL, so batched
  gathers/scatters genuinely overlap.
* ``processes`` — :mod:`repro.cluster.backends.processes`: steps run in
  worker processes holding the big arrays as zero-copy
  ``multiprocessing.shared_memory`` views; only message payloads —
  eager ``send`` messages and whole
  :class:`~repro.cluster.runtime.SegmentBatch` sweeps — cross the
  parent boundary.

The deterministic-equivalence rule every parallel backend must obey:
a step executes with its outbox armed (``Process._outbox``), so its
sends / resident reports / RPC accounting are *recorded*, and the
parent replays all outboxes via :func:`apply_outbox` in the order the
steps were listed.  Replay performs the identical call sequence the
simulated scheduler would have made, so message/byte/memory totals and
mailbox delivery order are bit-identical across backends (pinned by
``tests/test_backends.py``).

Contract summary
----------------
``run_superstep(steps, gather=())`` takes ``steps`` as a list of
``(pid, method_name, args)`` triples.  ``method_name`` may be ``None``
for a short-circuited step (the driver proved its mailbox payload is
empty): the step is not invoked — it costs nothing on any backend —
but its ``gathered`` attributes are still read, and backends count
executed vs skipped steps in ``steps_executed`` / ``steps_skipped``.
Every named method must be a step function: it may read shared *read-only* structures (graph CSR,
placement), mutate only its own process state, and emit effects only
through the outbox-capable :class:`~repro.cluster.runtime.Process`
helpers.  The return maps ``pid -> StepResult(value, seconds,
gathered)`` where ``gathered`` holds the requested post-step attribute
values (the per-barrier merge of worker-local counters).  A step that
raises surfaces as :class:`WorkerStepError` carrying the pid — no
hang, no silent loss.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.cluster.accounting import record_rpc_pair
from repro.observability.trace import NULL_TRACER

__all__ = ["BACKENDS", "validate_backend", "validate_execution_args",
           "StepResult", "WorkerStepError",
           "ExecutionBackend", "SimulatedBackend", "apply_outbox"]

#: valid values for every ``backend=`` argument
BACKENDS = ("simulated", "threads", "processes")


def validate_backend(backend: str) -> str:
    """Return ``backend`` unchanged, or raise ``ValueError``."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}")
    return backend


def validate_execution_args(backend: str, workers: int | None,
                            checkpoint_dir: str | None, resume: bool,
                            step_timeout: float | None, max_retries: int,
                            fault_plan) -> None:
    """Raise ``ValueError`` on an execution-argument combination no
    backend can honour — the checks every partitioner constructor that
    takes these arguments (Distributed NE, SNE) shares."""
    validate_backend(backend)
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if resume and checkpoint_dir is None:
        raise ValueError("resume requires checkpoint_dir")
    if backend != "processes" and (step_timeout is not None or max_retries
                                   or fault_plan is not None):
        raise ValueError("step_timeout/max_retries/fault_plan require "
                         "backend='processes'")


class WorkerStepError(RuntimeError):
    """A step function raised (or its worker died) on a parallel backend.

    ``pid`` identifies the failing process, so a crash inside worker 3
    of 64 surfaces as "step failed in process ('alloc', 3)" instead of
    a bare traceback from an anonymous pool thread.
    """

    def __init__(self, pid, detail: str):
        super().__init__(f"step failed in process {pid!r}: {detail}")
        self.pid = pid
        self.detail = detail


@dataclass
class StepResult:
    """Outcome of one step: return value, compute seconds, gathered attrs."""

    value: object
    seconds: float
    gathered: dict = field(default_factory=dict)


def apply_outbox(cluster, src_pid, outbox: list) -> None:
    """Replay one step's recorded effects against the parent cluster.

    Entries are the exact calls the step would have made inline
    (``send`` -> per-message accounting + in-flight queue, ``segments``
    -> one bulk-priced :class:`~repro.cluster.runtime.SegmentBatch`
    sweep, ``resident`` -> memory report, ``rpc`` -> the seed-scan
    request/response counter pattern), so replaying every step's outbox
    in step-list order reproduces the simulated scheduler's cluster
    state bit-for-bit.
    """
    stats = cluster.stats
    for entry in outbox:
        kind = entry[0]
        if kind == "segments":
            cluster.deliver_segments(entry[1], entry[2])
        elif kind == "send":
            cluster._send(src_pid, entry[1], entry[2], entry[3])
        elif kind == "resident":
            stats.stats_for(src_pid).set_resident(entry[1], entry[2])
        elif kind == "rpc":
            record_rpc_pair(stats, src_pid, entry[1], entry[2])
        else:  # pragma: no cover - corrupted outbox entry
            raise ValueError(f"unknown outbox entry kind {kind!r}")


class ExecutionBackend:
    """Base class; see the module docstring for the contract."""

    name: str = "?"

    #: fused phase plane (``None`` -> per-process dispatch only)
    _plane = None
    #: superstep bookkeeping: executed vs short-circuited steps
    steps_executed: int = 0
    steps_skipped: int = 0
    #: span sink — the shared no-op by default, so tracing-off costs
    #: one attribute check per superstep (drivers swap in a live
    #: :class:`~repro.observability.trace.Tracer` after construction)
    tracer = NULL_TRACER

    # -- lifecycle -----------------------------------------------------
    def attach(self, cluster, processes, plane=None) -> None:
        """Bind the backend to a cluster and its (local) processes.

        Parallel in-process backends index ``processes`` by pid;
        the processes backend overrides the whole lifecycle (its
        process objects live in the workers).  ``plane`` is an optional
        fused dispatch plane (e.g.
        :class:`~repro.core.fused.FusedDnePlane`): when every
        executable step of a superstep names the same plane-supported
        method, the backend issues one fused call instead of
        per-process steps.
        """
        self.cluster = cluster
        self._procs = {proc.pid: proc for proc in processes}
        self._plane = plane
        self.steps_executed = 0
        self.steps_skipped = 0

    def close(self) -> None:
        """Release workers/pools/shared segments.  Idempotent."""

    # -- superstep execution -------------------------------------------
    def run_superstep(self, steps, gather=()) -> dict:
        """Template method: execute the superstep, optionally traced.

        Concrete backends implement :meth:`_execute_superstep`; this
        wrapper emits exactly one span per superstep when a live
        tracer is installed.  Step semantics, dispatch, and accounting
        are untouched either way — the tracer only *observes* the
        ``StepResult`` map (per-step compute seconds ride back from
        the workers alongside the outbox replies), so span structure
        is identical across backends and results are identical with
        tracing on or off (pinned by ``tests/test_observability.py``).
        """
        tracer = self.tracer
        if not tracer.enabled:
            return self._execute_superstep(steps, gather)
        methods = {method for _, method, _ in steps if method is not None}
        name = next(iter(methods)) if len(methods) == 1 else \
            ("idle" if not methods else "mixed")
        executed = sum(1 for _, method, _ in steps if method is not None)
        t0 = time.perf_counter()
        out = self._execute_superstep(steps, gather)
        seconds = time.perf_counter() - t0
        tracer.span(
            f"superstep:{name}", cat="superstep", seconds=seconds,
            args={"method": name, "steps": len(steps),
                  "executed": executed,
                  "skipped": len(steps) - executed,
                  "busy_seconds": round(
                      sum(r.seconds for r in out.values()), 9)})
        return out

    def _execute_superstep(self, steps, gather=()) -> dict:
        raise NotImplementedError

    def _count_steps(self, steps) -> None:
        """Track executed vs short-circuited (``method is None``) steps.

        Skip decisions are made by the driver *before* dispatch (from
        the parent cluster's delivered mailboxes), so the counts are
        identical across backends — pinned by ``tests/test_backends.py``.
        """
        executed = sum(1 for _, method, _ in steps if method is not None)
        self.steps_executed += executed
        self.steps_skipped += len(steps) - executed

    def _fusable_method(self, steps):
        """The single plane method this superstep fuses to, or ``None``.

        Fusion requires a plane, at least one executable step, every
        executable step naming the same plane-supported zero-argument
        method.
        """
        plane = self._plane
        if plane is None:
            return None
        methods = {method for _, method, _ in steps if method is not None}
        if len(methods) != 1:
            return None
        method = next(iter(methods))
        if method not in plane.methods:
            return None
        if any(args for _, method, args in steps if method is not None):
            return None
        return method

    # -- out-of-phase access -------------------------------------------
    def gather(self, pids, attrs) -> dict:
        """Read cheap per-process counters: ``{pid: {attr: value}}``."""
        return {pid: {a: getattr(self._procs[pid], a) for a in attrs}
                for pid in pids}

    def call_all(self, pids, method: str) -> dict:
        """Invoke a no-argument method on each pid (collect phase)."""
        return {pid: getattr(self._procs[pid], method)() for pid in pids}

    def apply_all(self, method: str, pid_args: dict) -> dict:
        """Invoke ``method(*args)`` per pid with per-pid arguments.

        The scatter counterpart of :meth:`call_all`: ``pid_args`` maps
        pid -> args tuple.  Used by checkpoint resume to push saved
        state blobs back into live processes (``restore_state``) —
        the processes backend routes each call to the worker owning
        the pid so shm-backed arrays are restored in place.
        """
        return {pid: getattr(self._procs[pid], method)(*args)
                for pid, args in pid_args.items()}

    # -- whole-graph offload -------------------------------------------
    def run_graph_task(self, fn, graph, *args):
        """Run ``fn(graph, *args)`` on this backend's compute resource.

        The escape hatch for partitioners that are one sequential
        program rather than a Process/barrier ensemble (SNE's bounded
        stream): ``simulated`` runs inline, ``threads`` on a worker
        thread, ``processes`` in a worker process with the graph mapped
        through shared memory.  ``fn`` must be a module-level function
        of picklable arguments returning picklable results.
        """
        return fn(graph, *args)


class SimulatedBackend(ExecutionBackend):
    """The reference scheduler: sequential, immediate-effect steps.

    Unchanged semantics from the pre-backend driver loops — steps run
    inline in list order with ``Process._outbox`` left unarmed, so
    every send/report hits the cluster at call time.  This is the
    backend every parallel one is pinned against.
    """

    name = "simulated"

    def _execute_superstep(self, steps, gather=()) -> dict:
        self._count_steps(steps)
        fused = self._fusable_method(steps)
        if fused is not None:
            return self._run_fused(fused, steps, gather)
        out = {}
        for pid, method, args in steps:
            proc = self._procs[pid]
            if method is None:
                out[pid] = StepResult(
                    None, 0.0, {a: getattr(proc, a) for a in gather})
                continue
            t0 = time.perf_counter()
            value = getattr(proc, method)(*args)
            seconds = time.perf_counter() - t0
            out[pid] = StepResult(value, seconds,
                                  {a: getattr(proc, a) for a in gather})
        return out

    def _run_fused(self, method, steps, gather) -> dict:
        """One plane call for the whole superstep, effects inline.

        Outboxes stay unarmed, so each emission sweep is priced and
        delivered as the plane hands it over, its segments in the order
        (machines ascending, destinations ascending) sequential
        per-process steps would have created their buffers in.
        """
        run_pids = [pid for pid, m, _ in steps if m is not None]
        t0 = time.perf_counter()
        values = self._plane.run(method, run_pids)
        seconds = time.perf_counter() - t0
        out = {}
        for pid, m, _ in steps:
            proc = self._procs[pid]
            gathered = {a: getattr(proc, a) for a in gather}
            if m is None:
                out[pid] = StepResult(None, 0.0, gathered)
            else:
                out[pid] = StepResult(values.get(pid), seconds, gathered)
        return out
