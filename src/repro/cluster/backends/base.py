"""Execution-backend contract: who runs the steps between barriers.

The simulated cluster (:mod:`repro.cluster.runtime`) models a
bulk-synchronous program: per superstep, every process runs one step
method (compute + sends, each sweep priced and delivered as it is
sent), then a barrier closes the superstep.  This module carves that *superstep contract* out of the
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
  whole :class:`~repro.cluster.runtime.SegmentBatch` sweeps — cross
  the parent boundary.

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
``start(cluster, program, pids, arrays)`` is the one way onto a
backend: it builds the processes ``pids`` from a :class:`WorkerProgram`
wherever they are to run — in-process on the caller's own ``arrays``
(``simulated``, ``threads``), or inside each worker over shared-memory
copies of them (``processes``).  Distributed NE is the one program;
its ``arrays`` carry the canonical edge array and nothing else of the
graph.

``run_superstep(steps, gather=(), phase=None)`` takes ``steps`` as a
list of ``(pid, method_name, args)`` triples, each pid at most once.
``method_name`` may be ``None`` for a short-circuited step (the driver
proved its mailbox payload is empty): the step is not invoked — it
costs nothing on any backend — but its ``gathered`` attributes are
still read, and the template counts executed vs skipped steps in
``steps_executed`` / ``steps_skipped``.  ``phase=(name, iteration)`` is
the driver's label for the superstep; it adds a ``phase:<name>`` span
when tracing, and its iteration reaches the fused plane, whose errors
name it.  Every named method must be a step function: it may
read shared *read-only* structures (edge array, placement), mutate only
its own process state, and emit effects only through the
outbox-capable :class:`~repro.cluster.runtime.Process` helpers.  The
return maps ``pid -> StepResult(value, seconds, gathered)`` where
``gathered`` holds the requested post-step attribute values (the
per-barrier merge of worker-local counters).  A step that raises
surfaces as itself on ``simulated`` and as :class:`WorkerStepError`
carrying the pid on the parallel backends — no hang, no silent loss.

:func:`run_steps` is the single dispatch site behind all three
backends: it alone picks fused vs per-process dispatch, arms and
disarms outboxes, times the steps and names the step that raised.  A
backend only decides *which share* of the step list runs *where* —
the whole list inline (``simulated``), one contiguous share per pool
thread (``threads``), one share per worker process (``processes``) —
and whether the share runs ``armed``: ``armed=True`` records every
effect in per-step outboxes for the parent to replay in step-list
order (the parallel backends), ``armed=False`` lets effects hit the
cluster as they are made (the inline reference).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

from repro.cluster.accounting import record_rpc_pair
from repro.observability.trace import NULL_TRACER

__all__ = ["BACKENDS", "validate_backend", "validate_execution_args",
           "StepResult", "WorkerStepError", "run_steps", "merge_shares",
           "WorkerProgram", "ExecutionBackend", "SimulatedBackend",
           "apply_outbox"]

#: valid values for every ``backend=`` argument
BACKENDS = ("simulated", "threads", "processes")


def validate_backend(backend: str) -> str:
    """Return ``backend`` unchanged, or raise ``ValueError``."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}")
    return backend


def validate_execution_args(backend: str, workers: int | None = None,
                            step_timeout: float | None = None,
                            max_retries: int = 0, fault_plan=None,
                            checkpoint_dir: str | None = None,
                            resume: bool = False) -> None:
    """Raise ``ValueError`` on execution arguments no backend can
    honour — the one statement of these rules, shared by Distributed
    NE's constructor, :func:`~repro.cluster.backends.create_backend`
    and the parallel backends' own constructors."""
    validate_backend(backend)
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if resume and checkpoint_dir is None:
        raise ValueError("resume requires checkpoint_dir")
    if backend != "processes" and (step_timeout is not None or max_retries
                                   or fault_plan is not None):
        raise ValueError("step_timeout/max_retries/fault_plan require "
                         "backend='processes'")
    if step_timeout is not None and step_timeout <= 0:
        raise ValueError("step_timeout must be positive or None")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")


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
    (``segments`` -> one bulk-priced
    :class:`~repro.cluster.runtime.SegmentBatch` sweep, ``resident`` ->
    memory report, ``rpc`` -> the seed-scan request/response counter
    pattern), so replaying every step's outbox in step-list order
    reproduces the simulated scheduler's cluster state bit-for-bit.
    """
    stats = cluster.stats
    for entry in outbox:
        kind = entry[0]
        if kind == "segments":
            cluster.deliver_segments(entry[1], entry[2])
        elif kind == "resident":
            stats.stats_for(src_pid).set_resident(entry[1], entry[2])
        elif kind == "rpc":
            record_rpc_pair(stats, src_pid, entry[1], entry[2])
        else:  # pragma: no cover - corrupted outbox entry
            raise ValueError(f"unknown outbox entry kind {kind!r}")


def run_steps(procs, plane, steps, gather, armed, iteration=None):
    """Run one share of a superstep — the single dispatch site.

    ``procs`` maps pid -> process, ``plane`` is the fused dispatch
    plane over them (or ``None``), ``steps`` the share's ``(pid,
    method, args)`` triples.  Returns ``(results, failure)``.
    ``results`` is four pid-keyed dicts in step order — ``(values,
    seconds, outboxes, gathered)``: return value and compute seconds
    of every live step (``method is not None``), the outbox of every
    live step of an armed share, the ``gather`` attributes of *every*
    step.  ``failure`` is ``None``, or ``(pid, exception, formatted
    traceback)`` for the step that raised — nothing after it ran, and
    ``results`` is ``None``.

    The dispatch rule: when every live step names the same
    zero-argument method and the plane serves it, one ``plane.run``
    call replaces the per-process loop (a raise is then reported
    against the share's first live pid); otherwise each live step is
    one method call.

    ``armed`` arms every live process's outbox for the duration of the
    share, so each process's effects land in its own replay slot (a
    fused emission sweep is one ``segments`` entry in the first live
    pid's) for the caller to replay via :func:`apply_outbox`; unarmed,
    effects hit the cluster as they are made and ``outboxes`` is
    empty.  Outboxes are disarmed on every exit.  ``iteration`` (the
    driver's, or ``None``) is handed to ``plane.run`` for its errors.
    """
    pids = [pid for pid, method, _ in steps if method is not None]
    fused = None
    if plane is not None and not any(
            args for _, method, args in steps if method is not None):
        methods = {method for _, method, _ in steps if method is not None}
        if len(methods) == 1 and next(iter(methods)) in plane.methods:
            (fused,) = methods
    outboxes = {pid: [] for pid in pids} if armed else {}
    for pid, outbox in outboxes.items():
        procs[pid]._outbox = outbox
    values: dict = {}
    seconds: dict = {}
    #: the pid a raise is reported against
    running = pids[0] if pids else None
    try:
        if fused is not None:
            t0 = time.perf_counter()
            values = plane.run(fused, pids, iteration)
            seconds = dict.fromkeys(pids, time.perf_counter() - t0)
        else:
            for running, method, args in steps:
                if method is not None:
                    t0 = time.perf_counter()
                    values[running] = getattr(procs[running], method)(*args)
                    seconds[running] = time.perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 - reported with its pid
        return None, (running, exc, traceback.format_exc())
    finally:
        for pid in outboxes:
            procs[pid]._outbox = None
    # Plain loops: before CPython 3.12 a comprehension per step costs
    # a function object per step — more than the rest of the dispatch.
    gathered: dict = {}
    for pid, _, _ in steps:
        proc = procs[pid]
        got = gathered[pid] = {}
        for attr in gather:
            got[attr] = getattr(proc, attr)
    return (values, seconds, outboxes, gathered), None


def merge_shares(shares) -> tuple:
    """Union of several shares' :func:`run_steps` results (a pid runs
    in exactly one share, so the dicts are disjoint)."""
    merged = ({}, {}, {}, {})
    for share in shares:
        for into, part in zip(merged, share):
            into.update(part)
    return merged


class WorkerProgram:
    """Picklable recipe for building a share of the cluster's processes.

    Subclasses implement :meth:`build`, constructing the process
    objects for the pids one scheduler owns — all of them in-process,
    one worker's share on the processes backend, where it runs once
    per worker at startup and again whenever the supervisor respawns a
    crashed worker (the rebuild is followed by an in-place state
    restore, so ``build`` must be safe to re-run against live shared
    arrays).  Everything it needs must be picklable constructor state
    or arrive through ``arrays``.
    """

    def build(self, owned_pids, arrays: dict) -> dict:
        """Return ``{pid: Process}`` for ``owned_pids``, in that order.

        ``arrays`` is what the caller handed
        :meth:`ExecutionBackend.start` — the caller's own arrays
        in-process, zero-copy shared-memory views in a worker, so a
        write to an array is seen by every process on every backend.
        """
        raise NotImplementedError

    def build_plane(self, procs: dict):
        """Optional fused dispatch plane over the built processes.

        Called once after :meth:`build`.  Return ``None`` (the
        default) for per-process dispatch; return an object with
        ``methods`` / ``run(method, pids, iteration)`` (e.g.
        :class:`~repro.core.fused.FusedDnePlane`) to let
        :func:`run_steps` fuse a share whenever its dispatch rule
        allows.
        """
        return None


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
    def start(self, cluster, program: WorkerProgram, pids,
              arrays: dict) -> None:
        """Build the processes ``pids`` from ``program`` and register
        them with ``cluster``, in ``pids`` order.

        The in-process backends build on the caller's own ``arrays``
        (name -> ndarray) and run through the fused plane
        ``program.build_plane`` returns, if any; the processes backend
        overrides this to build inside its workers.
        """
        self.cluster = cluster
        self.steps_executed = self.steps_skipped = 0
        self._procs = program.build(list(pids), arrays)
        for pid in pids:
            cluster.add_process(self._procs[pid])
        self._plane = program.build_plane(self._procs)

    def close(self) -> None:
        """Release workers/pools/shared segments.  Idempotent."""

    # -- superstep execution -------------------------------------------
    def run_superstep(self, steps, gather=(), phase=None) -> dict:
        """Template method: count, execute, optionally trace.

        Concrete backends implement :meth:`_execute_superstep`.  The
        ledger counts executed vs short-circuited (``method is None``)
        steps; skip decisions are made by the driver *before* dispatch
        (from the parent cluster's delivered mailboxes), so the counts
        are identical across backends — pinned by
        ``tests/test_backends.py``.

        With a live tracer this emits exactly one ``superstep:<method>``
        span per call and, when the driver passes ``phase=(name,
        iteration)``, the ``phase:<name>`` span right after it from the
        same executed/skipped counts.  Step semantics, dispatch, and
        accounting are untouched either way — the tracer only
        *observes* the ``StepResult`` map (per-step compute seconds
        ride back from the workers alongside the outbox replies), so
        span structure is identical across backends and results are
        identical with tracing on or off (pinned by
        ``tests/test_observability.py``).
        """
        iteration = phase[1] if phase is not None else None
        executed = sum(1 for _, method, _ in steps if method is not None)
        skipped = len(steps) - executed
        self.steps_executed += executed
        self.steps_skipped += skipped
        tracer = self.tracer
        if not tracer.enabled:
            return self._execute_superstep(steps, gather, iteration)
        t_phase = time.perf_counter()
        methods = {method for _, method, _ in steps if method is not None}
        name = next(iter(methods)) if len(methods) == 1 else \
            ("idle" if not methods else "mixed")
        t0 = time.perf_counter()
        out = self._execute_superstep(steps, gather, iteration)
        seconds = time.perf_counter() - t0
        tracer.span(
            f"superstep:{name}", cat="superstep", seconds=seconds,
            args={"method": name, "steps": len(steps),
                  "executed": executed, "skipped": skipped,
                  "busy_seconds": round(
                      sum(r.seconds for r in out.values()), 9)})
        if phase is not None:
            tracer.span(f"phase:{phase[0]}", cat="phase",
                        seconds=time.perf_counter() - t_phase,
                        args={"phase": phase[0], "iteration": phase[1],
                              "executed": executed, "skipped": skipped})
        return out

    def _execute_superstep(self, steps, gather=(), iteration=None) -> dict:
        raise NotImplementedError

    def _finish(self, steps, values, seconds, outboxes, gathered) -> dict:
        """Replay the recorded outboxes in step-list order — the exact
        call sequence the simulated scheduler makes inline — and build
        the ``pid -> StepResult`` map from :func:`run_steps` results."""
        if outboxes:
            for pid, _, _ in steps:
                if pid in outboxes:
                    apply_outbox(self.cluster, pid, outboxes[pid])
        return {pid: StepResult(values.get(pid), seconds.get(pid, 0.0),
                                gathered[pid])
                for pid, _, _ in steps}

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


class SimulatedBackend(ExecutionBackend):
    """The reference scheduler: sequential, immediate-effect steps.

    Unchanged semantics from the pre-backend driver loops — the whole
    step list is one unarmed :func:`run_steps` share, run inline in
    list order, so every send/report hits the cluster at call time
    (under fused dispatch each emission sweep is priced and delivered
    as the plane hands it over, its segments in the order sequential
    per-process steps would have created their buffers in) and a step
    exception propagates as itself.  This is the backend every
    parallel one is pinned against.
    """

    name = "simulated"

    def _execute_superstep(self, steps, gather=(), iteration=None) -> dict:
        results, failure = run_steps(self._procs, self._plane, steps, gather,
                                     armed=False, iteration=iteration)
        if failure is not None:
            raise failure[1]
        return self._finish(steps, *results)
