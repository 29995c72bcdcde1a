"""Thread-pool execution backend.

Runs every step of a superstep concurrently on a
``ThreadPoolExecutor``.  The partitioning step functions spend their
time in batched NumPy kernels (gathers, bincounts, membership algebra)
that release the GIL, so the per-partition supersteps genuinely
overlap on multi-core hosts while all state stays in-process — no
serialization, no copies.

Determinism and accounting safety come from the outbox protocol of
:mod:`repro.cluster.backends.base`: each step runs with its process's
outbox armed, touching only its own state plus shared *read-only*
structures, and the parent thread replays the recorded
sends/reports/RPCs in step-list order after the pool drains.  The
replayed call sequence is identical to the simulated scheduler's, so
totals and delivery order are bit-identical (pinned by
``tests/test_backends.py``).

A step that raises surfaces as
:class:`~repro.cluster.backends.base.WorkerStepError` with the
partition id after the whole superstep has been awaited (no orphan
threads mid-superstep, no hang).  Threads share the parent's fate, so
the supervision knobs of the processes backend (``step_timeout`` /
``max_retries`` / fault injection) don't exist here — a wedged or
crashed thread is a wedged or crashed parent, and recovery is the
driver-level checkpoint/resume path instead.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

from repro.cluster.backends.base import (ExecutionBackend, StepResult,
                                         WorkerStepError, apply_outbox)

__all__ = ["ThreadsBackend"]


class ThreadsBackend(ExecutionBackend):
    """Superstep scheduler over a persistent thread pool."""

    name = "threads"

    def __init__(self, workers: int = 4):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._pool: ThreadPoolExecutor | None = None

    def attach(self, cluster, processes, plane=None) -> None:
        super().attach(cluster, processes, plane)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="repro-backend")

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------
    def _run_one(self, pid, method: str, args, gather):
        proc = self._procs[pid]
        outbox: list = []
        proc._outbox = outbox
        t0 = time.perf_counter()
        try:
            value = getattr(proc, method)(*args)
        finally:
            proc._outbox = None
        seconds = time.perf_counter() - t0
        return value, seconds, outbox, {a: getattr(proc, a) for a in gather}

    def _execute_superstep(self, steps, gather=()) -> dict:
        assert self._pool is not None, "backend not attached"
        self._count_steps(steps)
        fused = self._fusable_method(steps)
        if fused is not None:
            return self._run_fused(fused, steps, gather)
        live = [(pid, method, args) for pid, method, args in steps
                if method is not None]
        futures = [self._pool.submit(self._run_one, pid, method, args, gather)
                   for pid, method, args in live]
        # Await everything before touching the cluster: replay must see
        # the complete superstep, and an error must not leave stragglers
        # racing the parent.
        outcomes = []
        for (pid, _, _), fut in zip(live, futures):
            try:
                outcomes.append((pid, fut.result(), None))
            except Exception as exc:  # noqa: BLE001 - repackaged with pid
                outcomes.append((pid, None, exc))
        for pid, _, exc in outcomes:
            if exc is not None:
                raise WorkerStepError(pid, repr(exc)) from exc
        out = {}
        for pid, (value, seconds, outbox, gathered), _ in outcomes:
            apply_outbox(self.cluster, pid, outbox)
            out[pid] = StepResult(value, seconds, gathered)
        for pid, method, _ in steps:
            if method is None:
                proc = self._procs[pid]
                out[pid] = StepResult(
                    None, 0.0, {a: getattr(proc, a) for a in gather})
        return out

    # ------------------------------------------------------------------
    def _fused_chunk(self, method: str, chunk):
        """Run one contiguous pid chunk of a fused superstep.

        Arms every chunk member's outbox for the duration of the plane
        call: per-process effects (resident reports, RPC accounting)
        land in that process's own outbox, and each emission sweep of
        the chunk is one ``segments`` entry in the outbox of the
        chunk's first machine — so replay order is governed purely by
        step-list order, as for per-process steps.  Chunks take
        disjoint destination subsets of the delivered sweeps
        (``SimulatedCluster.take_segments`` is thread-safe).
        """
        procs = [self._procs[pid] for pid in chunk]
        outboxes = {}
        for proc in procs:
            outbox: list = []
            proc._outbox = outbox
            outboxes[proc.pid] = outbox
        t0 = time.perf_counter()
        try:
            values = self._plane.run(method, chunk)
        finally:
            for proc in procs:
                proc._outbox = None
        seconds = time.perf_counter() - t0
        return values, seconds, outboxes

    def _run_fused(self, method, steps, gather) -> dict:
        """Fused superstep split into per-thread contiguous pid chunks.

        Machines are state-disjoint in the fused plane (per-machine
        row/segment views of the fused arrays), so concurrent chunk
        calls never touch the same elements; each chunk is one plane
        call, so a 256-machine phase costs ``workers`` dispatches
        instead of 256.
        """
        run_pids = [pid for pid, m, _ in steps if m is not None]
        nchunks = min(self.workers, len(run_pids))
        bounds = [len(run_pids) * i // nchunks for i in range(nchunks + 1)]
        chunks = [run_pids[bounds[i]:bounds[i + 1]] for i in range(nchunks)]
        futures = [self._pool.submit(self._fused_chunk, method, chunk)
                   for chunk in chunks]
        outcomes = []
        for chunk, fut in zip(chunks, futures):
            try:
                outcomes.append((chunk, fut.result(), None))
            except Exception as exc:  # noqa: BLE001 - repackaged with pid
                outcomes.append((chunk, None, exc))
        for chunk, _, exc in outcomes:
            if exc is not None:
                raise WorkerStepError(chunk[0], repr(exc)) from exc
        values: dict = {}
        seconds_of: dict = {}
        outbox_of: dict = {}
        for chunk, (vals, seconds, outboxes), _ in outcomes:
            values.update(vals)
            outbox_of.update(outboxes)
            for pid in chunk:
                seconds_of[pid] = seconds
        out = {}
        for pid, m, _ in steps:
            proc = self._procs[pid]
            if m is not None:
                apply_outbox(self.cluster, pid, outbox_of[pid])
            gathered = {a: getattr(proc, a) for a in gather}
            if m is None:
                out[pid] = StepResult(None, 0.0, gathered)
            else:
                out[pid] = StepResult(values.get(pid), seconds_of[pid],
                                      gathered)
        return out

    # ------------------------------------------------------------------
    def run_graph_task(self, fn, graph, *args):
        """Run the task on one pool thread (pool is created on demand
        so offload works without a cluster attach)."""
        if self._pool is None:
            with ThreadPoolExecutor(max_workers=1) as pool:
                return pool.submit(fn, graph, *args).result()
        return self._pool.submit(fn, graph, *args).result()
