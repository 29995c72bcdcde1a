"""Thread-pool execution backend.

Cuts each superstep's step list into ``min(workers, len(steps))``
contiguous shares and runs one share per thread of a
``ThreadPoolExecutor`` — each through
:func:`~repro.cluster.backends.base.run_steps`, so a homogeneous
256-machine phase costs ``workers`` fused plane calls instead of 256
dispatches.  The partitioning step functions spend their time in
batched NumPy kernels (gathers, bincounts, membership algebra) that
release the GIL, so the shares genuinely overlap on multi-core hosts
while all state stays in-process — no serialization, no copies.
Machines are state-disjoint in the fused plane (per-machine
row/segment views of the fused arrays; shares take disjoint destination
subsets of the delivered sweeps, and ``SimulatedCluster.take_segments``
is thread-safe), so concurrent shares never touch the same elements.

Determinism and accounting safety come from the outbox protocol of
:mod:`repro.cluster.backends.base`: every share runs armed, touching
only its own processes' state plus shared *read-only* structures, and
the parent thread replays the recorded sends/reports/RPCs in step-list
order after the pool drains.  The replayed call sequence is identical
to the simulated scheduler's, so totals and delivery order are
bit-identical whatever the share boundaries (pinned by
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

from concurrent.futures import ThreadPoolExecutor

from repro.cluster.backends.base import (ExecutionBackend, WorkerStepError,
                                         merge_shares, run_steps,
                                         validate_execution_args)

__all__ = ["ThreadsBackend"]


class ThreadsBackend(ExecutionBackend):
    """Superstep scheduler over a persistent thread pool."""

    name = "threads"

    def __init__(self, workers: int = 4):
        validate_execution_args(self.name, workers)
        self.workers = workers
        self._pool: ThreadPoolExecutor | None = None

    def start(self, cluster, program, pids, arrays: dict) -> None:
        super().start(cluster, program, pids, arrays)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="repro-backend")

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------
    def _execute_superstep(self, steps, gather=(), iteration=None) -> dict:
        assert self._pool is not None, "backend not started"
        nshares = min(self.workers, len(steps)) or 1
        bounds = [len(steps) * i // nshares for i in range(nshares + 1)]
        futures = [self._pool.submit(run_steps, self._procs, self._plane,
                                     steps[bounds[i]:bounds[i + 1]], gather,
                                     armed=True, iteration=iteration)
                   for i in range(nshares)]
        # Await everything before touching the cluster: replay must see
        # the complete superstep, and an error must not leave stragglers
        # racing the parent.
        outcomes = [future.result() for future in futures]
        for _, failure in outcomes:
            if failure is not None:
                pid, exc, _ = failure
                raise WorkerStepError(pid, repr(exc)) from exc
        return self._finish(
            steps, *merge_shares(results for results, _ in outcomes))
