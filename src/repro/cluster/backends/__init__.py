"""Pluggable execution backends for the simulated cluster.

``backend="simulated" | "threads" | "processes"`` selects who executes
the per-partition steps between barriers — the deterministic inline
reference scheduler, a thread pool over the GIL-releasing NumPy
kernels, or worker processes with the big arrays mapped through
``multiprocessing.shared_memory``.  Every backend is entered the same
way — ``start(cluster, program, pids, arrays)`` with a
:class:`WorkerProgram` — and all three produce bit-identical
assignments and accounting totals (see
:mod:`repro.cluster.backends.base` for the contract and
``tests/test_backends.py`` for the pins).
"""

from __future__ import annotations

from repro.cluster.backends.base import (BACKENDS, ExecutionBackend,
                                         SimulatedBackend, StepResult,
                                         WorkerProgram, WorkerStepError,
                                         apply_outbox, validate_backend,
                                         validate_execution_args)
from repro.cluster.backends.faults import FaultPlan
from repro.cluster.backends.processes import ProcessesBackend
from repro.cluster.backends.shm import ShmArena
from repro.cluster.backends.threads import ThreadsBackend

__all__ = ["BACKENDS", "validate_backend", "validate_execution_args",
           "create_backend",
           "ExecutionBackend", "SimulatedBackend", "ThreadsBackend",
           "ProcessesBackend", "WorkerProgram", "FaultPlan", "StepResult",
           "WorkerStepError", "apply_outbox", "ShmArena"]

#: default worker count for the parallel backends when none is given
DEFAULT_WORKERS = 4


def create_backend(backend: str, workers: int | None = None,
                   step_timeout: float | None = None, max_retries: int = 0,
                   fault_plan: FaultPlan | None = None) -> ExecutionBackend:
    """Instantiate a backend by name.

    ``workers`` is ignored by ``simulated``; the parallel backends
    default to :data:`DEFAULT_WORKERS`.  The supervision knobs —
    ``step_timeout`` (bound every worker reply), ``max_retries``
    (respawn-and-retry recovery), ``fault_plan`` (deterministic fault
    injection) — exist only on the ``processes`` backend; passing them
    for any other backend raises ``ValueError`` rather than silently
    running unsupervised.
    """
    validate_execution_args(backend, workers, step_timeout, max_retries,
                            fault_plan)
    if workers is None:
        workers = DEFAULT_WORKERS
    if backend == "simulated":
        return SimulatedBackend()
    if backend == "threads":
        return ThreadsBackend(workers)
    return ProcessesBackend(workers, step_timeout, max_retries, fault_plan)
