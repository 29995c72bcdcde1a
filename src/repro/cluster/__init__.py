"""Simulated distributed runtime.

The paper runs on up to 256 MPI machines; this package provides the
substitute substrate (``docs/ARCHITECTURE.md``, "Layers"): a
deterministic, single-host message-passing simulator.  Algorithms written against it look like
their MPI counterparts — ``(role, slot)`` processes exchange tagged
row arrays and synchronise on barriers — and the runtime *accounts* for everything the
paper's evaluation measures: bytes moved, message counts, barrier
(iteration) counts, and per-process peak memory of registered
structures.

* :mod:`repro.cluster.accounting` — counters and the memory scores.
* :mod:`repro.cluster.runtime` — :class:`SimulatedCluster` and
  :class:`Process`.
* :mod:`repro.cluster.backends` — pluggable superstep execution:
  the inline deterministic scheduler, a thread pool, or
  shared-memory worker processes, all bit-identical on accounting.
"""

from repro.cluster.accounting import ClusterStats, ProcessStats
from repro.cluster.runtime import Process, SimulatedCluster

__all__ = [
    "SimulatedCluster",
    "Process",
    "ClusterStats",
    "ProcessStats",
]
