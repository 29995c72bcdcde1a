"""Common interfaces for all partitioners.

Every partitioner — the baselines here and Distributed NE in
:mod:`repro.core` — consumes a :class:`~repro.graph.csr.CSRGraph` and
produces an :class:`EdgePartition`: an assignment of every canonical
edge to one of ``num_partitions`` parts, plus the run metadata the
benchmarks report (iterations, elapsed time, cluster statistics where
applicable).

Vertex partitioners (:mod:`repro.partitioners.spinner`,
``metis_like``, ``xtrapulp``) produce a :class:`VertexPartition`, which
§7.1 of the paper converts to an edge partition by assigning each edge
uniformly to one of its endpoints' parts —
:func:`repro.partitioners.vertex_to_edge.vertex_to_edge_partition`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph
from repro.kernels import validate_kernel
from repro.metrics.quality import (
    edge_balance,
    replication_factor,
    validate_assignment,
    vertex_balance,
)
from repro.observability.metrics import get_registry

__all__ = ["EdgePartition", "VertexPartition", "Partitioner",
           "StreamingEdgePartitioner", "timed_partition"]


@dataclass
class EdgePartition:
    """Result of an edge partitioning run.

    Attributes
    ----------
    graph:
        The partitioned graph.
    num_partitions:
        ``|P|``.
    assignment:
        int64 array, one partition id per canonical edge.
    method:
        Human-readable partitioner name.
    elapsed_seconds:
        Wall-clock partitioning time (excludes graph generation/loading,
        matching the paper's measurement protocol).
    iterations:
        Number of global iterations/barriers, when the method is
        iterative (0 for one-shot hashing).
    extra:
        Free-form per-method metadata (e.g. cluster stats summaries).
    """

    graph: CSRGraph
    num_partitions: int
    assignment: np.ndarray
    method: str = ""
    elapsed_seconds: float = 0.0
    iterations: int = 0
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        validate_assignment(self.graph, self.assignment, self.num_partitions)

    # -- convenience metrics -------------------------------------------
    def replication_factor(self) -> float:
        """Equation 1's RF for this partition."""
        return replication_factor(self.graph, self.assignment,
                                  self.num_partitions)

    def edge_balance(self) -> float:
        return edge_balance(self.assignment, self.num_partitions)

    def vertex_balance(self) -> float:
        return vertex_balance(self.graph, self.assignment,
                              self.num_partitions)

    def edges_of(self, p: int) -> np.ndarray:
        """Canonical ``(k, 2)`` edge array of partition ``p``."""
        return self.graph.edges[self.assignment == p]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EdgePartition(method={self.method!r}, "
                f"P={self.num_partitions}, RF={self.replication_factor():.3f})")


@dataclass
class VertexPartition:
    """Result of a vertex (edge-cut) partitioning run."""

    graph: CSRGraph
    num_partitions: int
    assignment: np.ndarray  # one partition id per vertex
    method: str = ""
    elapsed_seconds: float = 0.0
    iterations: int = 0
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        if self.assignment.shape != (self.graph.num_vertices,):
            raise ValueError("vertex assignment must have one entry per vertex")
        if self.graph.num_vertices and (
                self.assignment.min() < 0
                or self.assignment.max() >= self.num_partitions):
            raise ValueError("assignment contains out-of-range partition ids")


class Partitioner:
    """Base class: subclasses implement :meth:`_partition`.

    ``partition`` wraps the implementation with wall-clock timing so
    every method reports elapsed time uniformly.
    """

    #: registry name, overridden by subclasses
    name = "base"

    def __init__(self, num_partitions: int, seed: int = 0):
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.num_partitions = num_partitions
        self.seed = seed

    def partition(self, graph: CSRGraph) -> EdgePartition:
        """Partition ``graph`` and return a timed :class:`EdgePartition`."""
        start = time.perf_counter()
        result = self._partition(graph)
        result.elapsed_seconds = time.perf_counter() - start
        registry = get_registry()
        if registry.enabled:
            registry.counter_inc("repro_partition_runs_total",
                                 method=self.name)
            registry.observe("repro_partition_seconds",
                             result.elapsed_seconds, method=self.name)
        return result

    def _partition(self, graph: CSRGraph) -> EdgePartition:
        raise NotImplementedError


class StreamingEdgePartitioner(Partitioner):
    """Shared plumbing for the one-pass streaming baselines.

    HDRF, FENNEL, and Oblivious all walk the canonical edge list once —
    optionally in a seeded shuffled order — scoring each edge against
    every partition.  HDRF and FENNEL ship two implementations selected
    by the standard ``kernel=`` flag: ``"vectorized"`` (default; the
    load-level walk :func:`repro.core.streaming.walk_edge_stream`) and
    ``"python"`` (the per-edge reference loop, kept verbatim); this
    base owns the flag validation and the stream order so both kernels
    consume the RNG identically — the order *is* part of the pinned
    behaviour.  Oblivious has one implementation: it overrides
    :meth:`_partition` and exposes no ``kernel=``.
    """

    def __init__(self, num_partitions: int, seed: int = 0,
                 shuffle: bool = True, kernel: str = "vectorized"):
        super().__init__(num_partitions, seed)
        self.shuffle = shuffle
        self.kernel = validate_kernel(kernel)

    def stream_order(self, num_edges: int) -> np.ndarray:
        """Edge-id visit order: identity, or a seeded permutation."""
        order = np.arange(num_edges)
        if self.shuffle:
            order = np.random.default_rng(self.seed).permutation(order)
        return order

    def _partition(self, graph: CSRGraph) -> EdgePartition:
        if self.kernel == "python":
            return self._partition_python(graph)
        return self._partition_vectorized(graph)

    def _partition_python(self, graph: CSRGraph) -> EdgePartition:
        raise NotImplementedError

    def _partition_vectorized(self, graph: CSRGraph) -> EdgePartition:
        raise NotImplementedError


def timed_partition(fn, *args, **kwargs):
    """Run ``fn`` and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start
