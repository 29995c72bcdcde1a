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
    balance,
    covered_vertex_count,
    edge_balance,
    replication_factor_of_counts,
    validate_assignment,
    vertex_cuts_of_counts,
    vertex_replica_csr,
)
from repro.observability.metrics import get_registry

__all__ = ["EdgePartition", "VertexPartition", "Partitioner",
           "StreamingEdgePartitioner"]


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
        int64 array, one partition id per canonical edge; a read-only
        view, so the replica CSR built from it cannot go stale (the
        caller hands the buffer over and must not write to it
        afterwards, as with :class:`~repro.graph.csr.CSRGraph` edges).
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
    _replicas: tuple | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        assignment = np.asarray(self.assignment, dtype=np.int64).view()
        assignment.flags.writeable = False
        object.__setattr__(self, "assignment", assignment)
        validate_assignment(self.graph, self.assignment, self.num_partitions)

    def __setattr__(self, name, value):
        if name == "assignment" and "assignment" in self.__dict__:
            raise AttributeError("EdgePartition.assignment is read-only")
        super().__setattr__(name, value)

    @property
    def replicas(self) -> tuple[np.ndarray, np.ndarray]:
        """The vertex→replica CSR ``(indptr, parts)``
        (:func:`~repro.metrics.quality.vertex_replica_csr`), built on
        first use and kept."""
        if self._replicas is None:
            self._replicas = vertex_replica_csr(
                self.graph.edges, self.assignment, self.graph.num_vertices,
                self.num_partitions)
            for arr in self._replicas:  # shared by every reader
                arr.flags.writeable = False
        return self._replicas

    # -- convenience metrics -------------------------------------------
    def vertex_counts(self) -> np.ndarray:
        """``|V(E_p)|`` per partition, read off :attr:`replicas`."""
        return np.bincount(self.replicas[1], minlength=self.num_partitions)

    def replication_factor(self) -> float:
        """Equation 1's RF for this partition; its covered vertices are
        :attr:`replicas`' non-empty rows."""
        return replication_factor_of_counts(
            self.vertex_counts(), covered_vertex_count(self.replicas[0]))

    def vertex_cut_count(self) -> int:
        return vertex_cuts_of_counts(
            self.vertex_counts(), covered_vertex_count(self.replicas[0]))

    def edge_balance(self) -> float:
        return edge_balance(self.assignment, self.num_partitions)

    def vertex_balance(self) -> float:
        return balance(self.vertex_counts())

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

    HDRF, FENNEL, and Oblivious all walk the canonical edge list once,
    in a seeded shuffled order, scoring each edge against
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
                 kernel: str = "vectorized"):
        super().__init__(num_partitions, seed)
        self.kernel = validate_kernel(kernel)

    def stream_order(self, num_edges: int) -> np.ndarray:
        """Edge-id visit order: a seeded permutation."""
        return np.random.default_rng(self.seed).permutation(num_edges)

    def _partition(self, graph: CSRGraph) -> EdgePartition:
        if self.kernel == "python":
            return self._partition_python(graph)
        return self._partition_vectorized(graph)

    def _partition_python(self, graph: CSRGraph) -> EdgePartition:
        raise NotImplementedError

    def _partition_vectorized(self, graph: CSRGraph) -> EdgePartition:
        raise NotImplementedError

