"""Spinner — label-propagation vertex partitioner (Martella et al. [36]).

Spinner initialises every vertex with a *random* partition label and
then runs capacity-constrained label propagation: each vertex prefers
the label most frequent among its neighbours, discounted by how loaded
that label already is.  The random initialisation is exactly why the
paper classifies Spinner with the hash-based family — the refinement
cannot fully undo the random start on skewed graphs.

Implementation follows the paper's scoring::

    score(v, l) = w(v, l) / deg(v)  +  c * (1 - load(l) / capacity)

where ``w(v, l)`` counts v's neighbours with label ``l``, ``capacity``
is the balanced per-label degree budget ``c_f * total_degree / k``, and
moves into labels that are over capacity are rejected.  Iteration stops
at convergence (few moves) or ``max_iterations``.  The passes are
the exact label walk :func:`repro.core.streaming.walk_labels`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.streaming import walk_labels
from repro.graph.csr import CSRGraph
from repro.partitioners.base import Partitioner, VertexPartition
from repro.partitioners.vertex_to_edge import vertex_to_edge_partition

__all__ = ["SpinnerPartitioner"]


class SpinnerPartitioner(Partitioner):
    """Label-propagation vertex partitioning with random initialisation."""

    name = "spinner"

    def __init__(self, num_partitions: int, seed: int = 0,
                 max_iterations: int = 30, capacity_factor: float = 1.05,
                 balance_weight: float = 0.5,
                 convergence_fraction: float = 0.001):
        super().__init__(num_partitions, seed)
        if not math.isfinite(balance_weight):
            raise ValueError("balance_weight must be finite")
        if not (math.isfinite(capacity_factor) and capacity_factor > 0):
            raise ValueError("capacity_factor must be finite and > 0")
        self.max_iterations = max_iterations
        self.capacity_factor = capacity_factor
        self.balance_weight = balance_weight
        self.convergence_fraction = convergence_fraction

    # The public ``partition`` returns the §7.1-converted edge partition;
    # ``partition_vertices`` exposes the raw vertex labels.
    def _partition(self, graph: CSRGraph):
        vp = self.partition_vertices(graph)
        return vertex_to_edge_partition(vp, seed=self.seed)

    def partition_vertices(self, graph: CSRGraph) -> VertexPartition:
        k = self.num_partitions
        rng = np.random.default_rng(self.seed)
        labels = rng.integers(0, k, size=graph.num_vertices).astype(np.int64)
        degrees = graph.degrees().astype(np.int64)
        total_degree = int(degrees.sum())
        capacity = max(1.0, self.capacity_factor * total_degree / k)

        bw = self.balance_weight
        iterations = walk_labels(
            graph.indptr, graph.indices, labels, degrees, k, capacity, rng,
            self.max_iterations,
            settle=self.convergence_fraction * graph.num_vertices,
            balance=lambda load: bw * (1.0 - load / capacity))
        return VertexPartition(graph, k, labels, method=self.name,
                               iterations=iterations)
