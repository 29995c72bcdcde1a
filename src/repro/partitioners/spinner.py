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
at convergence (few moves) or after ``_MAX_ITERATIONS`` passes.  The
passes are the exact label walk :func:`repro.core.streaming.walk_labels`.
"""

from __future__ import annotations

import numpy as np

from repro.core.streaming import walk_labels
from repro.graph.csr import CSRGraph
from repro.partitioners.base import Partitioner, VertexPartition
from repro.partitioners.vertex_to_edge import vertex_to_edge_partition

__all__ = ["SpinnerPartitioner"]

#: the scoring's ``c_f`` and ``c``, the pass cap, and the settled share
#: of vertices (moves per pass) that ends the walk early
_CAPACITY_FACTOR = 1.05
_BALANCE_WEIGHT = 0.5
_MAX_ITERATIONS = 30
_CONVERGENCE_FRACTION = 0.001


class SpinnerPartitioner(Partitioner):
    """Label-propagation vertex partitioning with random initialisation."""

    name = "spinner"

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
        capacity = max(1.0, _CAPACITY_FACTOR * total_degree / k)

        iterations = walk_labels(
            graph.indptr, graph.indices, labels, degrees, k, capacity, rng,
            _MAX_ITERATIONS,
            settle=_CONVERGENCE_FRACTION * graph.num_vertices,
            balance=lambda load: _BALANCE_WEIGHT * (1.0 - load / capacity))
        return VertexPartition(graph, k, labels, method=self.name,
                               iterations=iterations)
