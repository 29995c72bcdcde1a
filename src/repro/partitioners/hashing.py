"""Hash-based edge partitioners: Random (1D), Grid (2D), DBH, Hybrid.

These are the scalable/low-quality baselines of §2.2 and §7:

* :class:`RandomPartitioner` — 1D hash: each edge uniformly at random.
* :class:`GridPartitioner` — 2D hash: partitions arranged in a
  ``r x c`` grid; an edge goes to the cell addressed by its endpoint
  hashes, which confines each vertex's replicas to one row + column.
  This is also Distributed NE's *initial placement* (§4).
* :class:`DBHPartitioner` — degree-based hashing (Xie et al. [49]):
  hash each edge by its lower-degree endpoint so low-degree vertices
  stay whole and high-degree vertices absorb the cuts.
* :class:`HybridHashPartitioner` — PowerLyra's Hybrid [13]: edges are
  grouped by (a chosen) endpoint; groups of low-degree vertices stay on
  the vertex's hash partition, while edges incident to high-degree
  vertices are scattered by the other endpoint's hash.

All hashes are ``splitmix64``-style integer mixes, deterministic in the
partitioner seed.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partitioners.base import EdgePartition, Partitioner

__all__ = [
    "splitmix64",
    "RandomPartitioner",
    "GridPartitioner",
    "DBHPartitioner",
    "HybridHashPartitioner",
]

#: PowerLyra's low/high-degree cut, shared with Hybrid Ginger
HYBRID_THRESHOLD = 100


def splitmix64(x: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorised splitmix64 finaliser — a high-quality integer mix.

    Operates on (copies of) int64/uint64 arrays; the seed perturbs the
    stream so different runs decorrelate.
    """
    with np.errstate(over="ignore"):  # wraparound is the point of the mix
        z = (np.asarray(x, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
             + np.uint64(seed) * np.uint64(0xBF58476D1CE4E5B9))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


class RandomPartitioner(Partitioner):
    """1D hash: every edge assigned to a uniform random partition."""

    name = "random"

    def _partition(self, graph: CSRGraph) -> EdgePartition:
        h = splitmix64(np.arange(graph.num_edges), seed=self.seed)
        assignment = (h % np.uint64(self.num_partitions)).astype(np.int64)
        return EdgePartition(graph, self.num_partitions, assignment,
                             method=self.name)


def grid_shape(num_partitions: int) -> tuple[int, int]:
    """Factor ``num_partitions`` into the most-square grid ``r x c``."""
    r = int(np.sqrt(num_partitions))
    while num_partitions % r:
        r -= 1
    return r, num_partitions // r


class GridPartitioner(Partitioner):
    """2D hash (Grid / "2D-Random" in the paper).

    Partitions form an ``r x c`` grid; edge ``(u, v)`` goes to cell
    ``(h(u) mod r, h(v) mod c)``.  Every vertex's edges then live in
    one grid row plus one grid column, bounding its replicas by
    ``r + c - 1`` — the property §4 exploits for the initial placement
    (replica locations are computable from the vertex id alone).
    """

    name = "grid"

    def _partition(self, graph: CSRGraph) -> EdgePartition:
        rows, cols = grid_shape(self.num_partitions)
        hu = splitmix64(graph.edges[:, 0], seed=self.seed)
        hv = splitmix64(graph.edges[:, 1], seed=self.seed + 1)
        r = (hu % np.uint64(rows)).astype(np.int64)
        c = (hv % np.uint64(cols)).astype(np.int64)
        assignment = r * cols + c
        return EdgePartition(graph, self.num_partitions, assignment,
                             method=self.name)


class DBHPartitioner(Partitioner):
    """Degree-based hashing: hash each edge by its lower-degree endpoint.

    Ties break toward the smaller vertex id, matching the common
    implementation (and keeping the assignment deterministic).
    """

    name = "dbh"

    def _partition(self, graph: CSRGraph) -> EdgePartition:
        deg = graph.degrees()
        u, v = graph.edges[:, 0], graph.edges[:, 1]
        du, dv = deg[u], deg[v]
        # Canonical edges have u < v, so preferring u on ties is the
        # smaller-id rule.
        pick_u = du <= dv
        key = np.where(pick_u, u, v)
        h = splitmix64(key, seed=self.seed)
        assignment = (h % np.uint64(self.num_partitions)).astype(np.int64)
        return EdgePartition(graph, self.num_partitions, assignment,
                             method=self.name)


class HybridHashPartitioner(Partitioner):
    """PowerLyra's Hybrid hash [13].

    Edges are grouped by their (canonical) grouping endpoint.  If the
    grouping endpoint's degree is below :data:`HYBRID_THRESHOLD` the
    whole group follows that vertex's hash (low-degree vertices are
    never cut); otherwise each edge is scattered by the *other*
    endpoint's hash (high-degree vertices absorb the replication, like
    DBH but with a hard threshold — PowerLyra's default, 100).
    """

    name = "hybrid"

    def _partition(self, graph: CSRGraph) -> EdgePartition:
        deg = graph.degrees()
        u, v = graph.edges[:, 0], graph.edges[:, 1]
        # Group by the lower-degree endpoint (ties toward u, as in DBH).
        group_by_u = deg[u] <= deg[v]
        group = np.where(group_by_u, u, v)
        other = np.where(group_by_u, v, u)
        low_degree = deg[group] < HYBRID_THRESHOLD
        key = np.where(low_degree, group, other)
        h = splitmix64(key, seed=self.seed)
        assignment = (h % np.uint64(self.num_partitions)).astype(np.int64)
        return EdgePartition(graph, self.num_partitions, assignment,
                             method=self.name,
                             extra={"threshold": HYBRID_THRESHOLD})
