"""Property-based tests of the application engine.

The central invariant: application *outputs* are functions of the
graph only — any valid edge partition must produce identical results.
Hypothesis drives random graphs and random (arbitrary, not just
partitioner-produced) assignments through the engine and cross-checks
against single-machine references computed directly on the graph.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import pagerank, sssp, wcc
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import canonical_edges
from repro.partitioners.base import EdgePartition

SETTINGS = settings(max_examples=20, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

edge_lists = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 20)),
    min_size=1, max_size=80)


def _partition_from(edges_raw, p, seed):
    edges = canonical_edges(np.array(edges_raw, dtype=np.int64))
    if len(edges) == 0:
        return None
    graph = CSRGraph(edges)
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, p, size=graph.num_edges)
    return EdgePartition(graph, p, assignment, method="arbitrary")


def _reference_sssp(graph: CSRGraph, source: int) -> np.ndarray:
    """Textbook BFS distances on the raw graph."""
    dist = np.full(graph.num_vertices, np.inf)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for u in graph.neighbors(v):
                if dist[u] == np.inf:
                    dist[u] = dist[v] + 1
                    nxt.append(int(u))
        frontier = nxt
    return dist


class TestPartitionInvariance:
    @given(edges=edge_lists, p=st.integers(1, 5),
           seed=st.integers(0, 100))
    @SETTINGS
    def test_sssp_matches_bfs_reference(self, edges, p, seed):
        part = _partition_from(edges, p, seed)
        if part is None:
            return
        source = int(part.graph.edges[0, 0])
        dist, _ = sssp(part, source=source)
        ref = _reference_sssp(part.graph, source)
        assert np.array_equal(dist, ref)

    @given(edges=edge_lists, p=st.integers(1, 5),
           seed=st.integers(0, 100))
    @SETTINGS
    def test_wcc_labels_consistent_within_components(self, edges, p, seed):
        part = _partition_from(edges, p, seed)
        if part is None:
            return
        labels, _ = wcc(part)
        # every edge's endpoints share a label
        for u, v in part.graph.edges:
            assert labels[u] == labels[v]

    @given(edges=edge_lists, seed=st.integers(0, 100))
    @SETTINGS
    def test_pagerank_independent_of_assignment(self, edges, seed):
        a = _partition_from(edges, 3, seed)
        b = _partition_from(edges, 4, seed + 1)
        if a is None:
            return
        ra, _ = pagerank(a, iterations=5)
        rb, _ = pagerank(b, iterations=5)
        assert np.allclose(ra, rb, atol=1e-12)

    @given(edges=edge_lists, p=st.integers(1, 5),
           seed=st.integers(0, 100))
    @SETTINGS
    def test_pagerank_mass_conserved(self, edges, p, seed):
        part = _partition_from(edges, p, seed)
        if part is None:
            return
        ranks, _ = pagerank(part, iterations=8)
        assert ranks.sum() == pytest.approx(1.0, abs=1e-9)
        assert (ranks >= 0).all()


class TestCommunicationMonotonicity:
    @given(edges=edge_lists, seed=st.integers(0, 50))
    @SETTINGS
    def test_single_partition_never_communicates(self, edges, seed):
        part = _partition_from(edges, 1, seed)
        if part is None:
            return
        _, stats = pagerank(part, iterations=3)
        assert stats.comm_bytes == 0

    @given(edges=edge_lists, seed=st.integers(0, 50))
    @SETTINGS
    def test_comm_nonnegative_and_bounded(self, edges, seed):
        part = _partition_from(edges, 4, seed)
        if part is None:
            return
        _, stats = wcc(part)
        # Gather+scatter traffic per superstep is bounded by replica
        # placements (each replica sends/receives at most one value).
        placements = sum(len(np.unique(part.assignment[
            part.graph.incident_edge_ids(v)]))
            for v in np.flatnonzero(part.graph.degrees()))
        assert 0 <= stats.comm_bytes <= stats.supersteps * placements * 16
