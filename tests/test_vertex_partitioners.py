"""Unit tests for Spinner, ParMETIS-like, XtraPuLP, Sheep, and the
vertex->edge conversion."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_road_network, ring_graph
from repro.partitioners.base import VertexPartition
from repro.partitioners.hashing import RandomPartitioner
from repro.partitioners.metis_like import MetisLikePartitioner
from repro.partitioners.sheep import SheepPartitioner, _min_degree_order
from repro.partitioners.spinner import SpinnerPartitioner
from repro.partitioners.vertex_to_edge import vertex_to_edge_partition
from repro.partitioners.xtrapulp import XtraPuLPPartitioner
from tests.conftest import assert_valid_partition


class TestVertexToEdge:
    def test_internal_edges_stay(self, two_triangles):
        vp = VertexPartition(two_triangles, 2,
                             np.array([0, 0, 0, 1, 1, 1]), method="manual")
        ep = vertex_to_edge_partition(vp)
        # first triangle's edges all -> 0, second's -> 1
        assert ep.assignment[:3].tolist() == [0, 0, 0]
        assert ep.assignment[3:].tolist() == [1, 1, 1]

    def test_cut_edges_pick_an_endpoint_partition(self, path4):
        vp = VertexPartition(path4, 2, np.array([0, 0, 1, 1]), method="manual")
        ep = vertex_to_edge_partition(vp, seed=3)
        # middle edge (1,2) crosses: must land on 0 or 1
        assert ep.assignment[1] in (0, 1)
        assert_valid_partition(ep)

    def test_method_name_tagged(self, triangle):
        vp = VertexPartition(triangle, 1, np.zeros(3, np.int64), method="m")
        ep = vertex_to_edge_partition(vp)
        assert ep.method == "m->edge"

    def test_wrong_assignment_length_rejected(self, triangle):
        with pytest.raises(ValueError):
            VertexPartition(triangle, 2, np.array([0, 1]))


@pytest.mark.parametrize("cls", [SpinnerPartitioner, MetisLikePartitioner,
                                 XtraPuLPPartitioner])
class TestVertexPartitionerContract:
    def test_valid_edge_partition(self, small_rmat, cls):
        assert_valid_partition(cls(8, seed=0).partition(small_rmat))

    def test_vertex_labels_in_range(self, small_rmat, cls):
        vp = cls(8, seed=0).partition_vertices(small_rmat)
        assert vp.assignment.min() >= 0
        assert vp.assignment.max() < 8

    def test_deterministic(self, small_rmat, cls):
        a = cls(4, seed=5).partition_vertices(small_rmat)
        b = cls(4, seed=5).partition_vertices(small_rmat)
        assert np.array_equal(a.assignment, b.assignment)


class TestSpinner:
    def test_locality_on_ring(self):
        """LP on a ring should give contiguous-ish, low-RF partitions."""
        g = CSRGraph(ring_graph(128))
        part = SpinnerPartitioner(4, seed=0).partition(g)
        assert part.replication_factor() < 2.0

    def test_iteration_cap(self, small_rmat):
        part = SpinnerPartitioner(4, seed=0, max_iterations=2).partition_vertices(small_rmat)
        assert part.iterations <= 2


class TestMetisLike:
    def test_coarsening_recorded(self, medium_rmat):
        vp = MetisLikePartitioner(8, seed=0).partition_vertices(medium_rmat)
        assert vp.extra["coarse_levels"] >= 1
        assert vp.extra["coarse_levels_bytes"] > 0

    def test_vertex_counts_balanced(self, medium_rmat):
        vp = MetisLikePartitioner(8, seed=0).partition_vertices(medium_rmat)
        counts = np.bincount(vp.assignment, minlength=8)
        assert counts.max() <= 1.35 * counts.mean()

    def test_excellent_on_road_networks(self):
        """Table 6: ParMETIS RF ~ 1.00 on road networks."""
        g = CSRGraph(grid_road_network(24, 24, seed=0))
        part = MetisLikePartitioner(4, seed=0).partition(g)
        assert part.replication_factor() < 1.25


class TestXtraPuLP:
    def test_good_on_road_networks(self):
        g = CSRGraph(grid_road_network(24, 24, seed=0))
        part = XtraPuLPPartitioner(4, seed=0).partition(g)
        assert part.replication_factor() < 1.6

    def test_bfs_seeding_balanced(self, medium_rmat):
        vp = XtraPuLPPartitioner(8, seed=0).partition_vertices(medium_rmat)
        counts = np.bincount(vp.assignment, minlength=8)
        assert counts.max() <= 2.0 * counts.mean()


class TestSheep:
    def test_valid(self, small_rmat):
        assert_valid_partition(SheepPartitioner(8, seed=0).partition(small_rmat))

    def test_deterministic(self, small_rmat):
        a = SheepPartitioner(8, seed=0).partition(small_rmat)
        b = SheepPartitioner(8, seed=0).partition(small_rmat)
        assert np.array_equal(a.assignment, b.assignment)

    def test_empty_graph(self):
        g = CSRGraph(np.empty((0, 2), dtype=np.int64))
        part = SheepPartitioner(4, seed=0).partition(g)
        assert len(part.assignment) == 0

    def test_min_degree_order_is_permutation(self, medium_rmat):
        rank = _min_degree_order(medium_rmat)
        assert sorted(rank.tolist()) == list(range(medium_rmat.num_vertices))

    @staticmethod
    def _min_degree_order_reference(graph):
        """The ⟨degree, vertex⟩ tuple-heap definition of the
        elimination order, kept verbatim as the pin for the one
        encoded-int heap ``sheep.py`` ships."""
        import heapq
        n = graph.num_vertices
        degree = graph.degrees().astype(np.int64).copy()
        eliminated = np.zeros(n, dtype=bool)
        rank = np.zeros(n, dtype=np.int64)
        heap = [(int(degree[v]), v) for v in range(n)]
        heapq.heapify(heap)
        next_rank = 0
        while heap:
            d, v = heapq.heappop(heap)
            if eliminated[v]:
                continue
            if d != degree[v]:
                heapq.heappush(heap, (int(degree[v]), v))
                continue
            eliminated[v] = True
            rank[v] = next_rank
            next_rank += 1
            for u in graph.neighbors(v):
                if not eliminated[u]:
                    degree[u] -= 1
                    heapq.heappush(heap, (int(degree[u]), int(u)))
        return rank

    def test_min_degree_order_pins_tuple_heap_reference(
            self, medium_rmat, small_rmat, star, path4):
        """The encoded-key flat-array heap must reproduce the
        ⟨degree, vertex⟩ tuple-heap elimination order exactly."""
        for graph in (medium_rmat, small_rmat, star, path4,
                      CSRGraph(ring_graph(37))):
            assert np.array_equal(_min_degree_order(graph),
                                  self._min_degree_order_reference(graph))

    def test_assignments_pinned_before_after(self, medium_rmat):
        """Full-partitioner pin: same assignments as a run driven by
        the reference elimination order."""
        import repro.partitioners.sheep as sheep_mod
        current = SheepPartitioner(8, seed=0).partition(medium_rmat)
        orig = sheep_mod._min_degree_order
        sheep_mod._min_degree_order = self._min_degree_order_reference
        try:
            pinned = SheepPartitioner(8, seed=0).partition(medium_rmat)
        finally:
            sheep_mod._min_degree_order = orig
        assert np.array_equal(current.assignment, pinned.assignment)

    def test_min_degree_order_eliminates_leaves_early(self, star):
        """The hub goes last or second-to-last: once 7 leaves are gone
        its degree drops to 1 and it ties with the final leaf."""
        rank = _min_degree_order(star)
        assert rank[0] >= star.num_vertices - 2
        # the first 7 eliminations are all leaves
        assert all(rank[v] < rank[0] for v in range(1, 8))

    def test_edge_balance_reasonable(self, medium_rmat):
        part = SheepPartitioner(8, seed=0).partition(medium_rmat)
        assert part.edge_balance() < 2.0

    def test_beats_random_on_skewed(self, medium_rmat):
        sheep = SheepPartitioner(16, seed=0).partition(medium_rmat)
        rand = RandomPartitioner(16, seed=0).partition(medium_rmat)
        assert sheep.replication_factor() < rand.replication_factor()
