"""Unit tests for Spinner, ParMETIS-like, XtraPuLP, Sheep, and the
vertex->edge conversion."""

import hashlib

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_road_network, ring_graph, rmat_edges
from repro.partitioners.base import VertexPartition
from repro.partitioners.hashing import RandomPartitioner
from repro.partitioners.metis_like import MetisLikePartitioner
from repro.partitioners import spinner
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

    def test_iteration_cap(self, small_rmat, monkeypatch):
        monkeypatch.setattr(spinner, "_MAX_ITERATIONS", 2)
        part = SpinnerPartitioner(4, seed=0).partition_vertices(small_rmat)
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


#: ``method/graph/|P| -> (iterations, SHA-256 of the vertex labels)``
#: at seed 0, recorded before the three loops moved onto the exact label
#: walk (``core/streaming.py::walk_labels``); a change that moves one is
#: a change of results, not of speed.
_LABEL_PINS = {
    "spinner/rmat/4": (14, "709ddc034ce0003f4cdc05b2324357622fe3a5b61485d1dda71975156acbf1b6"),
    "spinner/rmat/16": (30, "619abfb05381fadf4d6f93171d1b0504dedc63c9207536075f53e85f1fa7e1dc"),
    "spinner/rmat/64": (30, "f02dbc14ad0b983fe46a97e7e2b565986b70d2636c73c70fef04dca05974d9ac"),
    "spinner/rmat/256": (30, "d0cea4e48861b4277ec86b744dc9f1db6b8a61b68e6f30fc5c7637daad04d99c"),
    "spinner/road/4": (30, "9010bf618b385d43e331299dc7b3ce8935118f51562cd9364839647255dc10fd"),
    "spinner/road/16": (30, "e5bf50c8be00e98d031b0f1ce7693cc5575f849f33194f4d49d673b7d18bf1a0"),
    "spinner/road/64": (30, "c787aee0a5c9cbc035d5e7490d272d86edc834c4ee5964b0aed3566b0b669297"),
    "spinner/road/256": (30, "82ac35bd937bd7bfde1ec10325b191ca0aa6d1757782df7932d26b49bda98dfa"),
    "xtrapulp/rmat/4": (3, "a5b03eb04a5904d62a7828e3e1e9f59166308980807cbc4b1f7c1c348252f0c6"),
    "xtrapulp/rmat/16": (6, "689dc8fa0bdb577ac087887e09a95ea1ac315c87836909e4b8b28bbba45eb6e2"),
    "xtrapulp/rmat/64": (6, "13d643eb1a7be2b3d5cd1d0b9867775bf620dda5e366103e331a60026561f3d3"),
    "xtrapulp/rmat/256": (6, "f83699786a2ac1ae21e22faa954485d65d885bde9cf4f0ab281b0cece2535650"),
    "xtrapulp/road/4": (3, "d7749ef12fb610cd1e5a2397a6375f5746edbe4f237aabff7d83f4287f50a400"),
    "xtrapulp/road/16": (7, "2bc9685084e9d564e0647d7694481a24465502aa8af62338db1230d3526ee20d"),
    "xtrapulp/road/64": (7, "0097226b4dbc9804bb5fa3e57afd8eb4c5dbfb93ec6fd5ed5e29de697133c0ec"),
    "xtrapulp/road/256": (5, "7ddd40f30f90532c879662b49e85363ec767ad6d53eead0fee1f9597d2cbc747"),
    "metis_like/rmat/4": (9, "76ff84285d8650d42b6dfa3382dac9e78de9a09dc20bebf0403afffa6e0db627"),
    "metis_like/rmat/16": (9, "f7b3c619e4575faf03a2fab8f8b9a94012f1ea9c1e0cf065969ec1fee63a03bf"),
    "metis_like/rmat/64": (5, "433503f00bcffc56136d09d4d8de78cb1fb415f74162beb142059a48712427fc"),
    "metis_like/rmat/256": (1, "f9659fd01a5d7338047cb7ba0b7c8afabb35392a6dc4f4abd227d2cddfb1ce53"),
    "metis_like/road/4": (5, "6a891b4b90299985fc402685d419ce695559c880d155ba48045ef74aa74e7665"),
    "metis_like/road/16": (4, "7a96d82fa582c4198fa561a50e13014f66a394d000ce4862ad44c78f6abe2b69"),
    "metis_like/road/64": (2, "80e01d3070eba4c9c5fe1dfcbb9332ddb9b1a95dd5f680ea4d3591fc1be043b1"),
    "metis_like/road/256": (1, "f6fa5272113c8ceba21c5d0044d4478cc613aa6f9d1e74c5f38965b70baf7316"),
}


class TestLabelWalkPins:
    @pytest.fixture(scope="class")
    def graphs(self):
        return {"rmat": CSRGraph(rmat_edges(10, 8, seed=7)),
                 "road": CSRGraph(grid_road_network(24, 24, seed=0))}

    @pytest.mark.parametrize("key", sorted(_LABEL_PINS))
    def test_assignment_pinned(self, graphs, key):
        name, graph, p = key.split("/")
        cls = {"spinner": SpinnerPartitioner, "xtrapulp": XtraPuLPPartitioner,
                "metis_like": MetisLikePartitioner}[name]
        vp = cls(int(p), seed=0).partition_vertices(graphs[graph])
        digest = hashlib.sha256(
            vp.assignment.astype(np.int64).tobytes()).hexdigest()
        assert (vp.iterations, digest) == _LABEL_PINS[key]


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
