"""Unit tests for repro.graph.generators."""

import hashlib

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    complete_graph,
    erdos_renyi,
    grid_road_network,
    powerlaw_chung_lu,
    ring_graph,
    ring_plus_complete,
    rmat_edges,
)


class TestRMAT:
    def test_deterministic_per_seed(self):
        a = rmat_edges(8, 4, seed=3)
        b = rmat_edges(8, 4, seed=3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("scale, edge_factor, seed, a, rows, digest", [
        (10, 8, 0, 0.57, 6015,
         "8373f8d9f8618fba8c2a68e583558c186ac9f60483637769d926719346377f6f"),
        (12, 14, 7, 0.45, 55549,
         "b09ee3546c1156aac22a3b106c3e366fed2d65c6853bf604b9e194978e41b202"),
    ])
    def test_output_is_pinned(self, scale, edge_factor, seed, a, rows,
                              digest):
        """Every recorded result hangs off this exact edge stream (one
        ``rng.random(m)`` draw per bit, then canonicalisation)."""
        edges = rmat_edges(scale, edge_factor, seed=seed, a=a)
        assert edges.shape == (rows, 2) and edges.dtype == np.int64
        assert hashlib.sha256(edges.tobytes()).hexdigest() == digest

    def test_seed_changes_output(self):
        a = rmat_edges(8, 4, seed=3)
        b = rmat_edges(8, 4, seed=4)
        assert not np.array_equal(a, b)

    def test_vertex_ids_in_range(self):
        edges = rmat_edges(7, 4, seed=0)
        assert edges.max() < 2 ** 7
        assert edges.min() >= 0

    def test_canonical_output(self):
        edges = rmat_edges(7, 4, seed=0)
        assert (edges[:, 0] < edges[:, 1]).all()
        assert len(np.unique(edges, axis=0)) == len(edges)

    def test_edge_count_below_nominal(self):
        # dedup + self-loop removal only ever shrinks the count
        edges = rmat_edges(8, 8, seed=1)
        assert len(edges) <= 2 ** 8 * 8

    def test_skewed_degrees(self):
        g = CSRGraph(rmat_edges(10, 8, seed=0))
        deg = g.degrees()
        # RMAT hubs: max degree far above the mean.
        assert deg.max() > 10 * deg[deg > 0].mean()

    def test_no_dedup_keeps_multiplicity(self):
        raw = rmat_edges(6, 8, seed=0, dedup=False)
        assert len(raw) == 2 ** 6 * 8

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            rmat_edges(5, 2, a=0.5, b=0.3, c=0.3)


class TestClassicGraphs:
    def test_ring_size(self):
        edges = ring_graph(10)
        assert len(edges) == 10
        g = CSRGraph(edges)
        assert (g.degrees() == 2).all()

    def test_ring_offset(self):
        edges = ring_graph(5, offset=100)
        assert edges.min() == 100
        assert edges.max() == 104

    def test_ring_too_small(self):
        with pytest.raises(ValueError):
            ring_graph(2)

    def test_complete_edge_count(self):
        edges = complete_graph(6)
        assert len(edges) == 15

    def test_complete_degrees(self):
        g = CSRGraph(complete_graph(5))
        assert (g.degrees() == 4).all()

    def test_complete_too_small(self):
        with pytest.raises(ValueError):
            complete_graph(1)

    def test_ring_plus_complete_structure(self):
        # n=4: K4 (4 vertices, 6 edges) + ring of 6 vertices/6 edges.
        edges = ring_plus_complete(4)
        g = CSRGraph(edges)
        assert g.num_vertices == 10
        assert g.num_edges == 12

    def test_ring_plus_complete_components_disjoint(self):
        edges = ring_plus_complete(5)
        complete_part = edges[(edges[:, 0] < 5) & (edges[:, 1] < 5)]
        ring_part = edges[(edges[:, 0] >= 5) & (edges[:, 1] >= 5)]
        assert len(complete_part) + len(ring_part) == len(edges)


class TestRandomModels:
    def test_erdos_renyi_count(self):
        edges = erdos_renyi(100, 300, seed=0)
        assert 200 < len(edges) <= 300

    def test_erdos_renyi_deterministic(self):
        assert np.array_equal(erdos_renyi(50, 100, seed=2),
                              erdos_renyi(50, 100, seed=2))

    def test_powerlaw_mean_degree_target(self):
        edges = powerlaw_chung_lu(2000, alpha=2.5, mean_degree=8, seed=0)
        g = CSRGraph(edges, num_vertices=2000)
        # dedup shrinks it, but should be within a factor ~2 of target
        assert 2.0 < 2 * g.num_edges / g.num_vertices < 8.5

    def test_powerlaw_skew(self):
        g = CSRGraph(powerlaw_chung_lu(3000, alpha=2.2, seed=1))
        deg = g.degrees()
        assert deg.max() > 20 * np.median(deg[deg > 0])

    def test_powerlaw_bad_alpha(self):
        with pytest.raises(ValueError):
            powerlaw_chung_lu(100, alpha=0.9)


class TestRoadNetwork:
    def test_grid_size(self):
        edges = grid_road_network(5, 7, extra_fraction=0.0)
        # 5*6 horizontal + 4*7 vertical
        assert len(edges) == 5 * 6 + 4 * 7

    def test_low_mean_degree(self):
        g = CSRGraph(grid_road_network(30, 30, seed=0))
        assert 2.0 < 2 * g.num_edges / g.num_vertices < 5.0

    def test_non_skewed(self):
        g = CSRGraph(grid_road_network(30, 30, seed=0))
        assert g.max_degree() <= 8

    def test_too_small(self):
        with pytest.raises(ValueError):
            grid_road_network(1, 5)

    def test_extras_add_edges(self):
        plain = grid_road_network(10, 10, extra_fraction=0.0, seed=0)
        extra = grid_road_network(10, 10, extra_fraction=0.5, seed=0)
        assert len(extra) > len(plain)
