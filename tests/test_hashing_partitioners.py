"""Unit tests for the hash-based partitioners (Random/Grid/DBH/Hybrid)."""

import numpy as np
import pytest

from repro.partitioners import hashing
from repro.partitioners.hashing import (
    DBHPartitioner,
    GridPartitioner,
    HybridHashPartitioner,
    RandomPartitioner,
    grid_shape,
    splitmix64,
)
from tests.conftest import assert_valid_partition


class TestSplitmix:
    def test_deterministic(self):
        x = np.arange(100)
        assert np.array_equal(splitmix64(x, 1), splitmix64(x, 1))

    def test_seed_decorrelates(self):
        x = np.arange(100)
        assert not np.array_equal(splitmix64(x, 1), splitmix64(x, 2))

    def test_rough_uniformity(self):
        h = splitmix64(np.arange(100_000)) % np.uint64(16)
        counts = np.bincount(h.astype(np.int64), minlength=16)
        assert counts.min() > 0.8 * counts.mean()


class TestGridShape:
    def test_perfect_square(self):
        assert grid_shape(16) == (4, 4)

    def test_non_square(self):
        r, c = grid_shape(12)
        assert r * c == 12
        assert r in (3, 4)

    def test_prime(self):
        assert grid_shape(7) == (1, 7)

    def test_one(self):
        assert grid_shape(1) == (1, 1)


class TestHashPartitioners:
    @pytest.mark.parametrize("cls", [RandomPartitioner, GridPartitioner,
                                     DBHPartitioner, HybridHashPartitioner])
    def test_valid_partition(self, small_rmat, cls):
        assert_valid_partition(cls(8, seed=0).partition(small_rmat))

    @pytest.mark.parametrize("cls", [RandomPartitioner, GridPartitioner,
                                     DBHPartitioner, HybridHashPartitioner])
    def test_deterministic(self, small_rmat, cls):
        a = cls(8, seed=3).partition(small_rmat)
        b = cls(8, seed=3).partition(small_rmat)
        assert np.array_equal(a.assignment, b.assignment)

    @pytest.mark.parametrize("cls", [RandomPartitioner, GridPartitioner,
                                     DBHPartitioner])
    def test_seed_changes_assignment(self, small_rmat, cls):
        a = cls(8, seed=1).partition(small_rmat)
        b = cls(8, seed=2).partition(small_rmat)
        assert not np.array_equal(a.assignment, b.assignment)

    def test_single_partition(self, small_rmat):
        part = RandomPartitioner(1).partition(small_rmat)
        assert (part.assignment == 0).all()
        assert part.replication_factor() == pytest.approx(1.0)

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            RandomPartitioner(0)

    def test_random_roughly_balanced(self, medium_rmat):
        part = RandomPartitioner(8, seed=0).partition(medium_rmat)
        assert part.edge_balance() < 1.15


class TestGridProperties:
    def test_replicas_confined_to_row_and_column(self, medium_rmat):
        """The 2D-hash property: every vertex's edges live in at most
        rows + cols - 1 partitions."""
        p = 16
        part = GridPartitioner(p, seed=0).partition(medium_rmat)
        rows, cols = grid_shape(p)
        limit = rows + cols - 1
        g = medium_rmat
        for v in range(0, g.num_vertices, 7):
            eids = g.incident_edge_ids(v)
            if len(eids) == 0:
                continue
            assert len(set(part.assignment[eids].tolist())) <= limit

    def test_grid_rf_below_random(self, medium_rmat):
        grid = GridPartitioner(16, seed=0).partition(medium_rmat)
        rand = RandomPartitioner(16, seed=0).partition(medium_rmat)
        assert grid.replication_factor() < rand.replication_factor()


class TestDBHProperties:
    def test_low_degree_vertices_rarely_cut(self, medium_rmat):
        """DBH: vertices of degree 1 are never replicated (their single
        edge is hashed by them unless the other endpoint has lower
        degree, and degree 1 is minimal)."""
        part = DBHPartitioner(16, seed=0).partition(medium_rmat)
        g = medium_rmat
        deg = g.degrees()
        for v in np.flatnonzero(deg == 1)[:50]:
            eids = g.incident_edge_ids(v)
            assert len(set(part.assignment[eids].tolist())) == 1

    def test_dbh_beats_random(self, medium_rmat):
        dbh = DBHPartitioner(16, seed=0).partition(medium_rmat)
        rand = RandomPartitioner(16, seed=0).partition(medium_rmat)
        assert dbh.replication_factor() < rand.replication_factor()


class TestHybridProperties:
    def test_low_threshold_equals_scatter_everything(self, small_rmat,
                                                      monkeypatch):
        """threshold=1 means every group endpoint is 'high degree'."""
        monkeypatch.setattr(hashing, "HYBRID_THRESHOLD", 1)
        part = HybridHashPartitioner(8, seed=0).partition(small_rmat)
        assert_valid_partition(part)

    def test_huge_threshold_groups_by_low_endpoint(self, small_rmat,
                                                   monkeypatch):
        """With threshold > max degree, Hybrid == group-by-low-degree-
        endpoint hashing (every edge follows its grouping vertex)."""
        monkeypatch.setattr(hashing, "HYBRID_THRESHOLD", 10 ** 9)
        part = HybridHashPartitioner(8, seed=0).partition(small_rmat)
        g = small_rmat
        deg = g.degrees()
        u, v = g.edges[:, 0], g.edges[:, 1]
        group = np.where(deg[u] <= deg[v], u, v)
        from repro.partitioners.hashing import splitmix64 as mix
        expected = (mix(group, seed=0) % np.uint64(8)).astype(np.int64)
        assert np.array_equal(part.assignment, expected)
