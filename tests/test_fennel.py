"""Tests for the FENNEL-based streaming edge partitioner."""

import numpy as np

from repro.partitioners.fennel import FennelEdgePartitioner
from repro.partitioners.hashing import RandomPartitioner
from tests.conftest import assert_valid_partition


class TestFennel:
    def test_valid(self, small_rmat):
        assert_valid_partition(
            FennelEdgePartitioner(8, seed=0).partition(small_rmat))

    def test_deterministic(self, small_rmat):
        a = FennelEdgePartitioner(8, seed=1).partition(small_rmat)
        b = FennelEdgePartitioner(8, seed=1).partition(small_rmat)
        assert np.array_equal(a.assignment, b.assignment)

    def test_beats_random(self, medium_rmat):
        fennel = FennelEdgePartitioner(16, seed=0).partition(medium_rmat)
        rand = RandomPartitioner(16, seed=0).partition(medium_rmat)
        assert fennel.replication_factor() < rand.replication_factor()

    def test_balance_reasonable(self, medium_rmat):
        part = FennelEdgePartitioner(8, seed=0).partition(medium_rmat)
        assert part.edge_balance() < 1.8

    def test_custom_gamma(self, small_rmat, monkeypatch):
        monkeypatch.setattr(FennelEdgePartitioner, "_gamma",
                            lambda self, graph: 0.5)
        part = FennelEdgePartitioner(8, seed=0).partition(small_rmat)
        assert_valid_partition(part)
        assert part.extra["gamma"] == 0.5

    def test_huge_gamma_forces_balance(self, medium_rmat, monkeypatch):
        """A dominant load penalty behaves like round-robin."""
        monkeypatch.setattr(FennelEdgePartitioner, "_gamma",
                            lambda self, graph: 10_000.0)
        part = FennelEdgePartitioner(8, seed=0).partition(medium_rmat)
        assert part.edge_balance() < 1.05

    def test_registered(self):
        from repro.partitioners import PARTITIONER_REGISTRY
        assert "fennel" in PARTITIONER_REGISTRY

    def test_many_partitions_set_path(self, small_rmat):
        part = FennelEdgePartitioner(80, seed=0).partition(small_rmat)
        assert_valid_partition(part)
