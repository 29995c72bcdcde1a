"""Unit tests for Oblivious, HDRF, and Hybrid Ginger."""

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partitioners import ginger, hdrf
from repro.partitioners.base import StreamingEdgePartitioner
from repro.partitioners.ginger import HybridGingerPartitioner
from repro.partitioners.hashing import HybridHashPartitioner, RandomPartitioner
from repro.partitioners.hdrf import HDRFPartitioner
from repro.partitioners.oblivious import ObliviousPartitioner, _least_loaded
from tests.conftest import assert_valid_partition


class TestLeastLoaded:
    def test_picks_minimum(self):
        loads = np.array([5, 1, 3])
        assert _least_loaded({0, 1, 2}, loads) == 1

    def test_tie_breaks_to_smaller_id(self):
        loads = np.array([2, 2, 2])
        assert _least_loaded({2, 0, 1}, loads) == 0

    def test_subset_only(self):
        loads = np.array([0, 9, 1])
        assert _least_loaded({1, 2}, loads) == 2


class TestOblivious:
    def test_valid(self, small_rmat):
        assert_valid_partition(ObliviousPartitioner(8, seed=0).partition(small_rmat))

    def test_deterministic(self, small_rmat):
        a = ObliviousPartitioner(8, seed=1).partition(small_rmat)
        b = ObliviousPartitioner(8, seed=1).partition(small_rmat)
        assert np.array_equal(a.assignment, b.assignment)

    def test_beats_random(self, medium_rmat):
        obli = ObliviousPartitioner(16, seed=0).partition(medium_rmat)
        rand = RandomPartitioner(16, seed=0).partition(medium_rmat)
        assert obli.replication_factor() < rand.replication_factor()

    def test_intersection_rule(self):
        """An edge whose endpoints already share a partition joins it."""
        g = CSRGraph(np.array([[0, 1], [1, 2], [0, 2]]))
        obli = ObliviousPartitioner(4, seed=0)
        first, second, third = obli.stream_order(3)
        # The triangle's last streamed edge finds both endpoints
        # replicated and must land on a partition an earlier edge used.
        a = obli.partition(g).assignment
        assert a[third] in {a[first], a[second]}

    def test_no_shuffle_processes_in_order(self, small_rmat, monkeypatch):
        """The seed only orders the stream: in canonical order, two
        seeds place every edge alike."""
        monkeypatch.setattr(StreamingEdgePartitioner, "stream_order",
                            lambda self, m: np.arange(m))
        a = ObliviousPartitioner(8, seed=1).partition(small_rmat)
        b = ObliviousPartitioner(8, seed=2).partition(small_rmat)
        assert np.array_equal(a.assignment, b.assignment)


class TestHDRF:
    def test_valid(self, small_rmat):
        assert_valid_partition(HDRFPartitioner(8, seed=0).partition(small_rmat))

    def test_deterministic(self, small_rmat):
        a = HDRFPartitioner(8, seed=1).partition(small_rmat)
        b = HDRFPartitioner(8, seed=1).partition(small_rmat)
        assert np.array_equal(a.assignment, b.assignment)

    def test_beats_random(self, medium_rmat):
        hdrf = HDRFPartitioner(16, seed=0).partition(medium_rmat)
        rand = RandomPartitioner(16, seed=0).partition(medium_rmat)
        assert hdrf.replication_factor() < rand.replication_factor()

    def test_balance_is_tight(self, medium_rmat):
        """The C_bal term keeps HDRF extremely edge-balanced."""
        part = HDRFPartitioner(8, seed=0).partition(medium_rmat)
        assert part.edge_balance() < 1.05

    def test_lambda_zero_ignores_balance(self, small_rmat, monkeypatch):
        monkeypatch.setattr(hdrf, "_LAM", 0.0)
        part = HDRFPartitioner(8, seed=0).partition(small_rmat)
        assert_valid_partition(part)
        assert part.extra["lambda"] == 0.0

    def test_higher_lambda_improves_balance(self, medium_rmat, monkeypatch):
        monkeypatch.setattr(hdrf, "_LAM", 0.1)
        loose = HDRFPartitioner(8, seed=0).partition(medium_rmat)
        monkeypatch.setattr(hdrf, "_LAM", 5.0)
        tight = HDRFPartitioner(8, seed=0).partition(medium_rmat)
        assert tight.edge_balance() <= loose.edge_balance() + 0.05

    def test_many_partitions_set_fallback(self, small_rmat):
        """> 64 partitions exercises the set-based replica path."""
        part = HDRFPartitioner(96, seed=0).partition(small_rmat)
        assert_valid_partition(part)


class TestHybridGinger:
    def test_valid(self, small_rmat):
        assert_valid_partition(
            HybridGingerPartitioner(8, seed=0).partition(small_rmat))

    def test_deterministic(self, small_rmat):
        a = HybridGingerPartitioner(8, seed=1).partition(small_rmat)
        b = HybridGingerPartitioner(8, seed=1).partition(small_rmat)
        assert np.array_equal(a.assignment, b.assignment)

    def test_refinement_not_worse_than_hybrid(self, medium_rmat):
        """Ginger rounds should improve (or at least not regress) the
        plain Hybrid hash's replication factor."""
        hybrid = HybridHashPartitioner(8, seed=0).partition(medium_rmat)
        ginger = HybridGingerPartitioner(8, seed=0).partition(medium_rmat)
        assert (ginger.replication_factor()
                <= hybrid.replication_factor() * 1.02)

    def test_zero_rounds_equals_hybrid(self, small_rmat, monkeypatch):
        monkeypatch.setattr(ginger, "_ROUNDS", 0)
        hybrid = HybridHashPartitioner(8, seed=0).partition(small_rmat)
        part = HybridGingerPartitioner(8, seed=0).partition(small_rmat)
        assert np.array_equal(hybrid.assignment, part.assignment)

    def test_records_moved_groups(self, medium_rmat):
        part = HybridGingerPartitioner(8, seed=0).partition(medium_rmat)
        assert "moved_groups" in part.extra
