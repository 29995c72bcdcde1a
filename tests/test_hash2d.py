"""Unit tests for the 2D-hash initial placement."""

import numpy as np
import pytest

from repro.core.hash2d import Hash1DPlacement, Hash2DPlacement
from repro.graph.generators import rmat_edges


class TestHash2DPlacement:
    def test_edges_placed_in_range(self):
        placement = Hash2DPlacement(16, seed=0)
        edges = rmat_edges(8, 4, seed=0)
        homes = placement.place_edges(edges)
        assert homes.min() >= 0
        assert homes.max() < 16

    def test_deterministic(self):
        edges = rmat_edges(8, 4, seed=0)
        a = Hash2DPlacement(16, seed=1).place_edges(edges)
        b = Hash2DPlacement(16, seed=1).place_edges(edges)
        assert np.array_equal(a, b)

    def test_placement_roughly_balanced(self):
        edges = rmat_edges(10, 8, seed=0)
        homes = Hash2DPlacement(16, seed=0).place_edges(edges)
        counts = np.bincount(homes, minlength=16)
        assert counts.min() > 0
        assert counts.max() < 3 * counts.mean()

    def test_replica_processes_cover_edge_homes(self):
        """The metadata property of §4: every edge of v lands on a
        process in v's computable replica set."""
        placement = Hash2DPlacement(16, seed=0)
        edges = rmat_edges(8, 4, seed=1)
        homes = placement.place_edges(edges)
        for eid in range(0, len(edges), 5):
            u, v = map(int, edges[eid])
            assert homes[eid] in placement.replica_processes(u)
            assert homes[eid] in placement.replica_processes(v)

    def test_replica_set_size(self):
        placement = Hash2DPlacement(16, seed=0)  # 4x4 grid
        for v in range(50):
            reps = placement.replica_processes(v)
            assert len(reps) == 4 + 4 - 1
            assert placement.replica_count(v) == 7

    def test_nonsquare_grid(self):
        placement = Hash2DPlacement(8, seed=0)  # 2x4
        assert placement.rows * placement.cols == 8
        for v in range(20):
            assert (len(placement.replica_processes(v))
                    == placement.rows + placement.cols - 1)

    def test_single_process(self):
        placement = Hash2DPlacement(1, seed=0)
        assert placement.replica_processes(5) == [0]


class TestHash1DPlacement:
    def test_replica_set_is_everything(self):
        placement = Hash1DPlacement(8, seed=0)
        assert placement.replica_processes(3) == list(range(8))
        assert placement.replica_count(3) == 8

    def test_edges_scattered(self):
        edges = rmat_edges(9, 4, seed=0)
        homes = Hash1DPlacement(8, seed=0).place_edges(edges)
        counts = np.bincount(homes, minlength=8)
        assert counts.min() > 0.7 * counts.mean()

    def test_wider_fanout_than_2d(self):
        """The ablation's point: 1D placement forces |P| sync fan-out."""
        p1 = Hash1DPlacement(16, seed=0)
        p2 = Hash2DPlacement(16, seed=0)
        assert p1.replica_count(0) > p2.replica_count(0)


@pytest.mark.parametrize("placement_cls", [Hash2DPlacement, Hash1DPlacement])
@pytest.mark.parametrize("procs", [1, 2, 3, 6, 7, 8, 12, 16, 64, 100, 256])
def test_replica_hits_enumerate_the_membership_matrix(placement_cls, procs):
    """``replica_hits`` is ``np.nonzero(replica_membership)`` — vertex-
    major, processes ascending — on square, non-square (2x3, 3x4,
    10x10) and degenerate 1xP (prime |P|) grids, repeats and an empty
    batch included, and agrees with the per-vertex ``replica_processes``.
    Both arrays are int32, the width of the message rows they build."""
    placement = placement_cls(procs, seed=5)
    rng = np.random.default_rng(procs)
    for vs in (rng.integers(0, 10 ** 6, 300), np.array([7, 7, 0]),
               np.empty(0, dtype=np.int64)):
        vidx, dsts = placement.replica_hits(vs)
        expect = np.nonzero(placement.replica_membership(vs))
        assert vidx.dtype == dsts.dtype == np.int32
        assert np.array_equal(vidx, expect[0])
        assert np.array_equal(dsts, expect[1])
    vidx, dsts = placement.replica_hits(np.array([11, 12]))
    assert dsts[vidx == 1].tolist() == placement.replica_processes(12)
