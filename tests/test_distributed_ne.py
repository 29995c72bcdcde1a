"""Integration-level tests of the DistributedNE partitioner."""

import numpy as np
import pytest

from repro.core import DistributedNE
from repro.graph.csr import CSRGraph
from repro.graph.generators import ring_graph, ring_plus_complete, rmat_edges
from repro.metrics.bounds import theorem1_upper_bound
from repro.partitioners.hashing import GridPartitioner, RandomPartitioner
from tests.conftest import assert_valid_partition


class TestBasics:
    def test_valid_partition(self, small_rmat):
        assert_valid_partition(DistributedNE(8, seed=0).partition(small_rmat))

    def test_deterministic(self, small_rmat):
        a = DistributedNE(8, seed=3).partition(small_rmat)
        b = DistributedNE(8, seed=3).partition(small_rmat)
        assert np.array_equal(a.assignment, b.assignment)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DistributedNE(4, alpha=0.5)
        with pytest.raises(ValueError):
            DistributedNE(4, lam=0.0)
        with pytest.raises(ValueError):
            DistributedNE(4, lam=1.5)
        with pytest.raises(ValueError):
            DistributedNE(4, placement="3d")
        with pytest.raises(ValueError):
            DistributedNE(4, seed_strategy="magic")

    def test_single_partition(self, small_rmat):
        part = DistributedNE(1, seed=0).partition(small_rmat)
        assert part.replication_factor() == pytest.approx(1.0)

    def test_tiny_graph(self, triangle):
        part = DistributedNE(2, seed=0).partition(triangle)
        assert_valid_partition(part)

    def test_disconnected_components(self, two_triangles):
        part = DistributedNE(2, seed=0).partition(two_triangles)
        assert_valid_partition(part)

    def test_extra_metadata_present(self, small_rmat):
        part = DistributedNE(4, seed=0).partition(small_rmat)
        for key in ("lambda", "alpha", "cluster", "mem_score",
                    "selection_share", "load_seconds"):
            assert key in part.extra
        assert part.iterations > 0
        assert part.extra["cluster"]["barriers"] == 3 * part.iterations


class TestQuality:
    def test_beats_hashing(self, medium_rmat):
        """The headline claim: D.NE produces far better partitions than
        hash methods."""
        dne = DistributedNE(16, seed=0).partition(medium_rmat)
        rand = RandomPartitioner(16, seed=0).partition(medium_rmat)
        grid = GridPartitioner(16, seed=0).partition(medium_rmat)
        assert dne.replication_factor() < 0.75 * rand.replication_factor()
        assert dne.replication_factor() < grid.replication_factor()

    def test_edge_balance_near_alpha(self, medium_rmat):
        part = DistributedNE(8, seed=0, alpha=1.1).partition(medium_rmat)
        # Constraint is per-partition <= alpha * |E|/|P| (plus the final
        # iteration's overshoot, bounded by one multi-expansion batch).
        assert part.edge_balance() < 1.5

    def test_ring_near_perfect(self):
        g = CSRGraph(ring_graph(256))
        part = DistributedNE(4, seed=0).partition(g)
        assert part.replication_factor() < 1.3


class TestTheorem1Holds:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("p", [2, 8])
    def test_rf_below_upper_bound_rmat(self, seed, p):
        g = CSRGraph(rmat_edges(8, 4, seed=seed))
        part = DistributedNE(p, seed=seed).partition(g)
        covered = int(np.count_nonzero(g.degrees()))
        ub = theorem1_upper_bound(covered, g.num_edges, p)
        assert part.replication_factor() <= ub + 1e-9

    def test_rf_below_upper_bound_ring_complete(self):
        g = CSRGraph(ring_plus_complete(5))
        p = 10
        part = DistributedNE(p, seed=0).partition(g)
        covered = int(np.count_nonzero(g.degrees()))
        ub = theorem1_upper_bound(covered, g.num_edges, p)
        assert part.replication_factor() <= ub + 1e-9


class TestMultiExpansion:
    def test_lambda_reduces_iterations(self, medium_rmat):
        """Figure 6's x-axis trend."""
        slow = DistributedNE(8, seed=0, lam=0.01).partition(medium_rmat)
        fast = DistributedNE(8, seed=0, lam=1.0).partition(medium_rmat)
        assert fast.iterations < slow.iterations

    def test_lambda_one_few_iterations(self, medium_rmat):
        """Paper: lambda=1 -> iterations < ~10 on every dataset."""
        part = DistributedNE(8, seed=0, lam=1.0).partition(medium_rmat)
        assert part.iterations <= 30

    def test_lambda_one_hurts_quality(self, medium_rmat):
        """Figure 6's y-axis trend: full flush degrades RF."""
        lam01 = DistributedNE(8, seed=0, lam=0.1).partition(medium_rmat)
        lam1 = DistributedNE(8, seed=0, lam=1.0).partition(medium_rmat)
        assert lam01.replication_factor() < lam1.replication_factor()


class TestAblations:
    def test_two_hop_improves_quality(self, medium_rmat):
        with_2hop = DistributedNE(8, seed=0, two_hop=True).partition(medium_rmat)
        without = DistributedNE(8, seed=0, two_hop=False).partition(medium_rmat)
        assert (with_2hop.replication_factor()
                <= without.replication_factor() + 0.05)

    def test_1d_placement_more_traffic(self, small_rmat):
        """2D placement bounds the sync fan-out; 1D multicasts wider."""
        d2 = DistributedNE(8, seed=0, placement="2d").partition(small_rmat)
        d1 = DistributedNE(8, seed=0, placement="1d").partition(small_rmat)
        assert (d1.extra["cluster"]["total_messages"]
                > d2.extra["cluster"]["total_messages"])

    def test_min_degree_seeding_runs(self, small_rmat):
        part = DistributedNE(8, seed=0,
                             seed_strategy="min_degree").partition(small_rmat)
        assert_valid_partition(part)

    def test_max_iterations_valve(self, medium_rmat):
        part = DistributedNE(8, seed=0, lam=0.01,
                             max_iterations=3).partition(medium_rmat)
        assert part.iterations <= 3
        assert_valid_partition(part)  # leftovers swept

    def test_max_iterations_below_one_rejected(self, medium_rmat):
        """0 used to mean "unbounded" and a negative value "one
        iteration"; both are configuration errors."""
        for bad in (0, -1):
            with pytest.raises(ValueError, match="max_iterations"):
                DistributedNE(8, seed=0, max_iterations=bad)
        one = DistributedNE(8, seed=0, lam=0.01,
                            max_iterations=1).partition(medium_rmat)
        assert one.iterations == 1


class TestAccountingShape:
    def test_mem_score_scale_invariant(self):
        """Bytes/edge should be roughly flat across graph sizes (the
        CSR-dominated memory profile of Figure 9)."""
        small = CSRGraph(rmat_edges(8, 8, seed=0))
        large = CSRGraph(rmat_edges(11, 8, seed=0))
        ms_small = DistributedNE(4, seed=0).partition(small).extra["mem_score"]
        ms_large = DistributedNE(4, seed=0).partition(large).extra["mem_score"]
        assert ms_large < 2.5 * ms_small

    def test_communication_nonzero_multi_machine(self, small_rmat):
        part = DistributedNE(8, seed=0).partition(small_rmat)
        assert part.extra["cluster"]["total_bytes"] > 0
