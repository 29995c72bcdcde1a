"""Unit tests for sequential NE and streaming SNE."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import ring_graph
from repro.partitioners import sne as sne_module
from repro.partitioners.hashing import RandomPartitioner
from repro.partitioners.hdrf import HDRFPartitioner
from repro.partitioners.ne import ExpansionState, NEPartitioner
from repro.partitioners.sne import SNEPartitioner
from tests.conftest import assert_valid_partition


class TestExpansionState:
    def test_initial_rest_degree(self, triangle):
        state = ExpansionState(triangle, np.random.default_rng(0))
        assert state.rest_degree.tolist() == [2, 2, 2]
        assert state.unallocated == 3

    def test_allocate_edge_updates_degrees(self, triangle):
        state = ExpansionState(triangle, np.random.default_rng(0))
        state.allocate_edge(0, 0)  # edge (0,1)
        assert state.rest_degree[0] == 1
        assert state.rest_degree[1] == 1
        assert state.unallocated == 2

    def test_boundary_pop_min(self, path4):
        state = ExpansionState(path4, np.random.default_rng(0))
        state.push_boundary(0)  # degree 1
        state.push_boundary(1)  # degree 2
        assert state.pop_min_boundary() == 0

    def test_boundary_skips_exhausted(self, path4):
        state = ExpansionState(path4, np.random.default_rng(0))
        state.push_boundary(0)
        state.allocate_edge(0, 0)  # (0,1): vertex 0 now has Drest 0
        assert state.pop_min_boundary() is None

    def test_boundary_reorders_stale_scores(self, star):
        state = ExpansionState(star, np.random.default_rng(0))
        state.push_boundary(0)  # hub, Drest 8
        state.push_boundary(1)  # leaf, Drest 1
        # Allocate most hub edges: hub score drops to 1 but entry is stale.
        for eid in range(7):
            state.allocate_edge(eid, 0)
        popped = state.pop_min_boundary()
        assert popped in (0, 8)  # leaf 8's edge or hub — both Drest 1 now

    def test_random_seed_vertex_skips_done(self, path4):
        state = ExpansionState(path4, np.random.default_rng(0))
        for eid in range(3):
            state.allocate_edge(eid, 0)
        assert state.random_seed_vertex() is None

    def test_expand_vertex_allocates_one_hop(self, star):
        state = ExpansionState(star, np.random.default_rng(0))
        state.begin_partition()
        allocated = state.expand_vertex(0, 0, limit=100, allocated=0)
        assert allocated == 8
        assert state.unallocated == 0

    def test_expand_vertex_respects_limit(self, star):
        state = ExpansionState(star, np.random.default_rng(0))
        state.begin_partition()
        allocated = state.expand_vertex(0, 0, limit=3, allocated=0)
        assert allocated == 3
        assert state.unallocated == 5

    def test_two_hop_rule_allocates_closure(self, triangle):
        """Expanding vertex 0 of K3 allocates (0,1),(0,2) one-hop and
        (1,2) via Condition 5."""
        state = ExpansionState(triangle, np.random.default_rng(0))
        state.begin_partition()
        allocated = state.expand_vertex(0, 0, limit=100, allocated=0)
        assert allocated == 3
        assert state.unallocated == 0


class TestNEPartitioner:
    def test_valid(self, small_rmat):
        assert_valid_partition(NEPartitioner(8, seed=0).partition(small_rmat))

    def test_deterministic(self, small_rmat):
        a = NEPartitioner(8, seed=1).partition(small_rmat)
        b = NEPartitioner(8, seed=1).partition(small_rmat)
        assert np.array_equal(a.assignment, b.assignment)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            NEPartitioner(4, alpha=0.9)

    def test_balance_respects_alpha(self, medium_rmat):
        part = NEPartitioner(8, seed=0, alpha=1.1).partition(medium_rmat)
        limit = 1.1 * medium_rmat.num_edges / 8
        counts = np.bincount(part.assignment, minlength=8)
        # +max-degree slack: the final expand step may overshoot by one
        # vertex's edges before the cap check, as in the paper.
        assert counts.max() <= limit + medium_rmat.max_degree()

    def test_quality_beats_hash_and_streaming(self, medium_rmat):
        """NE is the quality reference point (Table 4)."""
        ne = NEPartitioner(16, seed=0).partition(medium_rmat)
        rand = RandomPartitioner(16, seed=0).partition(medium_rmat)
        hdrf = HDRFPartitioner(16, seed=0).partition(medium_rmat)
        assert ne.replication_factor() < rand.replication_factor()
        assert ne.replication_factor() < hdrf.replication_factor()

    def test_ring_is_nearly_perfect(self):
        """Expansion on a ring yields contiguous arcs: RF ~ 1."""
        g = CSRGraph(ring_graph(64))
        part = NEPartitioner(4, seed=0).partition(g)
        assert part.replication_factor() < 1.25

    def test_single_partition(self, small_rmat):
        part = NEPartitioner(1, seed=0).partition(small_rmat)
        assert part.replication_factor() == pytest.approx(1.0)


class TestSNEPartitioner:
    def test_valid(self, small_rmat):
        assert_valid_partition(SNEPartitioner(8, seed=0).partition(small_rmat))

    def test_deterministic(self, small_rmat):
        a = SNEPartitioner(8, seed=1).partition(small_rmat)
        b = SNEPartitioner(8, seed=1).partition(small_rmat)
        assert np.array_equal(a.assignment, b.assignment)

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="alpha must be >= 1.0"):
            SNEPartitioner(4, alpha=0.9)

    @pytest.mark.parametrize("option, value", [
        ("backend", "processes"), ("workers", 2), ("step_timeout", 1.0),
        ("max_retries", 1), ("fault_plan", None), ("tracer", None)])
    def test_execution_plane_options_are_not_taken(self, option, value):
        """SNE is a sequential baseline run in-process: none of the
        execution-plane options Distributed NE takes reaches it, so
        passing one is an error naming it, not a silent no-op."""
        with pytest.raises(TypeError, match=option):
            SNEPartitioner(4, **{option: value})

    def test_quality_between_hash_and_ne(self, medium_rmat):
        """Table 4's shape: SNE lands in NE's quality class (within
        ~30% either way — at laptop scale the two can swap by seed) and
        far below random hashing."""
        ne = NEPartitioner(16, seed=0).partition(medium_rmat)
        sne = SNEPartitioner(16, seed=0).partition(medium_rmat)
        rand = RandomPartitioner(16, seed=0).partition(medium_rmat)
        ratio = sne.replication_factor() / ne.replication_factor()
        assert 0.7 < ratio < 1.3
        assert sne.replication_factor() < 0.6 * rand.replication_factor()

    def test_huge_buffer_approaches_ne_quality(self, medium_rmat,
                                               monkeypatch):
        """With the whole graph buffered, SNE sees what NE sees."""
        monkeypatch.setattr(sne_module, "_BUFFER_FACTOR", 100.0)
        sne = SNEPartitioner(8, seed=0).partition(medium_rmat)
        ne = NEPartitioner(8, seed=0).partition(medium_rmat)
        assert sne.replication_factor() < ne.replication_factor() * 1.5

    def test_tiny_buffer_still_covers(self, small_rmat, monkeypatch):
        monkeypatch.setattr(sne_module, "_BUFFER_FACTOR", 0.1)
        part = SNEPartitioner(8, seed=0).partition(small_rmat)
        assert_valid_partition(part)
