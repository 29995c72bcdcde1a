"""Golden equivalence pins for the streaming-partitioner substrate.

Every baseline refactored onto :mod:`repro.core.streaming` ships two
kernels — the chunked/vectorized driver and the per-edge (or
per-group) reference loop kept verbatim — and this suite pins each
pair bit-identical: same ``assignment`` array (hence same replication
factor), same final per-partition loads, across |P| ∈ {3, 64, 65}
(dense membership, the dense/packed boundary, and auto-packed
bitsets), shuffle on/off, and HDRF's partial-degree mode.  A
conflict-flood case (many edges sharing endpoints inside one scoring
window) stresses the collision clipping and the tail walker's
staleness tracking, and a drift-prone near-tie case stresses the
loads-delta reconstruction.
"""

import numpy as np
import pytest

from repro.core.allocation import DenseMembership, PackedMembership
from repro.core.streaming import (
    DEFAULT_CHUNK,
    EdgeStreamScorer,
    StreamingState,
    run_chunked_stream,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_edges
from repro.partitioners.fennel import FennelEdgePartitioner
from repro.partitioners.ginger import HybridGingerPartitioner
from repro.partitioners.hdrf import HDRFPartitioner

PARTITION_COUNTS = (3, 64, 65)


def _pin(cls, graph, p, **kwargs):
    vec = cls(p, kernel="vectorized", **kwargs).partition(graph)
    ref = cls(p, kernel="python", **kwargs).partition(graph)
    assert np.array_equal(vec.assignment, ref.assignment), (
        f"{cls.name} kernels diverge at |P|={p} {kwargs}")
    assert np.array_equal(np.bincount(vec.assignment, minlength=p),
                          np.bincount(ref.assignment, minlength=p))
    return vec, ref


@pytest.fixture(scope="module")
def stream_graph() -> CSRGraph:
    """~6k-edge RMAT graph — big enough for multi-window streams."""
    return CSRGraph(rmat_edges(10, 8, seed=7))


@pytest.fixture(scope="module")
def conflict_graph() -> CSRGraph:
    """Conflict flood: a few hub vertices cover most edges, so almost
    every scoring window is dense with shared endpoints."""
    rng = np.random.default_rng(3)
    hubs = rng.integers(0, 8, size=(4000, 1))
    others = rng.integers(0, 400, size=(4000, 1))
    return CSRGraph(np.concatenate([hubs, 8 + others], axis=1))


class TestHDRF:
    @pytest.mark.parametrize("p", PARTITION_COUNTS)
    @pytest.mark.parametrize("shuffle", [True, False])
    def test_pinned(self, stream_graph, p, shuffle):
        _pin(HDRFPartitioner, stream_graph, p, seed=1, shuffle=shuffle)

    @pytest.mark.parametrize("p", PARTITION_COUNTS)
    @pytest.mark.parametrize("shuffle", [True, False])
    def test_pinned_partial_degrees(self, stream_graph, p, shuffle):
        _pin(HDRFPartitioner, stream_graph, p, seed=1, shuffle=shuffle,
             use_partial_degrees=True)

    def test_conflict_flood(self, conflict_graph):
        for p in PARTITION_COUNTS:
            _pin(HDRFPartitioner, conflict_graph, p, seed=0)

    def test_extra_metadata_matches(self, stream_graph):
        vec, ref = _pin(HDRFPartitioner, stream_graph, 8, seed=2, lam=0.7)
        assert vec.extra == ref.extra


class TestFennel:
    @pytest.mark.parametrize("p", PARTITION_COUNTS)
    @pytest.mark.parametrize("shuffle", [True, False])
    def test_pinned(self, stream_graph, p, shuffle):
        _pin(FennelEdgePartitioner, stream_graph, p, seed=1,
             shuffle=shuffle)

    def test_conflict_flood(self, conflict_graph):
        for p in PARTITION_COUNTS:
            _pin(FennelEdgePartitioner, conflict_graph, p, seed=0)

    def test_custom_gamma_pinned(self, stream_graph):
        vec, ref = _pin(FennelEdgePartitioner, stream_graph, 8, seed=1,
                        gamma=0.25, load_exponent=1.25)
        assert vec.extra == ref.extra


class TestGinger:
    @pytest.mark.parametrize("p", (3, 8, 64))
    def test_pinned(self, stream_graph, p):
        vec, ref = _pin(HybridGingerPartitioner, stream_graph, p, seed=1)
        assert vec.extra["moved_groups"] == ref.extra["moved_groups"]

    def test_zero_rounds_pinned(self, stream_graph):
        _pin(HybridGingerPartitioner, stream_graph, 8, seed=1, rounds=0)

    def test_many_rounds_pinned(self, stream_graph):
        _pin(HybridGingerPartitioner, stream_graph, 8, seed=1, rounds=6)


class TestStreamingState:
    def test_membership_backend_auto_switch(self):
        assert StreamingState(10, 64).member.kind == "dense"
        assert StreamingState(10, 65).member.kind == "packed"

    def test_forced_backends_agree(self, stream_graph):
        """Dense and packed membership must drive identical HDRF runs
        at a width both support."""

        class _Forced(HDRFPartitioner):
            layout = DenseMembership

            def _partition_vectorized(self, graph):
                from repro.partitioners.hdrf import _HDRFScorer
                order = self.stream_order(graph.num_edges)
                state = StreamingState(graph.num_vertices,
                                       self.num_partitions)
                state.member = self.layout(graph.num_vertices,
                                           self.num_partitions)
                scorer = _HDRFScorer(
                    state, graph.edges[order, 0], graph.edges[order, 1],
                    self._initial_degrees(graph), self.lam, self.eps,
                    self.use_partial_degrees)
                assignment = np.empty(graph.num_edges, dtype=np.int64)
                assignment[order] = run_chunked_stream(scorer)
                return self._result(graph, assignment)

        dense = _Forced(48, seed=0).partition(stream_graph)
        _ForcedPacked = type("_ForcedPacked", (_Forced,),
                             {"layout": PackedMembership})
        packed = _ForcedPacked(48, seed=0).partition(stream_graph)
        assert np.array_equal(dense.assignment, packed.assignment)


class TestDriverInternals:
    def test_previous_occurrence_oracle(self):
        state = StreamingState(10, 2)
        u = np.array([0, 2, 0, 4, 2])
        v = np.array([1, 3, 5, 5, 3])

        class _S(EdgeStreamScorer):
            pass

        s = _S(state, u, v)
        # edge 2 shares 0 with edge 0; edge 3 shares 5 with edge 2;
        # edge 4 repeats edge 1's endpoints.
        assert s.prev_occ.tolist() == [-1, -1, 0, 2, 1]

    def test_reconstruct_is_exclusive_prefix(self):
        state = StreamingState(4, 3)
        state.loads[:] = (5, 0, 0)

        class _S(EdgeStreamScorer):
            pass

        s = _S(state, np.array([0, 1, 2]), np.array([1, 2, 3]))
        mat = s.reconstruct(np.array([1, 1, 2]))
        assert mat.tolist() == [[5, 0, 0], [5, 1, 0], [5, 2, 0]]

    def test_chunk_boundaries_do_not_change_results(self, stream_graph):
        """The window width is a performance knob, never a semantic
        one: tiny chunks must reproduce the default bit-for-bit."""
        from repro.partitioners.hdrf import _HDRFScorer

        outs = []
        for chunk in (7, 64, DEFAULT_CHUNK):
            part = HDRFPartitioner(16, seed=3)
            order = part.stream_order(stream_graph.num_edges)
            state = StreamingState(stream_graph.num_vertices, 16)
            scorer = _HDRFScorer(state,
                                 stream_graph.edges[order, 0],
                                 stream_graph.edges[order, 1],
                                 part._initial_degrees(stream_graph),
                                 part.lam, part.eps, False)
            outs.append(run_chunked_stream(scorer, chunk=chunk))
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[1], outs[2])
