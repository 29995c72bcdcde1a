"""Golden equivalence pins for the streaming-partitioner substrate.

Every baseline built on :mod:`repro.core.streaming` ships two kernels —
the vectorized one (HDRF / FENNEL's load-level walk, Ginger's chunked
fixpoint rounds) and the per-edge (or per-group) reference loop kept
verbatim — and this suite pins each pair bit-identical: same
``assignment`` array (hence same replication factor), same final
per-partition loads, across |P| ∈ {1, 3, 64, 65, 256} (one partition,
the references' bitmask / set-fallback boundary and a wide run),
shuffle on/off and HDRF's partial-degree mode.  The walk's tie and
level-order rules get their own cases: HDRF with ``lam`` zero,
negative, large and below half an ulp (scores that round equal across
load levels) and a small ``eps``; FENNEL likewise with ``gamma`` and a
steep exponent (a balance table that is flat, inverted or rounded
away).  A conflict flood (a few hubs cover most edges) and a road
grid (low degree, many equal scores) round out the stream shapes.
"""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_road_network, rmat_edges
from repro.partitioners.fennel import FennelEdgePartitioner
from repro.partitioners.ginger import HybridGingerPartitioner
from repro.partitioners.hdrf import HDRFPartitioner

PARTITION_COUNTS = (1, 3, 64, 65, 256)


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


@pytest.fixture(scope="module")
def road_graph() -> CSRGraph:
    """~2k-edge road grid: degree ~3, so HDRF's replication weights and
    FENNEL's locality tie across many partitions."""
    return CSRGraph(grid_road_network(24, 24, seed=5))


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

    @pytest.mark.parametrize("p", (1, 8, 256))
    @pytest.mark.parametrize("lam,eps", [(0.0, 1.0), (-0.5, 1.0),
                                         (3.0, 1.0), (1.0, 0.25),
                                         (3.0, 0.25), (1e-17, 1.0)])
    def test_pinned_scoring_knobs(self, stream_graph, p, lam, eps):
        """``lam < 0`` inverts the level order; ``lam = 1e-17`` is under
        half an ulp of the replication weights, so ``c + balance``
        rounds equal across levels and ties go to the lowest id."""
        _pin(HDRFPartitioner, stream_graph, p, seed=4, lam=lam, eps=eps)

    @pytest.mark.parametrize("p", (8, 64, 256))
    @pytest.mark.parametrize("partial", [False, True])
    def test_road_graph(self, road_graph, p, partial):
        _pin(HDRFPartitioner, road_graph, p, seed=0,
             use_partial_degrees=partial)

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

    @pytest.mark.parametrize("p", (1, 8, 256))
    @pytest.mark.parametrize("gamma,exponent", [(0.0, 1.5), (-0.3, 1.5),
                                                (0.25, 3.0), (None, 3.0),
                                                (1e-17, 1.5)])
    def test_pinned_scoring_knobs(self, stream_graph, p, gamma, exponent):
        _pin(FennelEdgePartitioner, stream_graph, p, seed=4, gamma=gamma,
             load_exponent=exponent)

    @pytest.mark.parametrize("p", (8, 64, 256))
    def test_road_graph(self, road_graph, p):
        _pin(FennelEdgePartitioner, road_graph, p, seed=0)

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
