"""Golden equivalence pins for the streaming-partitioner substrate.

Every baseline with two kernels built on :mod:`repro.core.streaming` —
HDRF / FENNEL's load-level walk and Ginger's per-group re-homing walk,
each beside the per-edge (or per-group) reference loop kept verbatim —
is pinned bit-identical here: same ``assignment`` array (hence same
replication factor), same final per-partition loads, across |P| ∈
{1, 3, 64, 65, 256} (one partition, the references' bitmask /
set-fallback boundary and a wide run), shuffle on/off and HDRF's
partial-degree mode.  The walks' tie and order rules get their own
cases: HDRF with ``lam`` zero, negative, large and below half an ulp
(scores that round equal across load levels) and a small ``eps``;
FENNEL likewise with ``gamma`` and a steep exponent (a balance table
that is flat, inverted or rounded away); Ginger with ``gamma`` zero
(every penalty ties) and negative (the sorted penalty list inverted).
A conflict flood (a few hubs cover most edges) and a road grid (low
degree, many equal scores) round out the stream shapes.

``walk_labels`` (Spinner, XtraPuLP, ``metis_like``'s FM) has one
implementation, so :class:`TestLabelWalk` pins it against a test-side
``|P|``-wide NumPy oracle of the loop it replaced: ties (load weight
zero, negative, default), a capacity that rejects moves, weighted
neighbours, isolated vertices and |P| ∈ {1, 3, 64, 256}.
"""

import numpy as np
import pytest

from repro.core.streaming import walk_labels
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
    @pytest.mark.parametrize("p", (*PARTITION_COUNTS, 8))
    def test_pinned(self, stream_graph, p):
        vec, ref = _pin(HybridGingerPartitioner, stream_graph, p, seed=1)
        assert vec.extra["moved_groups"] == ref.extra["moved_groups"]

    @pytest.mark.parametrize("p", PARTITION_COUNTS)
    def test_road_graph(self, road_graph, p):
        """Degree ~3: every group is low-degree and the small
        histograms tie often, so the best-of-the-rest label decides."""
        vec, ref = _pin(HybridGingerPartitioner, road_graph, p, seed=0)
        assert vec.extra["moved_groups"] == ref.extra["moved_groups"]

    @pytest.mark.parametrize("p", (3, 64, 256))
    @pytest.mark.parametrize("gamma", [0.0, -1.5])
    def test_pinned_gamma(self, stream_graph, road_graph, p, gamma):
        """``gamma = 0`` ties every penalty (lowest label wins);
        ``gamma < 0`` rewards load, inverting the penalty order."""
        for graph in (stream_graph, road_graph):
            vec, ref = _pin(HybridGingerPartitioner, graph, p, seed=2,
                            gamma=gamma)
            assert vec.extra["moved_groups"] == ref.extra["moved_groups"]

    def test_zero_rounds_pinned(self, stream_graph):
        _pin(HybridGingerPartitioner, stream_graph, 8, seed=1, rounds=0)

    def test_many_rounds_pinned(self, stream_graph):
        _pin(HybridGingerPartitioner, stream_graph, 8, seed=1, rounds=6)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"),
                                       -float("inf")])
    def test_non_finite_gamma_rejected(self, gamma):
        """A non-finite ``gamma`` makes every score NaN or infinite, so
        neither kernel's argmax means anything: refused up front."""
        with pytest.raises(ValueError, match="gamma"):
            HybridGingerPartitioner(8, gamma=gamma)


def _label_walk_oracle(indptr, indices, labels, weights, k, capacity, rng,
                       passes, settle=0, edge_weights=None, balance=None):
    """The |P|-wide loops :func:`walk_labels` replaced: a full score
    vector per vertex, rejected labels at ``-inf``, ``np.argmax`` and a
    strict gain test.  With a load term the histogram is divided by the
    degree (Spinner); without one it stays raw (XtraPuLP, FM)."""
    labels = labels.copy()
    loads = np.bincount(labels, weights=weights, minlength=k)
    order = np.arange(len(labels))
    iterations = 0
    for iterations in range(1, passes + 1):
        rng.shuffle(order)
        moves = 0
        for v in order:
            lo, hi = indptr[v], indptr[v + 1]
            if lo == hi:
                continue
            score = np.bincount(
                labels[indices[lo:hi]], minlength=k,
                weights=None if edge_weights is None
                else edge_weights[lo:hi]).astype(np.float64)
            if balance is not None:
                score = score / (hi - lo) + balance(loads)
            current, w = labels[v], weights[v]
            score[(loads + w > capacity) & (np.arange(k) != current)] = -np.inf
            target = int(np.argmax(score))
            if target != current and score[target] > score[current]:
                loads[current] -= w
                loads[target] += w
                labels[v] = target
                moves += 1
        if moves <= settle:
            break
    return labels, iterations


class TestLabelWalk:
    """``walk_labels`` against the |P|-wide oracle: same labels, same
    pass count."""

    @pytest.fixture(scope="class")
    def graph(self) -> CSRGraph:
        """The stream graph plus 40 trailing isolated vertices (RMAT
        leaves some of its own); the walk never visits one."""
        edges = rmat_edges(10, 8, seed=7)
        return CSRGraph(edges, num_vertices=int(edges.max()) + 41)

    @staticmethod
    def _run(graph, k, seed=0, passes=4, capacity_factor=1.05,
             weights=None, **kwargs):
        weights = graph.degrees() if weights is None else weights
        capacity = max(1.0, capacity_factor * int(weights.sum()) / k)
        start = np.random.default_rng(seed + 100).integers(
            0, k, graph.num_vertices)
        term = kwargs.get("balance")    # (load, capacity) -> float
        if term is not None:
            kwargs["balance"] = lambda load: term(load, capacity)
        labels = start.copy()
        iterations = walk_labels(
            graph.indptr, graph.indices, labels, weights, k, capacity,
            np.random.default_rng(seed), passes, **kwargs)
        expect, expect_iterations = _label_walk_oracle(
            graph.indptr, graph.indices, start, weights, k, capacity,
            np.random.default_rng(seed), passes, **kwargs)
        assert np.array_equal(labels, expect), f"|P|={k} {kwargs}"
        assert iterations == expect_iterations
        return start, labels

    @pytest.mark.parametrize("k", (1, 3, 64, 256))
    @pytest.mark.parametrize("bw", [0.0, -0.5, 0.5])
    def test_spinner_shape(self, graph, k, bw):
        """Histogram over degree plus a load term; ``bw = 0`` ties every
        load term, ``bw < 0`` inverts the rest list's order."""
        start, labels = self._run(
            graph, k, settle=2,
            balance=lambda load, cap: bw * (1.0 - load / cap))
        isolated = graph.degrees() == 0
        assert isolated[-40:].all()
        assert np.array_equal(labels[isolated], start[isolated])

    @pytest.mark.parametrize("k", (1, 3, 64, 256))
    def test_count_shape(self, graph, k):
        """Raw counts, no load term (XtraPuLP), unit vertex weights."""
        self._run(graph, k, weights=np.ones(graph.num_vertices, np.int64),
                  capacity_factor=1.1)

    @pytest.mark.parametrize("k", (3, 64, 256))
    @pytest.mark.parametrize("with_balance", [False, True])
    def test_weighted_neighbours(self, graph, k, with_balance):
        """Weighted histogram (``metis_like``'s FM), with and without a
        load term."""
        ew = np.random.default_rng(5).integers(1, 5, len(graph.indices))
        self._run(graph, k, edge_weights=ew,
                  balance=(lambda load, cap: 0.5 * (1.0 - load / cap))
                  if with_balance else None)

    @pytest.mark.parametrize("k", (3, 8, 64))
    def test_integer_scores_tie(self, graph, k):
        """A stepped integer load term: where all of a vertex's
        neighbours share one label (every degree-1 vertex) that label
        scores an integer and ties rest labels exactly, and the lower
        label must win either way."""
        self._run(graph, k, capacity_factor=1.3,
                  balance=lambda load, cap: -(load // 16))

    @pytest.mark.parametrize("k", (3, 64))
    @pytest.mark.parametrize("bw", [-0.5, 0.5])
    def test_tight_capacity_rejects(self, graph, k, bw):
        """A capacity under the mean load: most targets are rejected,
        and the answer differs from the same walk without the cap."""
        balance = lambda load, cap: bw * (1.0 - load / cap)  # noqa: E731
        _, capped = self._run(graph, k, capacity_factor=0.6,
                              balance=balance)
        _, free = self._run(graph, k, capacity_factor=1e6, balance=balance)
        assert not np.array_equal(capped, free)

    def test_zero_passes(self, graph):
        start, labels = self._run(graph, 8, passes=0)
        assert np.array_equal(start, labels)
