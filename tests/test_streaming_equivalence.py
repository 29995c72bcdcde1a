"""Golden equivalence pins for the streaming-partitioner substrate.

Every baseline with two kernels built on :mod:`repro.core.streaming` —
HDRF / FENNEL's load-level walk and Ginger's per-group re-homing walk,
each beside the per-edge (or per-group) reference loop kept verbatim —
is pinned bit-identical here: same ``assignment`` array (hence same
replication factor), same final per-partition loads, across |P| ∈
{1, 3, 64, 65, 256} (one partition, the references' bitmask /
set-fallback boundary and a wide run), with the stream shuffled and
in canonical order.  A conflict flood (a few hubs cover most edges)
and a road grid (low degree, many equal scores) round out the stream
shapes.

The walks' tie and order rules get their own cases beyond the
partitioners' fixed constants, set through the module constants
(monkeypatched): HDRF's ``lam`` zero, negative, large and below half an
ulp (scores that round equal across load levels) and a small ``eps``;
FENNEL's ``gamma`` and a steep exponent (a balance table that is flat,
inverted or rounded away); Ginger's ``gamma`` zero (every penalty
ties) and negative (the sorted penalty list inverted) and its round
count.  :class:`TestEdgeStreamWalk` also calls ``walk_edge_stream``
directly against a test-side |P|-wide oracle over the same scoring
tables, per-edge weights and HDRF's partial-degree weighting.

``walk_labels`` (Spinner, XtraPuLP, ``metis_like``'s FM) has one
implementation, so :class:`TestLabelWalk` pins it against a test-side
``|P|``-wide NumPy oracle of the loop it replaced: ties (load weight
zero, negative, default), a capacity that rejects moves, weighted
neighbours, isolated vertices and |P| ∈ {1, 3, 64, 256}.
"""

import numpy as np
import pytest

from repro.core.streaming import walk_edge_stream, walk_labels
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_road_network, rmat_edges
from repro.partitioners import fennel, ginger, hdrf
from repro.partitioners.base import StreamingEdgePartitioner
from repro.partitioners.fennel import FennelEdgePartitioner
from repro.partitioners.ginger import HybridGingerPartitioner
from repro.partitioners.hdrf import HDRFPartitioner, _replication_weights

PARTITION_COUNTS = (1, 3, 64, 65, 256)


def _pin(cls, graph, p, **kwargs):
    vec = cls(p, kernel="vectorized", **kwargs).partition(graph)
    ref = cls(p, kernel="python", **kwargs).partition(graph)
    assert np.array_equal(vec.assignment, ref.assignment), (
        f"{cls.name} kernels diverge at |P|={p} {kwargs}")
    assert np.array_equal(np.bincount(vec.assignment, minlength=p),
                          np.bincount(ref.assignment, minlength=p))
    return vec, ref


def _stream(monkeypatch, shuffle):
    """Unshuffled, the partitioners stream edges in canonical id order."""
    if not shuffle:
        monkeypatch.setattr(StreamingEdgePartitioner, "stream_order",
                            lambda self, m: np.arange(m))


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
    def test_pinned(self, stream_graph, p, shuffle, monkeypatch):
        _stream(monkeypatch, shuffle)
        _pin(HDRFPartitioner, stream_graph, p, seed=1)

    def test_conflict_flood(self, conflict_graph):
        for p in PARTITION_COUNTS:
            _pin(HDRFPartitioner, conflict_graph, p, seed=0)

    @pytest.mark.parametrize("p", (1, 8, 256))
    @pytest.mark.parametrize("lam,eps", [(0.0, 1.0), (-0.5, 1.0),
                                         (3.0, 1.0), (1.0, 0.25),
                                         (3.0, 0.25), (1e-17, 1.0)])
    def test_pinned_scoring_knobs(self, stream_graph, p, lam, eps,
                                  monkeypatch):
        """Both kernels away from the module constants: ``lam < 0``
        inverts the level order; ``lam = 1e-17`` is under half an ulp
        of the replication weights, so ``c + balance`` rounds equal
        across levels and ties go to the lowest id."""
        monkeypatch.setattr(hdrf, "_LAM", lam)
        monkeypatch.setattr(hdrf, "_EPS", eps)
        _pin(HDRFPartitioner, stream_graph, p, seed=4)

    @pytest.mark.parametrize("p", (8, 64, 256))
    @pytest.mark.parametrize("shuffle", [True, False])
    def test_road_graph(self, road_graph, p, shuffle, monkeypatch):
        _stream(monkeypatch, shuffle)
        _pin(HDRFPartitioner, road_graph, p, seed=0)

    def test_extra_metadata_matches(self, stream_graph):
        vec, ref = _pin(HDRFPartitioner, stream_graph, 8, seed=2)
        assert vec.extra == ref.extra


class TestFennel:
    @pytest.mark.parametrize("p", PARTITION_COUNTS)
    @pytest.mark.parametrize("shuffle", [True, False])
    def test_pinned(self, stream_graph, p, shuffle, monkeypatch):
        _stream(monkeypatch, shuffle)
        _pin(FennelEdgePartitioner, stream_graph, p, seed=1)

    def test_conflict_flood(self, conflict_graph):
        for p in PARTITION_COUNTS:
            _pin(FennelEdgePartitioner, conflict_graph, p, seed=0)

    @pytest.mark.parametrize("p", (1, 8, 256))
    @pytest.mark.parametrize("gamma,exponent", [(0.0, 1.5), (-0.3, 1.5),
                                                (0.25, 3.0), (None, 3.0),
                                                (1e-17, 1.5)])
    def test_pinned_scoring_knobs(self, stream_graph, p, gamma, exponent,
                                  monkeypatch):
        """Both kernels away from the module constant and the scaled
        ``gamma`` (``None`` keeps FENNEL's own scaling)."""
        monkeypatch.setattr(fennel, "_LOAD_EXPONENT", exponent)
        if gamma is not None:
            monkeypatch.setattr(FennelEdgePartitioner, "_gamma",
                                lambda self, graph: gamma)
        _pin(FennelEdgePartitioner, stream_graph, p, seed=4)

    @pytest.mark.parametrize("p", (8, 64, 256))
    def test_road_graph(self, road_graph, p):
        _pin(FennelEdgePartitioner, road_graph, p, seed=0)

    @pytest.mark.parametrize("p", (8, 64, 256))
    def test_road_graph_in_order(self, road_graph, p, monkeypatch):
        """The grid's canonical edge order: long runs of edges that
        share an endpoint with the one just placed."""
        _stream(monkeypatch, False)
        _pin(FennelEdgePartitioner, road_graph, p, seed=0)

    def test_extra_metadata_matches(self, stream_graph):
        vec, ref = _pin(FennelEdgePartitioner, stream_graph, 8, seed=1)
        assert vec.extra == ref.extra

    def test_custom_gamma_pinned(self, stream_graph, monkeypatch):
        monkeypatch.setattr(fennel, "_LOAD_EXPONENT", 1.25)
        monkeypatch.setattr(FennelEdgePartitioner, "_gamma",
                            lambda self, graph: 0.25)
        vec, ref = _pin(FennelEdgePartitioner, stream_graph, 8, seed=1)
        assert vec.extra == ref.extra
        assert vec.extra == {"gamma": 0.25, "load_exponent": 1.25}


def _edge_stream_oracle(u, v, p, fu, fv, balance):
    """The |P|-wide per-edge loop :func:`walk_edge_stream` replaced: a
    full score vector per edge — replica weights plus
    ``balance(loads)`` — and ``np.argmax``, as HDRF's and FENNEL's
    ``kernel="python"`` references build it."""
    member = np.zeros((int(max(u.max(), v.max())) + 1, p), dtype=bool)
    loads = np.zeros(p, dtype=np.int64)
    out = np.empty(len(u), dtype=np.int64)
    for i, (a, b) in enumerate(zip(u.tolist(), v.tolist())):
        t = int(np.argmax(member[a] * fu[i] + member[b] * fv[i]
                          + balance(loads)))
        out[i] = t
        loads[t] += 1
        member[a, t] = member[b, t] = True
    return out


class TestEdgeStreamWalk:
    """:func:`walk_edge_stream` against the |P|-wide oracle over the
    scoring constants HDRF and FENNEL fix (``lam`` / ``eps``, ``gamma``
    / the load exponent), so the walk's tie and order rules are pinned
    beyond the partitioners' defaults."""

    @staticmethod
    def _run(graph, p, fu, fv, balance_levels, balance_loads, order=None):
        if order is None:
            order = np.random.default_rng(4).permutation(graph.num_edges)
        u, v = graph.edges[order, 0], graph.edges[order, 1]
        fu, fv = fu[order], fv[order]
        got = walk_edge_stream(u, v, p, fu, fv, balance_levels)
        want = _edge_stream_oracle(u, v, p, fu, fv, balance_loads)
        assert np.array_equal(got, want), f"|P|={p}"

    @staticmethod
    def _hdrf(graph, p, lam, eps, fu=None, fv=None, order=None):
        if fu is None:
            degrees = graph.degrees().astype(np.int64)
            fu, fv = _replication_weights(degrees[graph.edges[:, 0]],
                                          degrees[graph.edges[:, 1]])

        def levels(lvs):
            denom = eps + lvs[-1] - lvs[0]
            return [lam * ((lvs[-1] - lv) / denom) for lv in lvs]

        def loads(ld):
            return lam * ((ld.max() - ld) / (eps + ld.max() - ld.min()))

        TestEdgeStreamWalk._run(graph, p, fu, fv, levels, loads, order)

    @pytest.mark.parametrize("p", (1, 8, 256))
    @pytest.mark.parametrize("lam,eps", [(1.0, 1.0), (0.0, 1.0),
                                         (-0.5, 1.0), (3.0, 1.0),
                                         (1.0, 0.25), (3.0, 0.25),
                                         (1e-17, 1.0)])
    def test_hdrf_balance(self, stream_graph, road_graph, p, lam, eps):
        """``lam < 0`` inverts the level order; ``lam = 1e-17`` is under
        half an ulp of the replication weights, so ``c + balance``
        rounds equal across levels and ties go to the lowest id."""
        for graph in (stream_graph, road_graph):
            self._hdrf(graph, p, lam, eps)

    @pytest.mark.parametrize("p", (3, 64, 256))
    def test_per_edge_weights(self, stream_graph, p):
        """Weights that vary per stream position, not per vertex."""
        rng = np.random.default_rng(9)
        fu, fv = (rng.integers(4, 9, stream_graph.num_edges) / 4.0
                  for _ in range(2))
        self._hdrf(stream_graph, p, 1.0, 1.0, fu, fv)

    @pytest.mark.parametrize("p", PARTITION_COUNTS)
    @pytest.mark.parametrize("shuffle", [True, False])
    def test_partial_degree_weights(self, stream_graph, p, shuffle):
        """HDRF's partial-degree weighting (Petroni et al.): each
        endpoint's degree as far as the stream has shown it, counting
        the edge being placed, so weights shift with stream position."""
        m = stream_graph.num_edges
        order = (np.random.default_rng(1).permutation(m) if shuffle
                 else np.arange(m))
        seen = np.zeros(stream_graph.num_vertices, dtype=np.int64)
        du, dv = np.empty(m, np.int64), np.empty(m, np.int64)
        for eid in order.tolist():
            a, b = stream_graph.edges[eid].tolist()
            seen[a] += 1
            seen[b] += 1
            du[eid], dv[eid] = seen[a], seen[b]
        fu, fv = _replication_weights(du, dv)
        self._hdrf(stream_graph, p, 1.0, 1.0, fu, fv, order)

    @pytest.mark.parametrize("p", (1, 8, 256))
    @pytest.mark.parametrize("gamma,exponent", [(0.0, 1.5), (-0.3, 1.5),
                                                (0.25, 3.0), (None, 3.0),
                                                (1e-17, 1.5)])
    def test_fennel_penalty(self, stream_graph, p, gamma, exponent):
        """A penalty table that is flat, inverted, steep, FENNEL's own
        scaling at another exponent, or rounded away."""
        m = stream_graph.num_edges
        if gamma is None:
            gamma = np.sqrt(p) * m / (m / p) ** exponent / m if p > 1 else 0.0
        vals = np.arange(m + 2, dtype=np.float64)
        pen = gamma * ((vals + 1.0) ** exponent - vals ** exponent)
        ones = np.ones(m)
        self._run(stream_graph, p, ones, ones,
                  lambda lvs: (-pen[lvs]).tolist(), lambda ld: -pen[ld])


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
    def test_pinned_gamma(self, stream_graph, road_graph, p, gamma,
                          monkeypatch):
        """``gamma = 0`` ties every penalty (lowest label wins);
        ``gamma < 0`` rewards load, inverting the penalty order."""
        monkeypatch.setattr(ginger, "_GAMMA", gamma)
        for graph in (stream_graph, road_graph):
            vec, ref = _pin(HybridGingerPartitioner, graph, p, seed=2)
            assert vec.extra["moved_groups"] == ref.extra["moved_groups"]

    def test_zero_rounds_pinned(self, stream_graph, monkeypatch):
        monkeypatch.setattr(ginger, "_ROUNDS", 0)
        _pin(HybridGingerPartitioner, stream_graph, 8, seed=1)

    def test_many_rounds_pinned(self, stream_graph, monkeypatch):
        monkeypatch.setattr(ginger, "_ROUNDS", 6)
        _pin(HybridGingerPartitioner, stream_graph, 8, seed=1)


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
