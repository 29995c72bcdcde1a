"""Unit tests for repro.graph.csr: CSRGraph and the dedup primitives."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.csr as csr_module
from repro.graph.csr import (CSRGraph, adjacency_slots, first_occurrence,
                             sorted_unique, symmetrised_csr)
from repro.graph.edgelist import canonical_edges, relabel_compact
from repro.graph.generators import grid_road_network, rmat_edges


def _csr_arrays(graph: CSRGraph):
    return graph.edges, graph.indptr, graph.indices, graph.edge_ids


def _assert_same_arrays(got, expect):
    for a, b in zip(got, expect, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestConstruction:
    def test_triangle_basics(self, triangle):
        assert triangle.num_vertices == 3
        assert triangle.num_edges == 3
        assert triangle.degrees()[0] == 2

    def test_empty_graph(self):
        g = CSRGraph(np.empty((0, 2), dtype=np.int64))
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.max_degree() == 0

    def test_isolated_vertices_via_override(self):
        g = CSRGraph(np.array([[0, 1]]), num_vertices=5)
        assert g.num_vertices == 5
        assert g.degrees()[4] == 0

    def test_num_vertices_override_too_small(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([[0, 9]]), num_vertices=3)

    def test_id_space_is_bounded_against_edge_count(self):
        """One edge naming vertex 10**14 used to size ``indptr`` for
        10**14 ids (728 TiB, ``MemoryError``); past max(2**20, 16 per
        edge) it raises first, naming the id and the way out."""
        for far in (10 ** 14, 2 ** 20):
            edges = np.array([[3, far]])
            with pytest.raises(ValueError, match=f"vertex id {far}.*"
                               "relabel_compact"):
                CSRGraph(edges)
            compact, old_ids = relabel_compact(edges)
            assert CSRGraph(compact).num_vertices == 2
            assert old_ids.tolist() == [3, far]
        assert CSRGraph(np.array([[3, 2 ** 20 - 1]])).num_vertices == 2 ** 20
        # an explicit num_vertices states the id space itself
        assert CSRGraph(np.array([[0, 1]]), num_vertices=2 ** 20 + 1) \
            .num_vertices == 2 ** 20 + 1

    @pytest.mark.parametrize("bad", ["5", 5.5, 5.0, np.float64(5), True,
                                     np.True_])
    def test_non_integral_num_vertices_is_named(self, bad):
        """No silent ``int()`` truncation and no bare ``TypeError``:
        only an integer states a vertex count."""
        with pytest.raises(ValueError, match=re.escape(
                f"num_vertices must be an integer, got {bad!r}")):
            CSRGraph(np.array([[0, 1]]), num_vertices=bad)

    def test_numpy_integer_num_vertices_is_taken(self):
        graph = CSRGraph(np.array([[0, 1]]), num_vertices=np.int32(7))
        assert graph.num_vertices == 7 and type(graph.num_vertices) is int

    def test_defensive_canonicalisation(self):
        g = CSRGraph(np.array([[2, 0], [0, 2], [1, 1]]))
        assert g.num_edges == 1
        assert g.edges[0].tolist() == [0, 2]


    def test_canonical_input_is_not_canonicalised_again(self, monkeypatch):
        """Verify, don't redo: a canonical array costs one O(m) check."""
        edges = rmat_edges(9, 6, seed=4)
        expect = _csr_arrays(CSRGraph(edges[::-1]))        # the slow path

        def boom(_):
            raise AssertionError("canonical input was canonicalised again")
        monkeypatch.setattr(csr_module, "canonical_edges", boom)
        graph = CSRGraph(edges)
        _assert_same_arrays(_csr_arrays(graph), expect)
        assert np.shares_memory(graph.edges, edges)         # adopted

    def test_any_row_order_builds_the_same_graph(self):
        edges = rmat_edges(9, 6, seed=5)
        rng = np.random.default_rng(0)
        messy = np.concatenate([edges, edges[::3, ::-1], edges[:50]])
        messy = messy[rng.permutation(len(messy))]
        graph = CSRGraph(messy)
        _assert_same_arrays(_csr_arrays(graph), _csr_arrays(CSRGraph(edges)))
        assert not np.shares_memory(graph.edges, messy)

    def test_edges_are_read_only_and_the_callers_array_is_not(self):
        canonical = np.array([[0, 1], [1, 2]])
        for given_as in (canonical, canonical[::-1].copy()):
            graph = CSRGraph(given_as)
            with pytest.raises(ValueError, match="read-only"):
                graph.edges[0, 0] = 5
            assert given_as.flags.writeable
        canonical[0, 0] = 0                 # still the caller's to write

    def test_negative_ids_still_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([[-1, 0], [0, 1]]))

    def test_negative_id_is_named(self):
        with pytest.raises(ValueError, match="negative vertex id -3"):
            CSRGraph(np.array([[0, 1], [2, -3], [-1, 4]]))


def _symmetrised_csr_by_argsort(edges: np.ndarray, n: int):
    """The build ``symmetrised_csr`` replaced: the backward half ordered
    by a stable argsort of the second endpoint."""
    m = len(edges)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices = np.empty(2 * m, dtype=np.int64)
    edge_ids = np.empty(2 * m, dtype=np.int64)
    if m:
        u, v = edges[:, 0], edges[:, 1]
        cf = np.bincount(u, minlength=n)
        cb = np.bincount(v, minlength=n)
        np.cumsum(cf + cb, out=indptr[1:])
        border = np.argsort(v, kind="stable")
        vs = v[border]
        pos_b = indptr[vs] + (np.arange(m) - (np.cumsum(cb) - cb)[vs])
        indices[pos_b] = u[border]
        edge_ids[pos_b] = border
        pos_f = indptr[u] + cb[u] + (np.arange(m) - (np.cumsum(cf) - cf)[u])
        indices[pos_f] = v
        edge_ids[pos_f] = np.arange(m)
    return indptr, indices, edge_ids


class TestSymmetrisedCsr:
    @pytest.mark.parametrize("edges", [
        rmat_edges(11, 8, seed=1),
        rmat_edges(10, 1, seed=2),                        # id gaps
        grid_road_network(30, 40, extra_fraction=0.3, seed=3),
        np.array([[0, i] for i in range(1, 40)]),         # star
        np.array([[i, 40] for i in range(40)]),           # in-star
        np.empty((0, 2), dtype=np.int64),
        np.array([[3, 9]]),
    ], ids=["rmat", "sparse_rmat", "road", "star", "in_star", "empty",
            "single"])
    def test_equals_argsort_definition(self, edges):
        n = int(edges.max()) + 1 if len(edges) else 0
        for nv in (n, n + 7):                             # isolated tail
            _assert_same_arrays(symmetrised_csr(edges, nv),
                                _symmetrised_csr_by_argsort(edges, nv))

    def test_rows_are_neighbour_sorted(self, small_rmat):
        for v in range(small_rmat.num_vertices):
            assert (np.diff(small_rmat.neighbors(v)) > 0).all()


class TestAccessors:
    def test_neighbors(self, path4):
        assert sorted(path4.neighbors(1).tolist()) == [0, 2]
        assert path4.neighbors(0).tolist() == [1]

    def test_degrees_vector(self, star):
        deg = star.degrees()
        assert deg[0] == 8
        assert (deg[1:] == 1).all()

    def test_max_degree(self, star):
        assert star.max_degree() == 8

    def test_incident_edge_ids_cover_all_edges(self, triangle):
        seen = set()
        for v in range(3):
            seen.update(triangle.incident_edge_ids(v).tolist())
        assert seen == {0, 1, 2}

    def test_memory_bytes_positive(self, small_rmat):
        assert small_rmat.memory_bytes() > 0


def _degree_graphs():
    """RMAT, road, isolated-vertex and empty graphs."""
    return {"rmat": CSRGraph(rmat_edges(10, 8, seed=3)),
            "road": CSRGraph(grid_road_network(12, 9, seed=3)),
            "isolated": CSRGraph(np.array([[1, 4], [4, 6]]),
                                 num_vertices=9),
            "empty": CSRGraph(np.empty((0, 2), dtype=np.int64)),
            "empty_with_vertices": CSRGraph(
                np.empty((0, 2), dtype=np.int64), num_vertices=3)}


class TestLazyAdjacency:
    """The graph holds its edge array; the adjacency is built on the
    first walk, from :func:`symmetrised_csr`, and kept."""

    @pytest.mark.parametrize("name", sorted(_degree_graphs()))
    def test_degrees_without_the_adjacency_equal_its_row_lengths(self,
                                                                  name):
        graph = _degree_graphs()[name]
        degrees = graph.degrees()
        assert graph._adjacency is None
        assert degrees.dtype == np.int64
        assert np.array_equal(degrees, np.diff(graph.indptr))
        _assert_same_arrays(
            (graph.indptr, graph.indices, graph.edge_ids),
            symmetrised_csr(graph.edges, graph.num_vertices))

    def test_built_once_on_first_walk_and_kept(self, monkeypatch):
        graph = CSRGraph(rmat_edges(9, 6, seed=1))
        calls = []
        real = csr_module.symmetrised_csr

        def counting(edges, n):
            calls.append(n)
            return real(edges, n)
        monkeypatch.setattr(csr_module, "symmetrised_csr", counting)
        graph.degrees(), graph.max_degree(), graph.memory_bytes()
        assert calls == [] and graph._adjacency is None
        assert graph.memory_bytes() == graph.edges.nbytes \
            + graph.degrees().nbytes
        indptr = graph.indptr
        graph.neighbors(3), graph.incident_edge_ids(3), graph.indices
        assert calls == [graph.num_vertices]
        assert graph.indptr is indptr
        assert graph.memory_bytes() == sum(
            a.nbytes for a in (graph.edges, graph.degrees(), graph.indptr,
                               graph.indices, graph.edge_ids))

    def test_degrees_are_kept_and_read_only(self, small_rmat):
        degrees = small_rmat.degrees()
        assert small_rmat.degrees() is degrees
        with pytest.raises(ValueError, match="read-only"):
            degrees[0] = 99
        with pytest.raises(ValueError, match="read-only"):
            degrees += 1
        # a converted copy is the caller's own to write
        mine = degrees.astype(np.int64)
        mine[0] += 1
        assert small_rmat.degrees()[0] == mine[0] - 1


class TestCSRInvariants:
    @given(st.lists(st.tuples(st.integers(0, 25), st.integers(0, 25)),
                    min_size=1, max_size=150))
    @settings(max_examples=50, deadline=None)
    def test_degree_sum_is_twice_edges(self, pairs):
        edges = canonical_edges(np.array(pairs))
        if len(edges) == 0:
            return
        g = CSRGraph(edges)
        assert g.degrees().sum() == 2 * g.num_edges

    @given(st.lists(st.tuples(st.integers(0, 25), st.integers(0, 25)),
                    min_size=1, max_size=150))
    @settings(max_examples=50, deadline=None)
    def test_each_edge_id_appears_twice(self, pairs):
        edges = canonical_edges(np.array(pairs))
        if len(edges) == 0:
            return
        g = CSRGraph(edges)
        counts = np.bincount(g.edge_ids, minlength=g.num_edges)
        assert (counts == 2).all()

    @given(st.lists(st.tuples(st.integers(0, 25), st.integers(0, 25)),
                    min_size=1, max_size=150))
    @settings(max_examples=50, deadline=None)
    def test_adjacency_symmetry(self, pairs):
        edges = canonical_edges(np.array(pairs))
        if len(edges) == 0:
            return
        g = CSRGraph(edges)
        for v in range(g.num_vertices):
            for u in g.neighbors(v):
                assert v in g.neighbors(int(u))

    def test_indptr_monotone(self, small_rmat):
        assert (np.diff(small_rmat.indptr) >= 0).all()
        assert small_rmat.indptr[-1] == 2 * small_rmat.num_edges


def _first_occurrence_by_sort(values: np.ndarray) -> np.ndarray:
    """The definition the primitive replaced: a stable argsort's run
    heads, back in position order."""
    _, first = np.unique(values, return_index=True)
    return np.sort(first)


_KEY_LISTS = st.one_of(
    st.lists(st.integers(0, 7), max_size=200),            # heavy duplicates
    st.lists(st.integers(0, 499), max_size=200),
    st.lists(st.just(3), max_size=50))                    # all equal


class TestDedupPrimitives:
    """``sorted_unique`` / ``first_occurrence`` against the sort-based
    definitions they replaced in the fused plane."""

    @given(st.lists(st.integers(-2 ** 62, 2 ** 62), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_sorted_unique_is_np_unique(self, keys):
        keys = np.array(keys, dtype=np.int64)
        before = keys.copy()
        out = sorted_unique(keys)
        assert np.array_equal(out, np.unique(keys))
        assert out.dtype == keys.dtype
        assert np.array_equal(keys, before)       # input untouched

    @given(_KEY_LISTS)
    @settings(max_examples=200, deadline=None)
    def test_first_occurrence_scratch_and_key_sort(self, values):
        values = np.array(values, dtype=np.int64)
        expect = _first_occurrence_by_sort(values)
        assert np.array_equal(first_occurrence(values), expect)
        # Stale scratch contents (here: every slot claims position 0)
        # must not matter, and the buffer is reused across calls.
        scratch = np.zeros(500, dtype=np.int64)
        for _ in range(2):
            got = first_occurrence(values, scratch)
            assert np.array_equal(got, expect)
            assert got.dtype == np.int64

    @given(st.lists(st.integers(-2 ** 62, 2 ** 62), max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_key_sort_takes_any_int64(self, values):
        """No bound, negative values, and spans whose ``value * n``
        would overflow (the stable-argsort branch)."""
        values = np.array(values, dtype=np.int64)
        assert np.array_equal(first_occurrence(values),
                              _first_occurrence_by_sort(values))

    @pytest.mark.parametrize("values", [[], [5], [4, 4, 4], [9, 0, 9, 0]])
    def test_small_cases_and_key_at_the_bound(self, values):
        values = np.array(values, dtype=np.int64)
        scratch = np.full(10, 7, dtype=np.int64)   # bound - 1 == 9
        expect = _first_occurrence_by_sort(values)
        assert np.array_equal(first_occurrence(values, scratch), expect)
        assert np.array_equal(first_occurrence(values), expect)
        assert np.array_equal(sorted_unique(values), np.unique(values))

    def test_narrow_dtype_does_not_overflow_the_key_sort(self):
        values = np.array([2 ** 31 - 1, 5, 2 ** 31 - 1, 5] * 50,
                          dtype=np.int32)
        assert first_occurrence(values).tolist() == [0, 1]

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_scratch_rejects_keys_outside_the_bound(self, bad):
        scratch = np.empty(10, dtype=np.int64)
        with pytest.raises(ValueError, match="scratch bound"):
            first_occurrence(np.array([3, bad, 3]), scratch)


class TestAdjacencySlots:
    """The batched slice walk every kernel shares widens once, inside:
    an int32 ``indptr`` (a narrow store's offsets, a sweep's segment
    offsets) gathers exactly what an int64 one does, as int64."""

    def test_int32_and_int64_indptr_gather_the_same_int64_slots(self):
        graph = CSRGraph(rmat_edges(8, 6, seed=1))
        rng = np.random.default_rng(0)
        picks = rng.integers(0, graph.num_vertices, 300)
        for rows in (picks, picks.astype(np.int32), picks[:1],
                     np.empty(0, dtype=np.int64)):
            expect = [np.arange(graph.indptr[r], graph.indptr[r + 1])
                      for r in rows.tolist()]
            for indptr in (graph.indptr.astype(np.int64),
                           graph.indptr.astype(np.int32)):
                slot_idx, counts = adjacency_slots(indptr, rows)
                assert slot_idx.dtype == counts.dtype == np.int64
                assert counts.tolist() == [len(e) for e in expect]
                assert slot_idx.tolist() == (
                    np.concatenate(expect).tolist() if expect else [])
