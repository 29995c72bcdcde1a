"""Unit tests for repro.graph.csr: CSRGraph and the dedup primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph, first_occurrence, sorted_unique
from repro.graph.edgelist import canonical_edges


class TestConstruction:
    def test_triangle_basics(self, triangle):
        assert triangle.num_vertices == 3
        assert triangle.num_edges == 3
        assert triangle.degree(0) == 2

    def test_empty_graph(self):
        g = CSRGraph(np.empty((0, 2), dtype=np.int64))
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.max_degree() == 0

    def test_isolated_vertices_via_override(self):
        g = CSRGraph(np.array([[0, 1]]), num_vertices=5)
        assert g.num_vertices == 5
        assert g.degree(4) == 0

    def test_num_vertices_override_too_small(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([[0, 9]]), num_vertices=3)

    def test_defensive_canonicalisation(self):
        g = CSRGraph(np.array([[2, 0], [0, 2], [1, 1]]))
        assert g.num_edges == 1
        assert g.edge_endpoints(0) == (0, 2)


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

    def test_edge_endpoints_ordered(self, two_triangles):
        for eid in range(two_triangles.num_edges):
            u, v = two_triangles.edge_endpoints(eid)
            assert u < v

    def test_has_edge(self, path4):
        assert path4.has_edge(0, 1)
        assert path4.has_edge(1, 0)
        assert not path4.has_edge(0, 3)
        assert not path4.has_edge(0, 99)

    def test_average_degree(self, triangle):
        assert triangle.average_degree() == pytest.approx(2.0)

    def test_memory_bytes_positive(self, small_rmat):
        assert small_rmat.memory_bytes() > 0

    def test_subgraph_edges(self, triangle):
        mask = np.array([True, False, True])
        sub = triangle.subgraph_edges(mask)
        assert len(sub) == 2


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
