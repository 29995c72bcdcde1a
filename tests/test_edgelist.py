"""Unit tests for repro.graph.edgelist."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import edgelist
from repro.graph.edgelist import (
    canonical_edges,
    edges_from_pairs,
    is_canonical,
    load_edges_tsv,
    num_vertices,
    relabel_compact,
    save_edges_tsv,
)


class TestEdgesFromPairs:
    def test_list_of_tuples(self):
        arr = edges_from_pairs([(0, 1), (2, 3)])
        assert arr.shape == (2, 2)
        assert arr.dtype == np.int64

    def test_empty(self):
        arr = edges_from_pairs([])
        assert arr.shape == (0, 2)

    def test_passthrough_array(self):
        src = np.array([[1, 2]], dtype=np.int64)
        assert edges_from_pairs(src).shape == (1, 2)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            edges_from_pairs([(1, 2, 3)])


class TestCanonicalEdges:
    def test_orients_rows(self):
        out = canonical_edges(np.array([[5, 2], [1, 3]]))
        assert (out[:, 0] <= out[:, 1]).all()

    def test_removes_self_loops(self):
        out = canonical_edges(np.array([[1, 1], [0, 2]]))
        assert len(out) == 1
        assert out[0].tolist() == [0, 2]

    def test_dedups_both_orientations(self):
        out = canonical_edges(np.array([[0, 1], [1, 0], [0, 1]]))
        assert len(out) == 1

    def test_sorted_lexicographically(self):
        out = canonical_edges(np.array([[3, 4], [0, 9], [0, 2]]))
        assert out.tolist() == [[0, 2], [0, 9], [3, 4]]

    def test_all_self_loops_gives_empty(self):
        out = canonical_edges(np.array([[1, 1], [2, 2]]))
        assert out.shape == (0, 2)

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                    max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_canonical_is_idempotent(self, pairs):
        once = canonical_edges(edges_from_pairs(pairs))
        twice = canonical_edges(once)
        assert np.array_equal(once, twice)

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                    min_size=1, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_canonical_preserves_edge_set(self, pairs):
        out = canonical_edges(edges_from_pairs(pairs))
        expected = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
        assert {tuple(row) for row in out.tolist()} == expected


def _canonical_by_row_unique(pairs) -> np.ndarray:
    """The definition ``canonical_edges`` replaced: orient, drop
    self-loops, row-wise ``np.unique``."""
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    lo, hi = arr.min(axis=1), arr.max(axis=1)
    rows = np.stack([lo, hi], axis=1)[lo != hi]
    return np.unique(rows, axis=0).reshape(-1, 2)


def _pairs(ids, max_size=120):
    return st.lists(st.tuples(ids, ids), max_size=max_size)


_PAIR_LISTS = st.one_of(
    _pairs(st.integers(0, 4)),                            # heavy duplicates
    _pairs(st.integers(0, 300)),
    _pairs(st.integers(-20, 20)),                         # negative ids
    _pairs(st.integers(2 ** 32 - 3, 2 ** 32 + 3)),        # does not pack
    _pairs(st.integers(-2 ** 62, 2 ** 62), max_size=40),
    _pairs(st.sampled_from([0, 1, 2 ** 31 - 1, 2 ** 31, 2 ** 62])),
    st.lists(st.integers(0, 9).map(lambda v: (v, v)), max_size=20),
    # every edge in both orientations
    _pairs(st.integers(0, 50), max_size=60).map(
        lambda ps: ps + [(v, u) for u, v in ps]))


class TestPackedCanonicalisation:
    """``canonical_edges`` against the row-wise ``np.unique`` definition,
    on both the packed-key and the ``lexsort`` branch; ``is_canonical``
    true exactly on its (non-negative) outputs."""

    @given(_PAIR_LISTS)
    @settings(max_examples=300, deadline=None)
    def test_equals_row_unique_definition(self, pairs):
        expect = _canonical_by_row_unique(pairs)
        raw = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        before = raw.copy()
        for given_as in (pairs, raw):
            out = canonical_edges(given_as)
            assert out.dtype == np.int64 and out.shape == expect.shape
            assert out.flags.c_contiguous
            assert np.array_equal(out, expect)
        assert np.array_equal(raw, before)            # input untouched
        assert is_canonical(out) == (len(out) == 0 or out.min() >= 0)
        if is_canonical(raw):
            assert np.array_equal(raw, expect)

    def test_int32_input(self):
        raw = np.array([[7, 2], [2, 7], [3, 3], [0, 2 ** 31 - 1]],
                       dtype=np.int32)
        out = canonical_edges(raw)
        assert out.dtype == np.int64
        assert np.array_equal(out, _canonical_by_row_unique(raw))

    def test_ids_at_the_packing_bound(self):
        below, above = 2 ** 31 - 1, 2 ** 31     # 31 bits pack, 32 do not
        for top in (below, above):
            raw = [(top, 0), (5, top), (0, top), (top - 1, top), (top, top)]
            assert np.array_equal(canonical_edges(raw),
                                  _canonical_by_row_unique(raw))

    @pytest.mark.parametrize("edges", [
        np.array([[0, 2], [0, 1]]),                       # unsorted
        np.array([[0, 1], [1, 2], [0, 3]]),               # src descends
        np.array([[0, 1], [0, 1]]),                       # duplicate row
        np.array([[0, 1], [2, 2]]),                       # self-loop
        np.array([[1, 0]]),                               # u > v
        np.array([[-1, 0]]),                              # negative id
        np.array([[0, 1]], dtype=np.int32),               # wrong dtype
        np.array([[0.0, 1.0]]),
        np.array([0, 1]),                                 # wrong shape
        np.array([[0, 1, 2]]),
        np.array([[0, 1], [5, 6], [2, 3]])[::2],          # not contiguous
        [(0, 1)],                                         # not an array
    ])
    def test_is_canonical_rejects(self, edges):
        assert not is_canonical(edges)

    def test_is_canonical_accepts(self):
        assert is_canonical(np.empty((0, 2), dtype=np.int64))
        assert is_canonical(np.array([[0, 1]]))
        assert is_canonical(np.array([[0, 1], [0, 2], [1, 2], [5, 9]]))

    def test_is_canonical_checks_across_block_seams(self, monkeypatch):
        """The check runs in row blocks; a violation between the last
        row of one block and the first of the next is still caught."""
        rows = edgelist.CANONICAL_CHECK_ROWS
        u = np.arange(2 * rows + 5, dtype=np.int64)
        edges = np.stack([u, u + 1], axis=1)
        assert is_canonical(edges)
        swapped = edges.copy()
        swapped[[rows - 1, rows]] = swapped[[rows, rows - 1]]
        assert not is_canonical(swapped)
        duplicate = edges.copy()
        duplicate[rows] = duplicate[rows - 1]
        assert not is_canonical(duplicate)
        # every seam and in-block position at a four-row block
        monkeypatch.setattr(edgelist, "CANONICAL_CHECK_ROWS", 4)
        small = edges[:23]
        assert is_canonical(small)
        for i in range(1, len(small)):
            bad = small.copy()
            bad[[i - 1, i]] = bad[[i, i - 1]]
            assert not is_canonical(bad), i
        loop = small.copy()
        loop[-1, 1] = loop[-1, 0]          # self-loop in the last block
        assert not is_canonical(loop)


class TestRelabelAndIds:
    def test_relabel_compact_dense_range(self):
        edges = np.array([[10, 20], [20, 30]])
        new, old = relabel_compact(edges)
        assert set(np.unique(new)) == {0, 1, 2}
        assert old.tolist() == [10, 20, 30]

    def test_relabel_roundtrip(self):
        edges = canonical_edges(np.array([[100, 7], [7, 55]]))
        new, old = relabel_compact(edges)
        restored = old[new]
        assert np.array_equal(np.sort(restored, axis=1),
                              np.sort(edges, axis=1))

    def test_num_vertices(self):
        assert num_vertices(np.array([[0, 5]])) == 6
        assert num_vertices(np.empty((0, 2), dtype=np.int64)) == 0

    @given(_pairs(st.integers(-50, 50)))
    @settings(max_examples=60, deadline=None)
    def test_ids_and_relabel_equal_np_unique(self, pairs):
        edges = edges_from_pairs(pairs)
        old_ids, inverse = np.unique(edges, return_inverse=True)
        new, old = relabel_compact(edges)
        assert new.dtype == np.int64 and new.shape == edges.shape
        assert np.array_equal(new, inverse.reshape(edges.shape))
        assert np.array_equal(old, old_ids)


class TestPermuteAndIO:
    def test_tsv_roundtrip(self, tmp_path):
        edges = canonical_edges(np.array([[0, 1], [2, 5], [1, 4]]))
        path = tmp_path / "edges.tsv"
        save_edges_tsv(path, edges)
        loaded = load_edges_tsv(path)
        assert np.array_equal(loaded, edges)

    def test_tsv_skips_comments(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# comment\n0\t1\n\n2\t3\n")
        loaded = load_edges_tsv(path)
        assert loaded.tolist() == [[0, 1], [2, 3]]

    def test_tsv_ignores_extra_columns_and_mixed_whitespace(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0 1 0.5 x\n  # indented comment\n2\t3\textra\n4  +1")
        loaded = load_edges_tsv(path)
        assert loaded.dtype == np.int64
        assert loaded.tolist() == [[0, 1], [2, 3], [4, 1]]

    @pytest.mark.parametrize("text, lineno, offending", [
        ("0\t1\n-3\t2\n", 2, "-3\t2"),
        ("# c\n0 1\n4  -7 x\n", 3, "4  -7 x"),
    ])
    def test_tsv_negative_id_names_path_and_line(self, tmp_path, text,
                                                 lineno, offending):
        path = tmp_path / "neg.tsv"
        path.write_text(text)
        with pytest.raises(ValueError, match="negative vertex id") as err:
            load_edges_tsv(path)
        assert f"{path}:{lineno}:" in str(err.value)
        assert repr(offending) in str(err.value)

    def test_tsv_bytes_are_one_tab_separated_line_per_edge(self, tmp_path):
        path = tmp_path / "edges.tsv"
        save_edges_tsv(path, [(3, 1), (2 ** 40, 7)])
        assert path.read_bytes() == b"3\t1\n1099511627776\t7\n"
        save_edges_tsv(path, np.empty((0, 2), dtype=np.int64))
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("text, lineno, offending", [
        ("0\t1\n5\n", 2, "5"),                         # one token
        ("# c\n\n0 1\n2 x\n", 4, "2 x"),               # not an integer
        ("1.5 2\n", 1, "1.5 2"),
        ("0 1\n2 #3\n", 2, "2 #3"),
    ])
    def test_tsv_malformed_line_names_path_and_line(self, tmp_path, text,
                                                    lineno, offending):
        path = tmp_path / "bad.tsv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_edges_tsv(path)
        assert f"{path}:{lineno}:" in str(err.value)
        assert repr(offending) in str(err.value)
