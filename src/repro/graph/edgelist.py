"""Edge-list utilities.

Every graph in this library is, at its root, an ``(m, 2)`` int64 numpy
array of undirected edges.  The canonical form used throughout is:

* each edge stored once, oriented ``src < dst`` — self-loops removed
  (the partitioning problem in the paper is defined on simple
  undirected graphs),
* rows strictly ascending in lexicographic ``(src, dst)`` order, hence
  no duplicate rows.

An edge list is sorted **once**: :func:`canonical_edges` packs each
oriented row into one ``int64`` key ``src << bits | dst`` and dedups it
with :func:`sorted_unique` — one SIMD sort with the GIL released, where
a row-wise ``np.unique`` is a structured-dtype comparison sort that
holds it (30x slower, a half-second stall for every other thread).
Ids that do not pack (negative, or 32 bits and wider) take an
``np.lexsort``.  :func:`is_canonical` is the O(m) check that lets a
consumer adopt a canonical array instead of sorting it again.

The helpers here also relabel vertex ids into a compact ``0..n-1``
range and read/write simple TSV edge files, the interchange format the
examples use.  ``sorted_unique`` lives here, at the bottom of the
package's import graph; :mod:`repro.graph.csr` re-exports it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sorted_unique",
    "edges_from_pairs",
    "canonical_edges",
    "is_canonical",
    "relabel_compact",
    "num_vertices",
    "save_edges_tsv",
    "load_edges_tsv",
]


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Boolean mask of the first element of every run of equal values."""
    starts = np.empty(len(sorted_values), dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=starts[1:])
    return starts


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Ascending distinct values of the 1-D integer array ``keys`` —
    what ``np.unique(keys)`` returns, as one SIMD sort plus an
    adjacent-difference mask (``np.unique`` on int64 hashes and then
    sorts, ~10x slower at the kernels' batch sizes)."""
    keys = np.sort(keys)
    return keys[_run_starts(keys)]


def edges_from_pairs(pairs) -> np.ndarray:
    """Convert an iterable of ``(u, v)`` pairs into an ``(m, 2)`` array.

    Accepts lists of tuples, lists of lists, or an existing array.
    The result is *not* canonicalised; call :func:`canonical_edges`
    for that.
    """
    arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                     dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edge array must have shape (m, 2), got {arr.shape}")
    return arr


def canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Return the canonical undirected form of ``edges``.

    Rows are oriented ``src < dst``, self-loops dropped, duplicates
    merged, and the result sorted lexicographically — exactly what
    ``np.unique(oriented_rows, axis=0)`` returns.  This is the form
    every partitioner in the library expects.
    """
    edges = edges_from_pairs(edges)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    # initial=0: an empty list flows through the packed branch.
    bits = int(hi.max(initial=0)).bit_length()
    if int(lo.min(initial=0)) < 0 or 2 * bits > 63:
        # The pair does not pack into one int64: two-key sort instead.
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        first = _run_starts(lo)
        first[1:] |= hi[1:] != hi[:-1]
        lo, hi = lo[first], hi[first]
    else:
        keys = lo << bits
        keys |= hi
        keys = sorted_unique(keys)
        lo, hi = keys >> bits, keys & ((1 << bits) - 1)
    return np.stack([lo, hi], axis=1)


#: rows per block of :func:`is_canonical` — bounds its boolean
#: temporaries at a few hundred KB whatever m is
CANONICAL_CHECK_ROWS = 1 << 16


def is_canonical(edges) -> bool:
    """True iff ``edges`` is already in canonical form: a C-contiguous
    int64 ``(m, 2)`` array with ``0 <= src < dst`` in every row and
    rows strictly ascending lexicographically.  One vectorised O(m)
    pass — what lets :class:`~repro.graph.csr.CSRGraph` adopt a
    generator's output without sorting it a second time.  The pass runs
    in blocks of :data:`CANONICAL_CHECK_ROWS` rows, each reaching one
    row back so the order across a block seam is checked too, and
    stops at the first block that fails."""
    if not (isinstance(edges, np.ndarray) and edges.dtype == np.int64
            and edges.ndim == 2 and edges.shape[1] == 2
            and edges.flags.c_contiguous):
        return False
    if len(edges) == 0:
        return True
    if edges[0, 0] < 0:  # rows ascend, so no later src is negative
        return False
    for start in range(0, len(edges), CANONICAL_CHECK_ROWS):
        block = edges[max(start - 1, 0):start + CANONICAL_CHECK_ROWS]
        u, v = block[:, 0], block[:, 1]
        u_next, u_prev = u[1:], u[:-1]
        if not ((u < v).all()
                and ((u_next > u_prev)
                     | ((u_next == u_prev) & (v[1:] > v[:-1]))).all()):
            return False
    return True


def num_vertices(edges: np.ndarray) -> int:
    """Number of vertices implied by the edge list (``max id + 1``)."""
    if len(edges) == 0:
        return 0
    return int(edges.max()) + 1


def relabel_compact(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relabel vertex ids to a dense ``0..n-1`` range.

    Returns ``(new_edges, old_ids)`` where ``old_ids[new_id]`` recovers
    the original id.  Useful after generators that leave id gaps (RMAT
    leaves many isolated ids at low edge factors).
    """
    edges = edges_from_pairs(edges)
    old_ids = sorted_unique(edges.ravel())
    return np.searchsorted(old_ids, edges), old_ids


def save_edges_tsv(path, edges: np.ndarray) -> None:
    """Write one ``src\\tdst`` line per edge."""
    edges = edges_from_pairs(edges)
    with open(path, "w", encoding="utf-8") as fh:
        # One format call and one write for the whole file.
        fh.write("%d\t%d\n" * len(edges) % tuple(edges.ravel().tolist()))


def load_edges_tsv(path) -> np.ndarray:
    """Read an edge list written by :func:`save_edges_tsv`.

    Blank lines and lines starting with ``#`` are skipped and columns
    past the second ignored, so SNAP-format files load directly.  A
    line with fewer than two tokens, a token that is not an integer, or
    a negative vertex id raises ``ValueError`` naming ``path:lineno``
    and the line.
    """
    try:
        edges = np.loadtxt(path, dtype=np.int64, comments="#",
                           usecols=(0, 1), ndmin=2, encoding="utf-8")
        if edges.size == 0 or edges.min() >= 0:
            return edges
    except ValueError:
        pass
    # The bulk parser reports data rows, not file lines: find the line.
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            try:
                row = (int(parts[0]), int(parts[1]))
            except (IndexError, ValueError):
                raise ValueError(
                    f"{path}:{lineno}: expected two integer vertex ids, "
                    f"got {line.strip()!r}") from None
            if min(row) < 0:
                raise ValueError(
                    f"{path}:{lineno}: negative vertex id in "
                    f"{line.strip()!r}")
            rows.append(row)
    return edges_from_pairs(rows)
