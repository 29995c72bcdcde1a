"""Undirected graph: a canonical edge array, with its CSR adjacency
built on first walk.

The paper stores the graph inside each allocation process as a
compressed sparse row array (§4, "Data Structure"): a contiguous
``indptr`` / ``indices`` pair rather than hash maps, which is the source
of its order-of-magnitude memory advantage over ParMETIS/Sheep.  This
module provides the same structure for the whole library: generators
produce edge lists, and :class:`CSRGraph` wraps one.  The graph *is*
its canonical edge array (16 bytes per edge); the global adjacency
(``indptr`` / ``indices`` / ``edge_ids``, ≈ 32 more bytes per edge) is
built the first time a partitioner walks it — NE, SNE, Sheep,
``metis_like``, Spinner, XtraPuLP, Ginger — and kept.  Distributed NE
builds only each machine's local CSR, and the hash and streaming
methods, the metrics and the run store read the edge array and
:meth:`CSRGraph.degrees` alone, so none of them pays for it.

For an undirected graph each edge ``{u, v}`` appears twice in the
adjacency (once per endpoint); ``edge_ids`` maps each adjacency slot
back to the canonical edge index so per-edge state (e.g. "already
allocated") can live in one flat array.

Adjacency rows are sorted by neighbour id, which keeps gather kernels
cache-friendly.  The constructor *verifies* the canonical edge order
(:func:`is_canonical`, one O(m) pass) and canonicalises only an input
that fails, so an edge list a generator already sorted is sorted once.
That order gives the forward half (``u -> v``, ``u < v``) grouped by
``u`` with ``v`` ascending; only the backward half needs ordering, by
one sort of packed ``v << bits | edge_id`` keys — a plain int64 sort,
which NumPy vectorises, where a stable int64 ``argsort`` is a merge
sort plus a gather.  Both halves scatter to ``position + a per-row offset``; no
sort over the full ``2m`` symmetrised array is performed.
"""

from __future__ import annotations

import numpy as np

from repro.graph.edgelist import (_run_starts, canonical_edges, is_canonical,
                                  sorted_unique)

__all__ = ["CSRGraph", "adjacency_slots", "first_occurrence",
           "sorted_unique", "symmetrised_csr"]


def first_occurrence(values: np.ndarray,
                     scratch: np.ndarray | None = None) -> np.ndarray:
    """Indices of the first occurrence of each distinct value, in
    ascending position order — exactly the slots a sequential walk over
    ``values`` would act on (later duplicates see the work already
    done).  Shared by the vectorized kernels' order-preserving dedup.

    With ``scratch`` — a caller-owned integer buffer wide enough to hold
    a position below ``len(values)`` — the values must lie in
    ``[0, len(scratch))`` and no sort runs: positions are
    scattered onto ``scratch[values]`` back to front, so the first
    writer of each value is the one left standing (NumPy assigns a 1-D
    index array's elements in order; the property tests pin it), and
    one gather reads the winners back.  Only the slots of this call's
    values are written and read, so stale contents never matter and
    the buffer is reused across calls without clearing.

    Without a bound, ``value * n + position`` keys go through one sort
    and the head of each value run carries its lowest position.
    """
    n = len(values)
    if n < 2:
        return np.arange(n, dtype=np.int64)
    pos = np.arange(n, dtype=np.int64)
    if scratch is not None:
        if int(values.min()) < 0 or int(values.max()) >= len(scratch):
            raise ValueError("first_occurrence: value outside the "
                             f"scratch bound [0, {len(scratch)})")
        if n - 1 > np.iinfo(scratch.dtype).max:
            raise ValueError("first_occurrence: positions overflow the "
                             f"{scratch.dtype} scratch")
        scratch[values[::-1]] = pos[::-1]
        return np.flatnonzero(scratch[values] == pos)
    lo = int(values.min())
    if (int(values.max()) - lo + 1) * n >= 2 ** 63:
        # value * n would overflow: stable sort of the values instead.
        order = np.argsort(values, kind="stable")
        return np.sort(order[_run_starts(values[order])])
    keys = values.astype(np.int64)
    keys -= lo
    keys *= n
    keys += pos
    keys.sort()
    first = keys[_run_starts(keys // n)] % n
    first.sort()
    return first


def adjacency_slots(indptr: np.ndarray, rows: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the index ranges ``[indptr[r], indptr[r+1])`` of the
    given rows, in row order — the batched form of a per-row slice walk.

    Returns ``(slot_idx, counts)``: ``slot_idx`` indexes the flat
    adjacency arrays in (row, slot) order, ``counts`` is the per-row
    slice length.  Shared by every vectorized kernel that gathers whole
    adjacency slices (one-hop/two-hop allocation, NE expansion), so the
    arithmetic lives in exactly one place.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    bases = np.cumsum(counts) - counts
    slot_idx = np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(
        starts - bases, counts)
    return slot_idx, counts


def symmetrised_csr(edges: np.ndarray, n: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build ``(indptr, indices, edge_ids)`` with neighbour-sorted rows.

    ``edges`` must be canonical (``u < v``, lexicographically sorted).
    Counting-sort bucketing: row x is [neighbours < x] ++
    [neighbours > x], each ascending.  The backward (v->u) half is
    grouped by v with u ascending by sorting ``v << bits | edge_id``
    keys (edge ids ascend with u inside one v); the forward (u->v) half
    inherits its order from the canonical edges.  In those orders the
    j-th backward entry lands at j plus the forward entries of all
    earlier rows, the j-th forward entry at j plus the backward entries
    of its own and all earlier rows, so both halves scatter directly
    into place.
    """
    m = len(edges)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices = np.empty(2 * m, dtype=np.int64)
    edge_ids = np.empty(2 * m, dtype=np.int64)
    if m:
        u, v = edges[:, 0], edges[:, 1]
        cf = np.bincount(u, minlength=n)   # forward row sizes
        cb = np.bincount(v, minlength=n)   # backward row sizes
        np.cumsum(cf + cb, out=indptr[1:])
        eid = np.arange(m, dtype=np.int64)

        bits = (m - 1).bit_length()
        if int(n).bit_length() + bits > 63:
            # v << bits would overflow: stable sort of v instead.
            border = np.argsort(v, kind="stable")
            vs = v[border]
        else:
            keys = v << bits
            keys |= eid
            keys.sort()
            border = keys & ((1 << bits) - 1)
            vs = keys >> bits
        pos_b = eid + (np.cumsum(cf) - cf)[vs]
        indices[pos_b] = u[border]
        edge_ids[pos_b] = border

        pos_f = eid + np.cumsum(cb)[u]
        indices[pos_f] = v
        edge_ids[pos_f] = eid
    return indptr, indices, edge_ids


#: without a ``num_vertices`` override, ids must lie below
#: ``max(_ID_SPACE_FLOOR, _IDS_PER_EDGE * |E|)`` (see :class:`CSRGraph`)
_ID_SPACE_FLOOR = 2 ** 20
_IDS_PER_EDGE = 16


class CSRGraph:
    """Undirected graph: its canonical edge array, plus the CSR
    adjacency built on first walk.

    Parameters
    ----------
    edges:
        ``(m, 2)`` canonical edge array (see
        :func:`repro.graph.edgelist.canonical_edges`).  Any pair list
        works — one that fails :func:`~repro.graph.edgelist.is_canonical`
        is canonicalised into a fresh array — but a canonical array is
        **adopted, not copied**: the graph keeps a read-only view of the
        caller's buffer, which the caller must not write to
        afterwards.  A negative vertex id raises ``ValueError`` naming
        it.

        The id space is bounded against |E|: without a
        ``num_vertices`` override the largest id must be below
        ``max(2**20, 16 * |E|)``, so ``indptr`` (8 bytes per id) costs
        at most 128 bytes per edge or 8 MiB.  A sparser id space raises
        ``ValueError`` naming the id before anything is allocated;
        :func:`~repro.graph.edgelist.relabel_compact` maps it onto
        ``0..n-1``.
    num_vertices:
        Optional vertex-count override, an integer (a ``bool``, a float
        or a string raises ``ValueError`` naming it — it may come
        straight from a file).  Must be at least ``max id + 1``; ids in
        ``[0, num_vertices)`` with no incident edge are isolated
        vertices (degree 0).  It states the id space explicitly, so the
        bound above does not apply (a sampled subgraph keeps its
        parent's id space).

    Attributes
    ----------
    edges:
        The canonical ``(m, 2)`` edge array, read-only; edge ``i`` is
        ``edges[i] = (u, v)`` with ``u < v``.  The only O(m) array a
        graph holds from construction.
    indptr, indices:
        Standard CSR arrays over the *symmetrised* adjacency, built by
        :func:`symmetrised_csr` on the first read of either of them or
        of ``edge_ids``, and kept.
    edge_ids:
        Parallel to ``indices``; ``edge_ids[k]`` is the canonical edge
        index of the adjacency slot ``k``.

    The lazy build takes no lock: no code shares a graph between
    threads before its first walk (execution backends receive arrays,
    not a graph), the build is deterministic and the three arrays are
    published by one attribute assignment, so a race could only build
    them twice, never expose a half-built adjacency.
    """

    __slots__ = ("edges", "n", "m", "_adjacency", "_degrees")

    def __init__(self, edges: np.ndarray, num_vertices: int | None = None):
        if num_vertices is not None:
            num_vertices = _vertex_count(num_vertices)
        if not is_canonical(edges):
            edges = canonical_edges(edges)
            # rows are sorted with u < v: the first u is the least id
            if len(edges) and edges[0, 0] < 0:
                raise ValueError(f"negative vertex id {edges[0, 0]}")
        edges = edges.view()
        edges.flags.writeable = False
        self.edges = edges
        self.m = len(edges)
        inferred = int(edges.max()) + 1 if self.m else 0
        if num_vertices is None:
            bound = max(_ID_SPACE_FLOOR, _IDS_PER_EDGE * self.m)
            if inferred > bound:
                raise ValueError(
                    f"vertex id {inferred - 1} is past the id-space bound "
                    f"of {bound} ids for {self.m} edges; relabel the ids "
                    "to 0..n-1 first (repro.graph.edgelist.relabel_compact)")
            num_vertices = inferred
        elif num_vertices < inferred:
            raise ValueError(
                f"num_vertices={num_vertices} smaller than max id + 1 = {inferred}")
        self.n = num_vertices
        self._adjacency = None
        self._degrees = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices (including isolated ones)."""
        return self.n

    @property
    def num_edges(self) -> int:
        """Number of canonical undirected edges."""
        return self.m

    def _walk(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, edge_ids)``, built on the first call."""
        adjacency = self._adjacency
        if adjacency is None:
            adjacency = self._adjacency = symmetrised_csr(self.edges, self.n)
        return adjacency

    @property
    def indptr(self) -> np.ndarray:
        return self._walk()[0]

    @property
    def indices(self) -> np.ndarray:
        return self._walk()[1]

    @property
    def edge_ids(self) -> np.ndarray:
        return self._walk()[2]

    def degrees(self) -> np.ndarray:
        """Vector of all vertex degrees, read-only and kept: a
        ``bincount`` of the edge array, which equals ``np.diff(indptr)``
        (canonical edges have no self-loops) without building the
        adjacency."""
        degrees = self._degrees
        if degrees is None:
            degrees = np.bincount(self.edges.ravel(), minlength=self.n)
            degrees.flags.writeable = False
            self._degrees = degrees
        return degrees

    def max_degree(self) -> int:
        """Maximum degree, 0 for an empty graph."""
        if self.n == 0:
            return 0
        return int(self.degrees().max())

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour ids of ``v``, ascending (view into ``indices``)."""
        indptr, indices, _ = self._walk()
        return indices[indptr[v]:indptr[v + 1]]

    def incident_edge_ids(self, v: int) -> np.ndarray:
        """Canonical edge ids incident to ``v`` (view into ``edge_ids``)."""
        indptr, _, edge_ids = self._walk()
        return edge_ids[indptr[v]:indptr[v + 1]]

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Bytes held by the graph's arrays that exist now: the edge
        array, plus the degrees and the adjacency once built.

        Figure 9's "mem score" prices a baseline's whole CSR from |V|
        and |E| instead (:func:`~repro.bench.harness.method_memory_bytes`),
        so it does not depend on what was read first.
        """
        held = [self.edges, self._degrees, *(self._adjacency or ())]
        return sum(arr.nbytes for arr in held if arr is not None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(n={self.n}, m={self.m})"


def _vertex_count(value) -> int:
    """``value`` as a vertex count, or ``ValueError`` naming it: an
    integer (NumPy's included) that is not a ``bool``."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(
            value, (int, np.integer)):
        raise ValueError(f"num_vertices must be an integer, got {value!r}")
    return int(value)
