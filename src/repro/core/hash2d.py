"""2D-hash initial placement (§4, "Data Structure").

The input graph is distributed over the ``|P|`` allocation processes by
2D-hash (grid) partitioning: the processes form an ``r x c`` grid and
edge ``(u, v)`` is placed on the cell addressed by the endpoint hashes.
The property the paper exploits is that a vertex's replica locations
are *computable from its id alone* — vertex ``v`` can only ever appear
on the processes of grid row ``row(v)`` and grid column ``col(v)`` —
so no vertex→process table has to be stored, which matters at
trillion-edge scale.

:class:`Hash2DPlacement` packages the three queries the algorithm
needs: the home process of an edge, the replica candidate set of a
vertex, and vectorised placement of a whole edge array.

A 1D variant (:class:`Hash1DPlacement`) is provided for the ablation
bench: it scatters edges uniformly, which destroys the computable-
replica property (every process may hold any vertex).
"""

from __future__ import annotations

import numpy as np

from repro.partitioners.hashing import grid_shape, splitmix64

__all__ = ["Hash2DPlacement", "Hash1DPlacement"]


class Hash2DPlacement:
    """Grid placement of edges over ``num_processes`` allocation procs."""

    kind = "2d"

    def __init__(self, num_processes: int, seed: int = 0):
        self.num_processes = num_processes
        self.rows, self.cols = grid_shape(num_processes)
        self.seed = seed

    # -- vectorised edge placement ---------------------------------------
    def place_edges(self, edges: np.ndarray) -> np.ndarray:
        """Home process id for each canonical edge ``(u, v)``."""
        hu = splitmix64(edges[:, 0], seed=self.seed)
        hv = splitmix64(edges[:, 1], seed=self.seed + 1)
        r = (hu % np.uint64(self.rows)).astype(np.int64)
        c = (hv % np.uint64(self.cols)).astype(np.int64)
        return r * self.cols + c

    # -- metadata computable from the vertex id ---------------------------
    def vertex_row(self, v: int) -> int:
        return int(splitmix64(np.int64(v), seed=self.seed)
                   % np.uint64(self.rows))

    def vertex_col(self, v: int) -> int:
        return int(splitmix64(np.int64(v), seed=self.seed + 1)
                   % np.uint64(self.cols))

    def replica_processes(self, v: int) -> list[int]:
        """All processes that may hold edges of ``v`` (row ∪ column).

        Canonical edges are stored as ``(u, v)`` with ``u < v``; as
        either endpoint, ``v`` contributes its hash-row (as first
        endpoint) and its hash-column (as second), i.e. the processes
        ``{row(v) * cols + j} ∪ {i * cols + col(v)}``.
        """
        row = self.vertex_row(v)
        col = self.vertex_col(v)
        procs = {row * self.cols + j for j in range(self.cols)}
        procs.update(i * self.cols + col for i in range(self.rows))
        return sorted(procs)

    def replica_count(self, v: int) -> int:
        """Size of the replica candidate set (``rows + cols - 1``)."""
        return self.rows + self.cols - 1

    def _grid_cells(self, vs) -> tuple[np.ndarray, np.ndarray]:
        """Batched ``(vertex_row, vertex_col)``."""
        vs = np.asarray(vs, dtype=np.int64)
        return ((splitmix64(vs, seed=self.seed)
                 % np.uint64(self.rows)).astype(np.int64),
                (splitmix64(vs, seed=self.seed + 1)
                 % np.uint64(self.cols)).astype(np.int64))

    def replica_membership(self, vs: np.ndarray) -> np.ndarray:
        """Batched replica sets: ``(len(vs), num_processes)`` boolean.

        ``out[i, q]`` is True iff process ``q`` is a replica candidate
        of ``vs[i]`` — the vectorised form of
        :meth:`replica_processes`, and the definition
        :meth:`replica_hits` (what the kernels call) is pinned against.
        """
        r, c = self._grid_cells(vs)
        procs = np.arange(self.num_processes, dtype=np.int64)
        proc_row = procs // self.cols
        proc_col = procs % self.cols
        return (r[:, None] == proc_row[None, :]) | \
               (c[:, None] == proc_col[None, :])

    def replica_hits(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Enumerated replica sets, what the fan-out kernels consume:
        ``np.nonzero(replica_membership(vs))`` — vertex-major, processes
        ascending — without the ``k × |P|`` matrix.  A vertex's ``rows +
        cols - 1`` candidates depend only on its grid cell: one gather
        from a per-cell table.  Both arrays are int32, like the
        message rows they index and address."""
        table = getattr(self, "_hit_table", None)
        if table is None:
            cell = np.arange(self.num_processes, dtype=np.int64)
            row, col = cell // self.cols, cell % self.cols
            table = self._hit_table = np.nonzero(
                (row[:, None] == row) | (col[:, None] == col))[1].astype(
                    np.int32).reshape(self.num_processes,
                                      self.rows + self.cols - 1)
        r, c = self._grid_cells(vs)
        return (np.repeat(np.arange(len(vs), dtype=np.int32), table.shape[1]),
                table[r * self.cols + c].ravel())


class Hash1DPlacement:
    """Uniform 1D scatter — the ablation alternative to the grid.

    Every process may hold edges of every vertex, so
    ``replica_processes`` must return all of them: synchronisation
    fan-out becomes ``|P|`` instead of ``rows + cols - 1``.
    """

    kind = "1d"

    def __init__(self, num_processes: int, seed: int = 0):
        self.num_processes = num_processes
        self.seed = seed

    def place_edges(self, edges: np.ndarray) -> np.ndarray:
        h = splitmix64(np.arange(len(edges)), seed=self.seed)
        return (h % np.uint64(self.num_processes)).astype(np.int64)

    def replica_processes(self, v: int) -> list[int]:
        return list(range(self.num_processes))

    def replica_count(self, v: int) -> int:
        return self.num_processes

    def replica_membership(self, vs: np.ndarray) -> np.ndarray:
        """Every process is a candidate for every vertex (1D scatter)."""
        return np.ones((len(vs), self.num_processes), dtype=bool)

    def replica_hits(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every (vertex, process) pair — the 2D placement's contract
        (int32, as there)."""
        vidx, procs = np.indices((len(vs), self.num_processes),
                                 dtype=np.int32)
        return vidx.ravel(), procs.ravel()
