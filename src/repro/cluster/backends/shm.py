"""Shared-memory arenas for the processes backend.

One :class:`ShmArena` packs a set of named NumPy arrays into a single
``multiprocessing.shared_memory`` segment with an 8-byte-aligned
offset table.  The processes backend creates the arena (copying the
arrays in once); workers open it by spec and get zero-copy views —
the mechanism that maps a program's named arrays (for DNE the
canonical edge array, the home-grouped edge ids and the per-partition
remaining-degree and local-vertex arrays) into every worker without
per-worker copies or pickling.

Ownership rules: the parent calls :meth:`ShmArena.unlink` exactly once
after the run (destroying the segment); every mapping — parent and
workers — calls :meth:`ShmArena.close` when done with its views.
Views keep the mapping alive via a reference to the segment, so arrays
handed out by :meth:`array` are safe for the arena's lifetime.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

__all__ = ["ShmArena"]


def _aligned(nbytes: int) -> int:
    return (nbytes + 7) & ~7


class ShmArena:
    """Named NumPy arrays in one shared-memory segment."""

    def __init__(self, shm: shared_memory.SharedMemory, entries: dict,
                 owner: bool):
        self._shm = shm
        #: name -> (dtype str, shape tuple, offset)
        self._entries = entries
        self._owner = owner
        self._closed = False

    # -- parent side ---------------------------------------------------
    @classmethod
    def create(cls, arrays: dict) -> "ShmArena":
        """Allocate a segment sized for ``arrays`` and copy them in."""
        contiguous = {name: np.ascontiguousarray(arr)
                      for name, arr in arrays.items()}
        entries = {}
        total = 0
        for name, arr in contiguous.items():
            entries[name] = (arr.dtype.str, arr.shape, total)
            total += _aligned(arr.nbytes)
        shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
        arena = cls(shm, entries, owner=True)
        for name, arr in contiguous.items():
            arena.array(name)[...] = arr
        return arena

    def spec(self) -> dict:
        """Picklable recipe workers :meth:`open` the arena from."""
        return {"shm_name": self._shm.name, "entries": self._entries}

    # -- worker side ---------------------------------------------------
    @classmethod
    def open(cls, spec: dict) -> "ShmArena":
        """Map an existing arena from its :meth:`spec`."""
        shm = shared_memory.SharedMemory(name=spec["shm_name"])
        return cls(shm, spec["entries"], owner=False)

    # -- views ---------------------------------------------------------
    def array(self, name: str) -> np.ndarray:
        """Zero-copy view of a named array."""
        dtype, shape, offset = self._entries[name]
        arr = np.ndarray(shape, dtype=np.dtype(dtype),
                         buffer=self._shm.buf, offset=offset)
        return arr

    def keys(self):
        return self._entries.keys()

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (parent-side, after all workers closed)."""
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

