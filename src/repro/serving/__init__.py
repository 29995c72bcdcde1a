"""Partition-serving plane: run store + HTTP query layer.

The partitioners compute assignments; this package makes them
consumable at scale (ROADMAP item 1, the "millions of users" story):

* :mod:`repro.serving.store` — WAL-mode SQLite :class:`RunStore` of
  partitioner runs (metadata, metrics, checksummed flat-array blobs,
  the paginable replica relation) plus the ``benchmarks/results``
  importer;
* :mod:`repro.serving.lookup` — :class:`LookupService`: mmap'd run
  arrays, a hot-vertex LRU, and the dual-kernel
  (``vectorized``/``python``, pinned bit-identical) bulk lookups;
* :mod:`repro.serving.api` — the HTTP layer on stdlib ``http.server``
  (:class:`ServingAPI`), ``repro serve`` on the CLI, reference in
  ``docs/API.md``.
"""

from repro.serving.api import ApiError, BackgroundServer, ServingAPI, serve
from repro.serving.lookup import LookupRangeError, LookupService
from repro.serving.store import (ChecksumError, RunStore, StoreError,
                                 import_results, vertex_replica_csr)

__all__ = [
    "ApiError", "BackgroundServer", "ChecksumError", "LookupRangeError",
    "LookupService", "RunStore", "ServingAPI", "StoreError",
    "import_results", "serve", "vertex_replica_csr",
]
