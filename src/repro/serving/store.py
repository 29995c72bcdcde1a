"""On-disk run store — partitioner results as durable, queryable artifacts.

A :class:`RunStore` is a WAL-mode SQLite database holding every
partitioner run worth serving: the run metadata, its quality metrics,
and the flat per-edge assignment array plus the vertex→replica-set CSR
(as checksummed blobs, each with an mmap-able sidecar).
``repro partition --store`` writes into it, :func:`import_results`
backfills it from the committed ``benchmarks/results/*.json`` experiment
rows, and :class:`~repro.serving.api.ServingAPI` reads from it.

Schema discipline
-----------------
The schema is created exclusively through the explicit, versioned
migration list ``MIGRATIONS`` — every connection applies any pending
migrations, each in one transaction with the ``schema_migrations`` row
that records it, so a store written by an older build upgrades in
place and a store written by a *newer* build fails loudly instead of
misbehaving.  Pragmas on every connection: ``journal_mode=WAL``
(concurrent readers while a writer appends — the serving workload),
``foreign_keys=ON``, ``synchronous=NORMAL``, ``busy_timeout=30s``.
Timestamps are TEXT in UTC ISO-8601.

Tables
------
``runs``
    One row per partitioner run: method, |P|, graph shape, elapsed
    seconds, iterations, provenance (``source``), status
    (``complete`` = assignment arrays present, ``imported`` = metrics
    only), JSON ``extra``.
``assignments``
    Checksummed array blobs, keyed ``(run_id, kind)``.  Kinds:
    ``edge_assignment`` (the flat per-edge partition array),
    ``replica_indptr`` / ``replica_parts`` (the vertex→replica-set CSR
    every vertex lookup and listing reads).  Each blob records its
    dtype, element count, and SHA-256; reads verify the checksum before
    trusting the bytes.  :meth:`RunStore.add_run` writes partition ids
    (``edge_assignment``, ``replica_parts``) in the narrowest signed
    dtype that holds |P| − 1 — int8 up to 128 partitions, int16 up to
    32 768, int32 above — and ``replica_indptr`` as int32 while its last
    offset fits (int64 past 2³¹ − 1); see :func:`_stored_dtypes`.  The
    readers take any integer width, so blobs an earlier build wrote as
    int64 serve unchanged, with no migration.
``metrics``
    ``(run_id, name, value)`` quality numbers (replication factor,
    balances, vertex cuts, plus whatever an importer finds).  A
    non-finite value (the balance of a partition with no edges) gets no
    row.

Migration 1 also created a row-wise ``replicas (run_id, vertex,
partition)`` table; migration 2 drops it.  The replica relation has one
representation, the CSR blobs: :meth:`RunStore.add_run` stores the
partition's own CSR (``EdgePartition.replicas``, built once by
:func:`repro.metrics.quality.vertex_replica_csr`, the one home of the
vertex→partition dedup) and the metrics read off it,
and the boundary and per-partition listings are keyset scans over its
mmap'd arrays
(:meth:`~repro.serving.lookup.LookupService.boundary_page`,
:meth:`~repro.serving.lookup.LookupService.replica_page`).

The mmap read path
------------------
:meth:`RunStore.mmap_array` materialises a blob once into a sidecar
``<db>.arrays/<run_id>.<kind>.npy`` file (atomic ``os.replace`` write,
checksum verified from the database blob) and returns it via
``np.load(..., mmap_mode="r")`` — the hot lookup path never holds
assignment arrays on the SQLite page cache and never copies them per
request.  See :mod:`repro.serving.lookup` for the cache and kernels on
top.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import sqlite3
import threading
from datetime import datetime, timezone

import numpy as np

__all__ = ["RunStore", "import_results", "StoreError", "ChecksumError"]


class StoreError(RuntimeError):
    """A run store invariant failed (unknown run, missing blob, ...)."""


class ChecksumError(StoreError):
    """A stored array blob does not match its recorded SHA-256."""


#: array kinds persisted per run in the ``assignments`` table
ASSIGNMENT_KINDS = ("edge_assignment", "replica_indptr", "replica_parts")

#: explicit, append-only schema history — never edit a shipped entry
MIGRATIONS: tuple[tuple[int, str], ...] = (
    (1, """
CREATE TABLE runs (
    run_id          INTEGER PRIMARY KEY AUTOINCREMENT,
    label           TEXT,
    method          TEXT NOT NULL,
    num_partitions  INTEGER NOT NULL,
    num_vertices    INTEGER NOT NULL,
    num_edges       INTEGER NOT NULL,
    seed            INTEGER,
    elapsed_seconds REAL,
    iterations      INTEGER NOT NULL DEFAULT 0,
    status          TEXT NOT NULL DEFAULT 'complete'
                    CHECK (status IN ('complete', 'imported')),
    source          TEXT NOT NULL DEFAULT 'partition',
    created_utc     TEXT NOT NULL,
    extra           TEXT NOT NULL DEFAULT '{}'
);

CREATE TABLE assignments (
    run_id    INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    kind      TEXT NOT NULL,
    dtype     TEXT NOT NULL,
    length    INTEGER NOT NULL,
    sha256    TEXT NOT NULL,
    data      BLOB NOT NULL,
    PRIMARY KEY (run_id, kind)
);

CREATE TABLE replicas (
    run_id    INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    vertex    INTEGER NOT NULL,
    partition INTEGER NOT NULL,
    PRIMARY KEY (run_id, vertex, partition)
) WITHOUT ROWID;
CREATE INDEX replicas_by_partition
    ON replicas (run_id, partition, vertex);

CREATE TABLE metrics (
    run_id    INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    name      TEXT NOT NULL,
    value     REAL NOT NULL,
    PRIMARY KEY (run_id, name)
) WITHOUT ROWID;
"""),
    (2, """
DROP INDEX replicas_by_partition;
DROP TABLE replicas;
"""),
)

SCHEMA_VERSION = MIGRATIONS[-1][0]


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stored_dtypes(num_partitions: int,
                   num_slots: int) -> tuple[np.dtype, np.dtype]:
    """``(partition id dtype, replica offset dtype)`` a run is stored
    in: the narrowest *signed* integer that holds ``num_partitions - 1``,
    and int32 for the replica CSR's offsets while its last one,
    ``num_slots``, fits.

    Signed on purpose: the readers mix these arrays with int64 ids.
    Unsigned offsets make ``adjacency_slots``'s cumulative sum uint64,
    uint64 with int64 promotes to float64, and floats cannot index.
    """
    ids = next(t for t in (np.int8, np.int16, np.int32, np.int64)
               if num_partitions - 1 <= np.iinfo(t).max)
    offsets = np.int32 if num_slots <= np.iinfo(np.int32).max else np.int64
    return np.dtype(ids), np.dtype(offsets)


class RunStore:
    """Durable store of partitioner runs (see the module docstring).

    Thread-safe: each thread gets its own SQLite connection (WAL mode
    makes concurrent readers + one writer safe), so the HTTP server's
    connection threads and a background partitioning job can share one
    instance.  A short-lived thread hands its connection back with
    :meth:`release_thread` before it ends.
    """

    def __init__(self, path: str):
        if path == ":memory:":
            raise ValueError("RunStore needs a file path (per-thread "
                             "connections cannot share ':memory:')")
        self.path = os.fspath(path)
        self.arrays_dir = self.path + ".arrays"
        self._local = threading.local()
        self._all_conns: list[sqlite3.Connection] = []
        self._conn_lock = threading.Lock()
        self._migrate(self._conn)

    # -- connections ---------------------------------------------------
    @property
    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(self.path)
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA foreign_keys=ON")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=30000")
            self._local.conn = conn
            with self._conn_lock:
                self._all_conns.append(conn)
        return conn

    def release_thread(self) -> None:
        """Close the calling thread's connection, if it opened one."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            return
        self._local.conn = None
        with self._conn_lock:
            if conn in self._all_conns:  # else close() already took it
                self._all_conns.remove(conn)
        conn.close()

    def close(self) -> None:
        """Close every thread's connection opened so far."""
        with self._conn_lock:
            conns, self._all_conns = self._all_conns, []
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:  # pragma: no cover - best effort
                pass
        self._local = threading.local()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- migrations ----------------------------------------------------
    def _migrate(self, conn: sqlite3.Connection) -> None:
        conn.execute("""
            CREATE TABLE IF NOT EXISTS schema_migrations (
                version     INTEGER PRIMARY KEY,
                applied_utc TEXT NOT NULL
            )""")
        row = conn.execute(
            "SELECT MAX(version) AS v FROM schema_migrations").fetchone()
        current = row["v"] or 0
        if current > SCHEMA_VERSION:
            raise StoreError(
                f"store {self.path!r} has schema version {current}, "
                f"newer than this build's {SCHEMA_VERSION} — refusing "
                "to touch it")
        for version, sql in MIGRATIONS:
            if version <= current:
                continue
            # executescript commits whatever is open before it runs, so
            # the transaction is spelled out in the script itself
            try:
                conn.executescript(
                    f"BEGIN;\n{sql}\n"
                    "INSERT INTO schema_migrations (version, applied_utc) "
                    f"VALUES ({version}, '{_utc_now()}');\nCOMMIT;")
            except sqlite3.Error:
                if conn.in_transaction:
                    conn.rollback()
                raise

    def schema_version(self) -> int:
        row = self._conn.execute(
            "SELECT MAX(version) AS v FROM schema_migrations").fetchone()
        return int(row["v"] or 0)

    # -- writing -------------------------------------------------------
    def add_run(self, partition, *, seed: int | None = None,
                label: str | None = None,
                source: str = "partition") -> int:
        """Persist an :class:`~repro.partitioners.base.EdgePartition`.

        Writes the run row, the checksummed array blobs (edge
        assignment + the partition's vertex-replica CSR, narrowed by
        :func:`_stored_dtypes`) and its quality metrics, in one
        transaction.  Returns the new run id.  The CSR and the metrics
        that count replicas come from ``partition.replicas``, built at
        most once per partition.
        """
        graph = partition.graph
        num_partitions = partition.num_partitions
        assignment = partition.assignment
        indptr, parts = partition.replicas
        metrics = {
            "replication_factor": partition.replication_factor(),
            "edge_balance": partition.edge_balance(),
            "vertex_balance": partition.vertex_balance(),
            "vertex_cuts": float(partition.vertex_cut_count()),
        }
        # The casts cannot wrap: EdgePartition validated every id into
        # [0, num_partitions) when it froze the assignment, and the last
        # offset of the nondecreasing indptr is its largest.
        ids, offsets = _stored_dtypes(num_partitions, int(indptr[-1]))
        conn = self._conn
        with conn:
            cur = conn.execute(
                "INSERT INTO runs (label, method, num_partitions, "
                "num_vertices, num_edges, seed, elapsed_seconds, "
                "iterations, status, source, created_utc, extra) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, 'complete', ?, ?, ?)",
                (label, partition.method, num_partitions,
                 graph.num_vertices, graph.num_edges, seed,
                 partition.elapsed_seconds, partition.iterations,
                 source, _utc_now(), json.dumps(_jsonable_extra(
                     partition.extra))))
            run_id = int(cur.lastrowid)
            for kind, arr in (("edge_assignment", assignment.astype(ids)),
                              ("replica_indptr", indptr.astype(offsets)),
                              ("replica_parts", parts.astype(ids))):
                self._insert_blob(conn, run_id, kind, arr)
            _insert_metrics(conn, run_id, metrics)
        return run_id

    def add_imported_run(self, *, method: str, metrics: dict,
                         num_partitions: int = 0, num_vertices: int = 0,
                         num_edges: int = 0,
                         elapsed_seconds: float | None = None,
                         label: str | None = None, source: str = "import",
                         extra: dict | None = None) -> int:
        """Metrics-only run row (no arrays) — the results-JSON importer."""
        conn = self._conn
        with conn:
            cur = conn.execute(
                "INSERT INTO runs (label, method, num_partitions, "
                "num_vertices, num_edges, elapsed_seconds, status, "
                "source, created_utc, extra) "
                "VALUES (?, ?, ?, ?, ?, ?, 'imported', ?, ?, ?)",
                (label, method, num_partitions, num_vertices, num_edges,
                 elapsed_seconds, source, _utc_now(),
                 json.dumps(extra or {})))
            run_id = int(cur.lastrowid)
            _insert_metrics(conn, run_id, metrics)
        return run_id

    def _insert_blob(self, conn, run_id: int, kind: str,
                     arr: np.ndarray) -> None:
        data = np.ascontiguousarray(arr).tobytes()
        conn.execute(
            "INSERT INTO assignments (run_id, kind, dtype, length, "
            "sha256, data) VALUES (?, ?, ?, ?, ?, ?)",
            (run_id, kind, arr.dtype.str, len(arr), _sha256(data),
             sqlite3.Binary(data)))

    # -- reading -------------------------------------------------------
    def run_count(self) -> int:
        return int(self._conn.execute(
            "SELECT COUNT(*) AS n FROM runs").fetchone()["n"])

    def get_run(self, run_id: int) -> dict:
        row = self._conn.execute(
            "SELECT * FROM runs WHERE run_id = ?", (run_id,)).fetchone()
        if row is None:
            raise StoreError(f"unknown run {run_id}")
        run = dict(row)
        run["extra"] = json.loads(run["extra"])
        return run

    def list_runs(self, limit: int = 50, offset: int = 0) -> list[dict]:
        rows = self._conn.execute(
            "SELECT run_id, label, method, num_partitions, num_vertices, "
            "num_edges, seed, elapsed_seconds, iterations, status, "
            "source, created_utc FROM runs "
            "ORDER BY run_id LIMIT ? OFFSET ?", (limit, offset)).fetchall()
        return [dict(r) for r in rows]

    def metrics(self, run_id: int) -> dict:
        self.get_run(run_id)  # 404 before an empty dict
        rows = self._conn.execute(
            "SELECT name, value FROM metrics WHERE run_id = ? "
            "ORDER BY name", (run_id,)).fetchall()
        return {r["name"]: r["value"] for r in rows}

    def load_array(self, run_id: int, kind: str) -> np.ndarray:
        """Blob → in-memory array, SHA-256 verified."""
        row = self._conn.execute(
            "SELECT dtype, length, sha256, data FROM assignments "
            "WHERE run_id = ? AND kind = ?", (run_id, kind)).fetchone()
        if row is None:
            status = self.get_run(run_id)["status"]
            raise StoreError(
                f"run {run_id} has no {kind!r} array"
                + (" (imported metrics-only run)"
                   if status == "imported" else ""))
        data = bytes(row["data"])
        if _sha256(data) != row["sha256"]:
            raise ChecksumError(
                f"run {run_id} {kind!r} blob fails its checksum — "
                "store corrupted")
        arr = np.frombuffer(data, dtype=np.dtype(row["dtype"]))
        if len(arr) != row["length"]:
            raise ChecksumError(
                f"run {run_id} {kind!r} blob length {len(arr)} != "
                f"recorded {row['length']}")
        return arr

    def mmap_array(self, run_id: int, kind: str) -> np.ndarray:
        """Blob → read-only mmap via a one-time ``.npy`` sidecar.

        The sidecar is written atomically from the checksum-verified
        blob on first access; later opens pay only the ``np.load``
        header read, and the OS page cache is shared across every
        reader of the run.
        """
        path = os.path.join(self.arrays_dir, f"{run_id}.{kind}.npy")
        if not os.path.exists(path):
            arr = self.load_array(run_id, kind)
            os.makedirs(self.arrays_dir, exist_ok=True)
            tmp = path + f".tmp.{os.getpid()}.{threading.get_ident()}"
            try:
                with open(tmp, "wb") as fh:  # np.save won't append .npy
                    np.save(fh, arr)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):  # pragma: no cover - race loser
                    os.unlink(tmp)
        return np.load(path, mmap_mode="r")


def _insert_metrics(conn, run_id: int, metrics: dict) -> None:
    """One ``metrics`` row per finite value.

    SQLite stores NaN as NULL, which the ``NOT NULL`` column refuses;
    an undefined number (the balance of a partition with no edges) is
    left out instead, so it reads back as absent.
    """
    conn.executemany(
        "INSERT INTO metrics (run_id, name, value) VALUES (?, ?, ?)",
        [(run_id, k, float(v)) for k, v in metrics.items()
         if math.isfinite(float(v))])


def _jsonable_extra(extra: dict) -> dict:
    """Reuse the partition-file serialiser for the ``extra`` column."""
    from repro.partitioners.io import _jsonable
    return _jsonable(extra or {})


# ----------------------------------------------------------------------
# benchmarks/results importer
# ----------------------------------------------------------------------
#: row keys that are identity, not metrics
_IMPORT_IDENTITY_KEYS = ("dataset", "method", "partitions", "kernel",
                         "backend", "lambda", "seed")


def import_results(store: RunStore, patterns) -> list[int]:
    """Backfill a store from ``benchmarks/results/*.json`` rows.

    Each JSON file holds a list (or single dict) of experiment rows;
    every row with a ``method`` becomes a metrics-only run (status
    ``imported``, ``source`` naming the file) whose numeric fields land
    in the ``metrics`` table and whose identity fields
    (dataset/partitions/...) land in ``extra``.  Returns the new run
    ids.
    """
    if isinstance(patterns, (str, os.PathLike)):
        patterns = [patterns]
    paths: list[str] = []
    for pattern in patterns:
        matched = sorted(glob.glob(os.fspath(pattern)))
        if not matched and os.path.exists(pattern):
            matched = [os.fspath(pattern)]
        paths.extend(matched)
    run_ids = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh)
        if isinstance(rows, dict):
            rows = [rows]
        for row in rows:
            if not isinstance(row, dict) or "method" not in row:
                continue
            metrics = {k: v for k, v in row.items()
                       if k not in _IMPORT_IDENTITY_KEYS
                       and isinstance(v, (int, float))
                       and not isinstance(v, bool)}
            extra = {k: row[k] for k in _IMPORT_IDENTITY_KEYS if k in row}
            run_ids.append(store.add_imported_run(
                method=str(row["method"]),
                metrics=metrics,
                num_partitions=int(row.get("partitions", 0) or 0),
                elapsed_seconds=row.get("elapsed_seconds"),
                label=row.get("dataset"),
                source=f"import:{os.path.basename(path)}",
                extra=extra))
    return run_ids
