"""Run-store round-trip tests: what goes in must come back out.

The store's contract is stronger than "SQLite works": the flat array
blobs are checksummed, the mmap sidecars must agree with the blobs,
the vertex→replica CSR must agree with a from-scratch recomputation,
and the *bulk lookup served from a reopened store* must equal the
replica sets derivable from the in-memory assignment array — for both
kernels.  The property test drives that whole chain on random graphs.
The stored metrics must equal the :mod:`repro.metrics.quality` calls
exactly, and the keyset listings (served from the replica CSR) must
equal the same from-edges oracle.  Runs are stored with narrow ids and
offsets; a store whose blobs are int64, as earlier builds wrote them,
must answer every read identically.
"""

import json
import os
import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DistributedNE
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_road_network, rmat_edges
from repro.metrics import quality
from repro.observability.metrics import NullMetricsRegistry
from repro.partitioners import HDRFPartitioner
from repro.partitioners.base import EdgePartition
from repro.partitioners.hashing import DBHPartitioner as DBH
from repro.serving import (
    ChecksumError,
    LookupRangeError,
    LookupService,
    RunStore,
    ServingAPI,
    StoreError,
    import_results,
    vertex_replica_csr,
)
from repro.serving import store as store_module
from repro.serving.store import (
    ASSIGNMENT_KINDS,
    MIGRATIONS,
    SCHEMA_VERSION,
    _stored_dtypes,
)


def _store(tmp_path) -> RunStore:
    return RunStore(str(tmp_path / "runs.db"))


def _partition(scale=9, edge_factor=6, parts=4, seed=0):
    graph = CSRGraph(rmat_edges(scale, edge_factor, seed=seed))
    return DBH(parts, seed=seed).partition(graph)


def _expected_replicas(graph, assignment) -> dict[int, tuple]:
    """Vertex → ascending replica tuple, straight from the edges."""
    out: dict[int, set] = {v: set() for v in range(graph.num_vertices)}
    for (u, v), p in zip(graph.edges.tolist(), assignment.tolist()):
        out[u].add(int(p))
        out[v].add(int(p))
    return {v: tuple(sorted(s)) for v, s in out.items()}


# ----------------------------------------------------------------------
# the round-trip property
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(scale=st.integers(min_value=4, max_value=8),
       edge_factor=st.integers(min_value=2, max_value=8),
       parts=st.integers(min_value=2, max_value=9),
       seed=st.integers(min_value=0, max_value=2**20))
def test_store_roundtrip_property(tmp_path_factory, scale, edge_factor,
                                  parts, seed):
    """write run → reopen → bulk lookup == in-memory replica sets,
    for both kernels, bit-identical to each other."""
    tmp_path = tmp_path_factory.mktemp("store")
    graph = CSRGraph(rmat_edges(scale, edge_factor, seed=seed))
    result = DBH(parts, seed=seed).partition(graph)
    expected = _expected_replicas(graph, result.assignment)

    path = str(tmp_path / "runs.db")
    with RunStore(path) as store:
        run_id = store.add_run(result, seed=seed)

    with RunStore(path) as store:  # cold reopen — no shared state
        lookup = LookupService(store)
        vertices = np.arange(graph.num_vertices, dtype=np.int64)
        c_vec, f_vec = lookup.bulk_vertex_lookup(run_id, vertices,
                                                 kernel="vectorized")
        c_py, f_py = lookup.bulk_vertex_lookup(run_id, vertices,
                                               kernel="python")
        assert np.array_equal(c_vec, c_py)
        assert np.array_equal(f_vec, f_py)
        pos = 0
        for v in range(graph.num_vertices):
            row = tuple(f_vec[pos:pos + c_vec[v]].tolist())
            assert row == expected[v], f"vertex {v}"
            pos += int(c_vec[v])
        assert np.array_equal(
            store.load_array(run_id, "edge_assignment"),
            result.assignment)


def test_mmap_sidecar_matches_blob(tmp_path):
    with _store(tmp_path) as store:
        run_id = store.add_run(_partition())
        for kind in ASSIGNMENT_KINDS:
            blob = store.load_array(run_id, kind)
            mm = store.mmap_array(run_id, kind)
            assert not mm.flags.writeable
            assert np.array_equal(blob, mm)
        # second open pays only the header read, same contents
        assert np.array_equal(store.mmap_array(run_id, "replica_parts"),
                              store.load_array(run_id, "replica_parts"))


def test_replica_csr_matches_recomputation(tmp_path):
    result = _partition(parts=7)
    with _store(tmp_path) as store:
        run_id = store.add_run(result)
        indptr, parts = vertex_replica_csr(
            result.graph.edges, result.assignment,
            result.graph.num_vertices, result.num_partitions)
        assert np.array_equal(store.load_array(run_id, "replica_indptr"),
                              indptr)
        assert np.array_equal(store.load_array(run_id, "replica_parts"),
                              parts)


def _quality_cases():
    rmat = CSRGraph(rmat_edges(9, 6, seed=3))
    road = CSRGraph(grid_road_network(12, 12, seed=3))
    # 40 isolated vertices past the last endpoint
    isolated = CSRGraph(rmat_edges(7, 4, seed=5),
                        num_vertices=2 ** 7 + 40)
    return {
        "dne": DistributedNE(6, seed=1).partition(rmat),
        "hdrf": HDRFPartitioner(5, seed=2).partition(rmat),
        "road_dne": DistributedNE(4, seed=0).partition(road),
        "isolated_dbh": DBH(3, seed=4).partition(isolated),
    }


def test_metrics_row_matches_quality_module(tmp_path):
    """Pins the CSR-bincount derivation bit for bit against the
    quality module's own dedup of the edge endpoints."""
    cases = _quality_cases()
    with _store(tmp_path) as store:
        for case, result in cases.items():
            graph, assignment, p = (result.graph, result.assignment,
                                    result.num_partitions)
            assert store.metrics(store.add_run(result)) == {
                "replication_factor": quality.replication_factor(
                    graph, assignment, p),
                "edge_balance": quality.edge_balance(assignment, p),
                "vertex_balance": quality.vertex_balance(graph, assignment,
                                                         p),
                "vertex_cuts": float(quality.vertex_cut_count(
                    graph, assignment, p)),
            }, case
    isolated = cases["isolated_dbh"].graph
    assert np.count_nonzero(np.diff(isolated.indptr)) < isolated.num_vertices


def test_zero_edge_partition_round_trips(tmp_path):
    """A partition with no edges stores; its undefined balances are
    absent (SQLite would store NaN as NULL), and every read is empty."""
    graph = CSRGraph(np.empty((0, 2), dtype=np.int64), num_vertices=5)
    result = DBH(4).partition(graph)
    path = str(tmp_path / "runs.db")
    with RunStore(path) as store:
        run_id = store.add_run(result)
    with RunStore(path) as store:
        assert store.get_run(run_id)["num_edges"] == 0
        assert store.metrics(run_id) == {"replication_factor": 0.0,
                                         "vertex_cuts": 0.0}
        for kind in ASSIGNMENT_KINDS:
            assert np.array_equal(store.mmap_array(run_id, kind),
                                  store.load_array(run_id, kind))
        assert store.load_array(run_id, "replica_indptr").tolist() == [0] * 6
        lookup = LookupService(store)
        assert all(lookup.vertex_lookup(run_id, v) == () for v in range(5))
        counts, flat = lookup.bulk_vertex_lookup(run_id, range(5))
        assert counts.tolist() == [0] * 5 and flat.size == 0
        assert lookup.boundary_page(run_id) == ([], None)
        assert lookup.replica_page(run_id, 3) == ([], None)


# ----------------------------------------------------------------------
# stored widths: narrow ids and offsets, and int64 stores still served
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_partitions, num_slots, ids, offsets", [
    (1, 0, np.int8, np.int32),
    (128, 2**31 - 1, np.int8, np.int32),
    (129, 2**31, np.int16, np.int64),
    (32768, 0, np.int16, np.int32),
    (32769, 2**31, np.int32, np.int64),
])
def test_stored_dtypes_are_the_narrowest_signed_widths(
        num_partitions, num_slots, ids, offsets):
    """int8 holds ids up to 127, int16 up to 32767; offsets stay int32
    through 2**31 - 1.  Signed only: unsigned offsets turn
    ``adjacency_slots``'s sums uint64, which meet int64 ids as float64
    and cannot index."""
    got = _stored_dtypes(num_partitions, num_slots)
    assert got == (np.dtype(ids), np.dtype(offsets))
    assert all(dt.kind == "i" for dt in got)


def _int64_store(monkeypatch, path, result) -> int:
    """The run as an earlier build stored it: all three blobs int64."""
    with monkeypatch.context() as patch:
        patch.setattr(store_module, "_stored_dtypes",
                      lambda *_: (np.dtype(np.int64), np.dtype(np.int64)))
        with RunStore(path) as store:
            return store.add_run(result)


@pytest.mark.parametrize("parts, ids", [(6, "|i1"), (128, "|i1"),
                                        (200, "<i2")])
def test_narrow_store_answers_like_an_int64_store(tmp_path, monkeypatch,
                                                  parts, ids):
    """Every read — point, bulk (both kernels), edge, the two listings,
    and the same routes through ``ServingAPI.handle`` — answers the same
    from the narrow blobs as from int64 ones."""
    result = _partition(parts=parts)
    graph = result.graph
    wide_id = _int64_store(monkeypatch, str(tmp_path / "wide.db"), result)
    with RunStore(str(tmp_path / "wide.db")) as wide, \
            RunStore(str(tmp_path / "narrow.db")) as narrow:
        run = narrow.add_run(result)
        assert run == wide_id
        widths = {s: {r["kind"]: r["dtype"] for r in s._conn.execute(
            "SELECT kind, dtype FROM assignments WHERE run_id = ?",
            (run,))} for s in (wide, narrow)}
        assert widths[wide] == dict.fromkeys(ASSIGNMENT_KINDS, "<i8")
        assert widths[narrow] == {"edge_assignment": ids,
                                  "replica_indptr": "<i4",
                                  "replica_parts": ids}
        for kind in ASSIGNMENT_KINDS:
            assert np.array_equal(narrow.load_array(run, kind),
                                  wide.load_array(run, kind))
            assert narrow.mmap_array(run, kind).dtype == np.dtype(
                widths[narrow][kind])

        looks = [LookupService(s) for s in (wide, narrow)]
        vertices = np.arange(graph.num_vertices, dtype=np.int64)
        edge_ids = np.arange(graph.num_edges, dtype=np.int64)[::-1]
        for kernel in ("vectorized", "python"):
            (cw, fw), (cn, fn) = (
                look.bulk_vertex_lookup(run, vertices, kernel=kernel)
                for look in looks)
            assert cn.dtype == fn.dtype == np.int64
            assert np.array_equal(cw, cn) and np.array_equal(fw, fn)
            ew, en = (look.bulk_edge_lookup(run, edge_ids, kernel=kernel)
                      for look in looks)
            assert en.dtype == np.int64 and np.array_equal(ew, en)
            assert np.array_equal(en, result.assignment[edge_ids])
        for v in range(graph.num_vertices):
            assert looks[0].vertex_lookup(run, v) == \
                looks[1].vertex_lookup(run, v)
        assert [looks[1].edge_lookup(run, e) for e in range(
            graph.num_edges)] == result.assignment.tolist()
        pages = [(_walk_pages(lambda c: look.boundary_page(
            run, cursor=c, limit=9)), [_walk_pages(
                lambda c: look.replica_page(run, p, cursor=c, limit=9))
                for p in {0, parts // 2, parts - 1}]) for look in looks]
        assert pages[0] == pages[1]

        apis = [ServingAPI(s, registry=NullMetricsRegistry())
                for s in (wide, narrow)]
        requests = [("GET", f"/api/runs/{run}/vertex/{v}", None, None)
                    for v in (0, graph.num_vertices // 2,
                              graph.num_vertices - 1)]
        requests += [("GET", f"/api/runs/{run}/edge/{e}", None, None)
                     for e in (0, graph.num_edges - 1)]
        requests += [("POST", f"/api/runs/{run}/lookup", None,
                      json.dumps({key: ids_, "kernel": kernel}).encode())
                     for key, ids_ in (("vertices", vertices[::7].tolist()),
                                       ("edges", edge_ids[::5].tolist()))
                     for kernel in ("vectorized", "python")]
        requests += [("GET", f"/api/runs/{run}/boundary",
                      {"limit": "20", "cursor": "3"}, None)]
        requests += [("GET", f"/api/runs/{run}/replicas",
                      {"partition": str(p), "limit": "20"}, None)
                     for p in (0, parts - 1)]
        for method, path, query, body in requests:
            got = [api.handle(method, path, query, body) for api in apis]
            assert got[0] == got[1], path
            assert got[1][0] == 200, (path, got[1])


def test_narrow_blobs_write_one_byte_per_edge(tmp_path):
    """At |P| <= 128 the assignment blob is one byte per edge and the
    replica offsets four bytes per vertex."""
    result = _partition(parts=8)
    with _store(tmp_path) as store:
        run_id = store.add_run(result)
        sizes = {r["kind"]: r["size"] for r in store._conn.execute(
            "SELECT kind, LENGTH(data) AS size FROM assignments "
            "WHERE run_id = ?", (run_id,))}
    indptr, parts = result.replicas
    assert sizes == {"edge_assignment": result.graph.num_edges,
                     "replica_indptr": 4 * len(indptr),
                     "replica_parts": len(parts)}


def test_out_of_range_ids_never_reach_add_run():
    """The narrowing casts in ``add_run`` cannot wrap: an
    ``EdgePartition`` refuses an id outside ``[0, |P|)`` when it is
    built, and its assignment cannot be changed afterwards."""
    graph = CSRGraph(rmat_edges(6, 4, seed=1))
    good = np.zeros(graph.num_edges, dtype=np.int64)
    for bad in (128, -1, 2**40):
        assignment = good.copy()
        assignment[3] = bad
        with pytest.raises(ValueError, match="out-of-range"):
            EdgePartition(graph, 128, assignment)
    result = EdgePartition(graph, 128, good)
    with pytest.raises(ValueError, match="read-only"):
        result.assignment[3] = 128
    with pytest.raises(AttributeError, match="read-only"):
        result.assignment = good


# ----------------------------------------------------------------------
# integrity + schema discipline
# ----------------------------------------------------------------------
def test_corrupted_blob_fails_checksum(tmp_path):
    path = str(tmp_path / "runs.db")
    with RunStore(path) as store:
        run_id = store.add_run(_partition())
    conn = sqlite3.connect(path)
    blob = conn.execute(
        "SELECT data FROM assignments WHERE run_id = ? AND kind = ?",
        (run_id, "edge_assignment")).fetchone()[0]
    flipped = bytes([blob[0] ^ 0xFF]) + blob[1:]
    with conn:
        conn.execute(
            "UPDATE assignments SET data = ? WHERE run_id = ? "
            "AND kind = ?", (flipped, run_id, "edge_assignment"))
    conn.close()
    with RunStore(path) as store:
        with pytest.raises(ChecksumError):
            store.load_array(run_id, "edge_assignment")


def test_store_is_wal_mode_and_versioned(tmp_path):
    with _store(tmp_path) as store:
        assert store._conn.execute(
            "PRAGMA journal_mode").fetchone()[0] == "wal"
        assert store.schema_version() == SCHEMA_VERSION
        rows = store._conn.execute(
            "SELECT version FROM schema_migrations ORDER BY version"
        ).fetchall()
        assert [r["version"] for r in rows] == list(
            range(1, SCHEMA_VERSION + 1))


def test_newer_store_refused(tmp_path):
    path = str(tmp_path / "runs.db")
    RunStore(path).close()
    conn = sqlite3.connect(path)
    with conn:
        conn.execute(
            "INSERT INTO schema_migrations (version, applied_utc) "
            "VALUES (?, '2099-01-01T00:00:00Z')", (SCHEMA_VERSION + 1,))
    conn.close()
    with pytest.raises(StoreError, match="newer than this build"):
        RunStore(path)


def test_reopen_is_idempotent(tmp_path):
    path = str(tmp_path / "runs.db")
    with RunStore(path) as store:
        store.add_run(_partition())
    with RunStore(path) as store:
        assert store.run_count() == 1
        assert store.schema_version() == SCHEMA_VERSION


def _walk_pages(page) -> list[tuple]:
    """Every ``(items, next_cursor)`` of a keyset walk, in order."""
    pages, cursor = [], None
    while True:
        items, cursor = page(cursor)
        pages.append((items, cursor))
        if cursor is None:
            return pages


def _sql_pages(conn, run_id, num_partitions, limit) -> dict:
    """The listings as the schema-1 build served them: keyset SQL over
    the row-wise ``replicas`` table, one query per boundary item."""
    def boundary(cursor):
        rows = conn.execute(
            "SELECT vertex, COUNT(*) AS replicas FROM replicas "
            "WHERE run_id = ? AND vertex > ? "
            "GROUP BY vertex HAVING COUNT(*) >= 2 "
            "ORDER BY vertex LIMIT ?",
            (run_id, -1 if cursor is None else cursor, limit + 1)
        ).fetchall()
        items = [{"vertex": v, "replicas": k, "partitions": [
            r[0] for r in conn.execute(
                "SELECT partition FROM replicas WHERE run_id = ? AND "
                "vertex = ? ORDER BY partition", (run_id, v))]}
            for v, k in rows[:limit]]
        return items, items[-1]["vertex"] if len(rows) > limit else None

    def members(p, cursor):
        rows = [r[0] for r in conn.execute(
            "SELECT vertex FROM replicas WHERE run_id = ? AND "
            "partition = ? AND vertex > ? ORDER BY vertex LIMIT ?",
            (run_id, p, -1 if cursor is None else cursor, limit + 1))]
        return rows[:limit], rows[limit - 1] if len(rows) > limit else None

    pages = {"boundary": _walk_pages(boundary)}
    for p in range(num_partitions):
        pages[p] = _walk_pages(lambda cursor: members(p, cursor))
    return pages


def _schema_1_store(path, result, limit) -> tuple[int, dict]:
    """A store as a schema-1 build wrote it: one complete run, its
    replica relation also stored row-wise in the ``replicas`` table.
    Returns the run id and that build's listing pages."""
    original = store_module.MIGRATIONS, store_module.SCHEMA_VERSION
    store_module.MIGRATIONS, store_module.SCHEMA_VERSION = MIGRATIONS[:1], 1
    try:
        with RunStore(path) as store:
            run_id = store.add_run(result)
            indptr = store.load_array(run_id, "replica_indptr")
            parts = store.load_array(run_id, "replica_parts")
            vertices = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
            with store._conn as conn:
                conn.executemany(
                    "INSERT INTO replicas (run_id, vertex, partition) "
                    "VALUES (?, ?, ?)",
                    [(run_id, v, p) for v, p in zip(vertices.tolist(),
                                                    parts.tolist())])
            assert store.schema_version() == 1
            pages = _sql_pages(store._conn, run_id, result.num_partitions,
                               limit)
    finally:
        store_module.MIGRATIONS, store_module.SCHEMA_VERSION = original
    return run_id, pages


def test_schema_1_store_upgrades_and_drops_the_row_table(tmp_path):
    """Reopening a schema-1 store drops the row table, and the CSR
    listings answer page for page what its SQL listings answered."""
    result = _partition(parts=6)
    path = str(tmp_path / "runs.db")
    run_id, sql_pages = _schema_1_store(path, result, limit=11)
    replicas = _expected_replicas(result.graph, result.assignment)
    assert {item["vertex"]: tuple(item["partitions"])
            for items, _ in sql_pages["boundary"] for item in items} == {
        v: ps for v, ps in replicas.items() if len(ps) >= 2}
    with RunStore(path) as store:
        assert store.schema_version() == SCHEMA_VERSION == 2
        names = {r["name"] for r in store._conn.execute(
            "SELECT name FROM sqlite_master")}
        assert "replicas" not in names
        assert "replicas_by_partition" not in names
        lookup = LookupService(store)
        assert _walk_pages(lambda cursor: lookup.boundary_page(
            run_id, cursor=cursor, limit=11)) == sql_pages["boundary"]
        for p in range(6):
            assert _walk_pages(lambda cursor: lookup.replica_page(
                run_id, p, cursor=cursor, limit=11)) == sql_pages[p]
            assert [v for items, _ in sql_pages[p] for v in items] == sorted(
                v for v, ps in replicas.items() if p in ps)


def test_failed_migration_rolls_back_whole(tmp_path, monkeypatch):
    """A migration and its ``schema_migrations`` row commit together."""
    path = str(tmp_path / "runs.db")
    RunStore(path).close()
    monkeypatch.setattr(store_module, "MIGRATIONS", MIGRATIONS + (
        (SCHEMA_VERSION + 1, "DROP TABLE metrics;\nSELECT * FROM nope;"),))
    monkeypatch.setattr(store_module, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
    with pytest.raises(sqlite3.OperationalError, match="nope"):
        RunStore(path)
    monkeypatch.undo()
    with RunStore(path) as store:
        assert store.schema_version() == SCHEMA_VERSION
        assert store.metrics(store.add_imported_run(
            method="hdrf", metrics={"rf": 2.0})) == {"rf": 2.0}


def test_unknown_run_and_missing_array(tmp_path):
    with _store(tmp_path) as store:
        with pytest.raises(StoreError):
            store.get_run(999)
        run_id = store.add_imported_run(method="hdrf",
                                        metrics={"rf": 2.0})
        with pytest.raises(StoreError, match="metrics-only"):
            store.load_array(run_id, "edge_assignment")


# ----------------------------------------------------------------------
# keyset listings over the replica CSR
# ----------------------------------------------------------------------
def _all_boundary(lookup, run_id, limit) -> dict[int, tuple]:
    seen: dict[int, tuple] = {}
    cursor = None
    while True:
        items, cursor = lookup.boundary_page(run_id, cursor=cursor,
                                             limit=limit)
        for item in items:
            assert item["vertex"] not in seen, "duplicate page row"
            assert list(seen) == sorted(seen), "pages out of order"
            seen[item["vertex"]] = tuple(item["partitions"])
            assert item["replicas"] == len(item["partitions"])
        if cursor is None:
            return seen


def _all_replicas(lookup, run_id, partition, limit) -> list[int]:
    got: list[int] = []
    cursor = None
    while True:
        vertices, cursor = lookup.replica_page(run_id, partition,
                                               cursor=cursor, limit=limit)
        got.extend(vertices)
        if cursor is None:
            return got


def test_boundary_pages_cover_exactly_the_boundary_set(tmp_path,
                                                       monkeypatch):
    result = _partition(parts=8)
    expected = {v: parts for v, parts
                in _expected_replicas(result.graph,
                                      result.assignment).items()
                if len(parts) >= 2}
    with _store(tmp_path) as store:
        run_id = store.add_run(result)
        lookup = LookupService(store)
        assert _all_boundary(lookup, run_id, 17) == expected
        # scan chunks smaller than a page: the doubling walk still
        # stops on the probe item and resumes at the cursor
        monkeypatch.setattr("repro.serving.lookup.SCAN_CHUNK", 3)
        assert _all_boundary(lookup, run_id, 17) == expected
        assert _all_boundary(lookup, run_id, 1) == expected


def test_replica_pages_cover_partition_membership(tmp_path, monkeypatch):
    result = _partition(parts=5)
    replicas = _expected_replicas(result.graph, result.assignment)
    with _store(tmp_path) as store:
        run_id = store.add_run(result)
        lookup = LookupService(store)
        for chunk in (4096, 2):
            monkeypatch.setattr("repro.serving.lookup.SCAN_CHUNK", chunk)
            for p in range(5):
                expected = sorted(v for v, ps in replicas.items()
                                  if p in ps)
                assert _all_replicas(lookup, run_id, p, 13) == expected
        with pytest.raises(LookupRangeError, match="has no partition"):
            lookup.replica_page(run_id, 5)
        with pytest.raises(LookupRangeError, match="has no partition"):
            lookup.replica_page(run_id, -1)


def test_cursors_outside_the_vertex_range(tmp_path):
    result = _partition(parts=4)
    n = result.graph.num_vertices
    with _store(tmp_path) as store:
        run_id = store.add_run(result)
        lookup = LookupService(store)
        assert lookup.boundary_page(run_id, cursor=-50) == \
            lookup.boundary_page(run_id)
        assert lookup.replica_page(run_id, 1, cursor=-50) == \
            lookup.replica_page(run_id, 1)
        for cursor in (n - 1, n, 10 ** 30):
            assert lookup.boundary_page(run_id, cursor=cursor) == ([], None)
            assert lookup.replica_page(run_id, 1, cursor=cursor) == (
                [], None)


# ----------------------------------------------------------------------
# benchmarks/results importer
# ----------------------------------------------------------------------
def test_import_results_splits_identity_from_metrics(tmp_path):
    rows = [
        {"dataset": "pokec", "method": "hdrf", "partitions": 64,
         "seed": 3, "replication_factor": 2.5,
         "elapsed_seconds": 1.25, "note": "not-a-number"},
        {"no_method": True},
        {"dataset": "pokec", "method": "dne", "partitions": 64,
         "replication_factor": 1.9},
    ]
    src = tmp_path / "table4.json"
    src.write_text(json.dumps(rows))
    with _store(tmp_path) as store:
        run_ids = import_results(store, str(src))
        assert len(run_ids) == 2  # the method-less row is skipped
        run = store.get_run(run_ids[0])
        assert run["status"] == "imported"
        assert run["method"] == "hdrf"
        assert run["num_partitions"] == 64
        assert run["source"] == "import:table4.json"
        extra = run["extra"]
        assert extra["dataset"] == "pokec" and extra["seed"] == 3
        metrics = store.metrics(run_ids[0])
        assert metrics == {"replication_factor": 2.5,
                           "elapsed_seconds": 1.25}


def test_import_results_glob_and_real_results_dir(tmp_path):
    results_dir = os.path.join(os.path.dirname(__file__), "..",
                               "benchmarks", "results")
    if not os.path.isdir(results_dir) or not any(
            f.endswith(".json") for f in os.listdir(results_dir)):
        pytest.skip("no benchmarks/results/*.json in this checkout")
    with _store(tmp_path) as store:
        run_ids = import_results(store,
                                 os.path.join(results_dir, "*.json"))
        assert len(run_ids) == store.run_count()
        assert len(run_ids) > 0
