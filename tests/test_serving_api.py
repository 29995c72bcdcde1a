"""Serving-API dispatcher tests — routes, error codes, cursors, jobs.

These exercise :meth:`ServingAPI.handle` directly (no sockets): the
dispatcher is a pure ``(method, path, query, body) → (status,
payload)`` function, which is what makes every route testable without
a running event loop.  The socket layer gets its own coverage in
``test_serving_load.py``.

The load-bearing case is cursor stability: keyset pagination keys on
the immutable vertex ids of one frozen run, so a walk that interleaves
with concurrent run inserts must still enumerate exactly the original
set — no skips, no duplicates — where OFFSET pagination would shear.
"""

import json
import time

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_edges
from repro.partitioners.hashing import DBHPartitioner as DBH
from repro.serving import LookupService, RunStore, ServingAPI


@pytest.fixture
def api(tmp_path):
    store = RunStore(str(tmp_path / "runs.db"))
    graph = CSRGraph(rmat_edges(9, 6, seed=0))
    result = DBH(6, seed=0).partition(graph)
    run_id = store.add_run(result, seed=0, label="smoke")
    served = ServingAPI(store, lookup=LookupService(store))
    served.run_id = run_id
    served.result = result
    yield served
    store.close()


def _body(doc) -> bytes:
    return json.dumps(doc).encode()


# ----------------------------------------------------------------------
# routes + error codes
# ----------------------------------------------------------------------
def test_health_and_run_listing(api):
    assert api.handle("GET", "/api/health") == (200, {"status": "ok"})
    status, doc = api.handle("GET", "/api/runs")
    assert status == 200
    assert [r["run_id"] for r in doc["items"]] == [api.run_id]
    status, doc = api.handle("GET", f"/api/runs/{api.run_id}")
    assert status == 200
    assert doc["method"] == api.result.method
    assert doc["metrics"]["replication_factor"] >= 1.0
    status, doc = api.handle("GET", f"/api/runs/{api.run_id}/metrics")
    assert status == 200 and "replication_factor" in doc["metrics"]


def test_single_lookups_match_assignment(api):
    edges = api.result.graph.edges
    assignment = api.result.assignment
    status, doc = api.handle("GET", f"/api/runs/{api.run_id}/edge/5")
    assert status == 200 and doc["partition"] == int(assignment[5])
    u = int(edges[5, 0])
    status, doc = api.handle("GET", f"/api/runs/{api.run_id}/vertex/{u}")
    assert status == 200
    assert int(assignment[5]) in doc["partitions"]
    assert doc["boundary"] == (doc["replicas"] >= 2)


def test_error_codes(api):
    rid = api.run_id
    cases = [
        (404, "GET", "/api/nope", None),
        (404, "GET", "/api/runs/999", None),
        (404, "GET", "/api/jobs/999", None),
        (405, "DELETE", f"/api/runs/{rid}", None),
        (405, "POST", "/api/health", None),
        (400, "GET", f"/api/runs/{rid}/vertex/999999", None),
        (400, "GET", f"/api/runs/{rid}/vertex/abc", None),
        (400, "POST", f"/api/runs/{rid}/lookup", b"not json"),
        (400, "POST", f"/api/runs/{rid}/lookup",
         _body({"vertices": [0], "edges": [0]})),
        (400, "POST", f"/api/runs/{rid}/lookup",
         _body({"vertices": [0], "kernel": "cuda"})),
        (400, "POST", f"/api/runs/{rid}/lookup",
         _body({"vertices": "0,1"})),
        (400, "POST", f"/api/runs/{rid}/lookup",
         _body({"vertices": [0.5]})),
        (400, "GET", f"/api/runs/{rid}/replicas", None),
        (400, "GET", f"/api/runs/{rid}/replicas",
         None),
        (404, "GET", "/api/runs/999/boundary", None),
    ]
    for expected, method, path, body in cases:
        status, doc = api.handle(method, path, body=body)
        assert status == expected, (method, path, doc)
        assert "error" in doc
    # unknown run -> 404, partition outside [0, |P|) -> 400
    for expected, run, partition in ((404, 999, 0), (400, rid, 6),
                                     (400, rid, -1)):
        status, doc = api.handle("GET", f"/api/runs/{run}/replicas",
                                 query={"partition": partition})
        assert status == expected and "error" in doc, (run, partition)


def test_metrics_only_run_has_no_arrays_to_list(api):
    """An imported run holds no replica CSR: its listings answer the
    same 404 as its lookups."""
    rid = api.store.add_imported_run(method="hdrf", metrics={"rf": 2.0})
    for method, path, query, body in [
            ("POST", "lookup", None, _body({"vertices": [0]})),
            ("GET", "vertex/0", None, None),
            ("GET", "boundary", None, None),
            ("GET", "replicas", {"partition": "0"}, None)]:
        status, doc = api.handle(method, f"/api/runs/{rid}/{path}",
                                 query=query, body=body)
        assert status == 404, (path, doc)
        assert "metrics-only" in doc["error"]
    status, doc = api.handle("GET", f"/api/runs/{rid}/metrics")
    assert status == 200 and doc["metrics"] == {"rf": 2.0}


def test_bulk_lookup_kernels_agree_over_http_shape(api):
    rng = np.random.default_rng(1)
    vertices = rng.integers(0, api.result.graph.num_vertices,
                            size=257).tolist()
    responses = {}
    for kernel in ("vectorized", "python"):
        status, doc = api.handle(
            "POST", f"/api/runs/{api.run_id}/lookup",
            body=_body({"vertices": vertices, "kernel": kernel}))
        assert status == 200 and doc["kernel"] == kernel
        responses[kernel] = (doc["counts"], doc["partitions"])
    assert responses["vectorized"] == responses["python"]
    assert sum(responses["vectorized"][0]) == len(
        responses["vectorized"][1])


def test_bulk_lookup_cap_is_413(api):
    from repro.serving.api import MAX_BULK_IDS
    status, doc = api.handle(
        "POST", f"/api/runs/{api.run_id}/lookup",
        body=_body({"edges": [0] * (MAX_BULK_IDS + 1)}))
    assert status == 413 and "error" in doc


# ----------------------------------------------------------------------
# pagination cursors
# ----------------------------------------------------------------------
def _walk(api, path, query_extra=None, limit=7):
    """Walk a cursor-paginated route to exhaustion."""
    items, cursor, pages = [], None, 0
    while True:
        query = {"limit": str(limit)}
        query.update(query_extra or {})
        if cursor is not None:
            query["cursor"] = str(cursor)
        status, doc = api.handle("GET", path, query=query)
        assert status == 200, doc
        assert doc["page"]["limit"] == limit
        items.extend(doc["items"])
        pages += 1
        cursor = doc["page"]["next_cursor"]
        assert doc["page"]["has_more"] == (cursor is not None)
        if cursor is None:
            return items, pages


def test_boundary_cursor_walk_is_complete(api):
    status, one_page = api.handle(
        "GET", f"/api/runs/{api.run_id}/boundary",
        query={"limit": "200"})
    assert status == 200
    items, pages = _walk(api, f"/api/runs/{api.run_id}/boundary")
    assert pages > 1, "fixture too small to exercise pagination"
    assert items == one_page["items"]


def test_cursor_stability_under_concurrent_inserts(api):
    """Pages fetched while other runs land in the store enumerate
    exactly the frozen run's boundary set — keyset cursors key on
    (run_id, vertex), which concurrent inserts never mutate."""
    before, _ = _walk(api, f"/api/runs/{api.run_id}/boundary")
    seen, cursor = [], None
    extra_seed = 100
    while True:
        query = {"limit": "7"}
        if cursor is not None:
            query["cursor"] = str(cursor)
        status, doc = api.handle(
            "GET", f"/api/runs/{api.run_id}/boundary", query=query)
        assert status == 200
        seen.extend(doc["items"])
        # a concurrent writer lands a whole new run between our pages
        graph = CSRGraph(rmat_edges(7, 4, seed=extra_seed))
        api.store.add_run(DBH(4, seed=extra_seed).partition(graph))
        extra_seed += 1
        cursor = doc["page"]["next_cursor"]
        if cursor is None:
            break
    assert seen == before
    vertices = [i["vertex"] for i in seen]
    assert len(vertices) == len(set(vertices))


def test_replica_pages_partition_the_vertex_set(api):
    from collections import Counter
    counted: Counter = Counter()
    for p in range(api.result.num_partitions):
        items, _ = _walk(api, f"/api/runs/{api.run_id}/replicas",
                         query_extra={"partition": str(p)})
        assert items == sorted(items)
        counted.update(items)
    # every replica counted once: total == sum of per-vertex degrees
    indptr = api.store.load_array(api.run_id, "replica_indptr")
    assert sum(counted.values()) == int(indptr[-1])


def test_page_limit_is_clamped(api):
    from repro.serving.api import MAX_PAGE_LIMIT
    status, doc = api.handle("GET", f"/api/runs/{api.run_id}/boundary",
                             query={"limit": "99999"})
    assert status == 200
    assert doc["page"]["limit"] == MAX_PAGE_LIMIT
    status, doc = api.handle("GET", f"/api/runs/{api.run_id}/boundary",
                             query={"limit": "0"})
    assert status == 400


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------
def _poll_done(api, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, doc = api.handle("GET", f"/api/jobs/{job_id}")
        assert status == 200
        if doc["state"] in ("done", "failed"):
            return doc
        time.sleep(0.05)
    pytest.fail(f"job {job_id} did not finish: {doc}")


def test_job_submit_poll_and_query(api):
    status, doc = api.handle(
        "POST", "/api/runs",
        body=_body({"method": "dbh", "dataset": "roadnet-pa",
                    "partitions": 4, "seed": 7, "label": "via-api"}))
    assert status == 202 and doc["poll"] == f"/api/jobs/{doc['job_id']}"
    final = _poll_done(api, doc["job_id"])
    assert final["state"] == "done", final
    run_id = final["run_id"]
    status, run = api.handle("GET", f"/api/runs/{run_id}")
    assert status == 200
    assert run["label"] == "via-api" and run["source"].startswith("job:")
    status, doc = api.handle("GET", f"/api/runs/{run_id}/vertex/0")
    assert status == 200 and doc["replicas"] >= 1
    status, doc = api.handle("GET", "/api/jobs")
    assert status == 200 and len(doc["items"]) == 1
    # the finished job thread closed its store connection
    deadline = time.monotonic() + 5
    while len(api.store._all_conns) > 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(api.store._all_conns) == 1


def test_job_validation_errors(api):
    bad = [
        {"method": "nope", "dataset": "pokec"},
        {"method": "dbh", "dataset": "nope"},
        {"method": "dbh", "dataset": "pokec", "partitions": 0},
        {"method": "dbh", "dataset": "pokec", "seed": "x"},
        {"method": "dbh", "dataset": "pokec", "checkpoint_every": 0},
    ]
    for doc in bad:
        status, payload = api.handle("POST", "/api/runs",
                                     body=_body(doc))
        assert status == 400, (doc, payload)
    # checkpointing on a method without a checkpoint plane fails the
    # job (validated at execution, surfaced through status), not the
    # whole server
    status, doc = api.handle(
        "POST", "/api/runs",
        body=_body({"method": "dbh", "dataset": "roadnet-pa",
                    "checkpoint_every": 5}))
    assert status == 202
    final = _poll_done(api, doc["job_id"])
    assert final["state"] == "failed"
    assert "does not support" in final["error"]


def test_job_rides_the_checkpoint_plane(api, tmp_path):
    status, doc = api.handle(
        "POST", "/api/runs",
        body=_body({"method": "distributed_ne", "dataset": "roadnet-pa",
                    "partitions": 4, "seed": 1, "checkpoint_every": 8}))
    assert status == 202
    final = _poll_done(api, doc["job_id"], timeout=300.0)
    assert final["state"] == "done", final
    assert final["checkpoints"], "job reported no checkpointed steps"
    assert final["checkpoints"] == sorted(final["checkpoints"])
