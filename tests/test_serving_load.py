"""Socket-layer tests: the stdlib ``ThreadingHTTPServer`` under load.

``test_serving_api.py`` proves the dispatcher; this file proves the
framing around it — keep-alive connection reuse, a JSON 4xx for every
malformed request instead of a dropped socket, idle and stalled
connections closed after ``IDLE_TIMEOUT_S``, ``stop()`` dropping live
keep-alive sockets, no stderr chatter, and the hard gate the CI serving
job also enforces: a concurrent bulk-lookup hammer must come back with
*zero* 5xx responses and every payload identical to the dispatcher's
answer.  The p99 floor lives in the perf smoke (this file only asserts
correctness, so it stays green on arbitrarily slow boxes).
"""

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_edges
from repro.partitioners.hashing import DBHPartitioner as DBH
from repro.serving import BackgroundServer, RunStore, ServingAPI
from repro.serving import api as api_module


@pytest.fixture
def server(tmp_path):
    store = RunStore(str(tmp_path / "runs.db"))
    graph = CSRGraph(rmat_edges(10, 6, seed=0))
    result = DBH(8, seed=0).partition(graph)
    run_id = store.add_run(result, seed=0, label="load")
    api = ServingAPI(store)
    with BackgroundServer(api) as srv:
        srv.api = api
        srv.run_id = run_id
        srv.num_vertices = graph.num_vertices
        yield srv
    store.close()


def _get(conn, path):
    conn.request("GET", path)
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def test_http_roundtrip_and_keep_alive(server):
    conn = http.client.HTTPConnection("127.0.0.1", server.port)
    try:
        status, doc = _get(conn, "/api/health")
        assert (status, doc) == (200, {"status": "ok"})
        # same socket, second request — keep-alive survives
        status, doc = _get(conn, f"/api/runs/{server.run_id}")
        assert status == 200 and doc["run_id"] == server.run_id
        status, doc = _get(conn, "/api/nope")
        assert status == 404 and "error" in doc
        # and the connection still works after an error response
        status, _ = _get(conn, "/api/health")
        assert status == 200
    finally:
        conn.close()


def test_http_matches_dispatcher(server):
    """The socket layer adds framing, not semantics."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port)
    try:
        body = json.dumps({"vertices": [0, 1, 2, 3], "kernel":
                           "python"}).encode()
        conn.request("POST", f"/api/runs/{server.run_id}/lookup", body,
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        over_http = (resp.status, json.loads(resp.read()))
        direct = server.api.handle(
            "POST", f"/api/runs/{server.run_id}/lookup", body=body)
        assert over_http == direct
    finally:
        conn.close()


def _raw_exchange(port: int, wire: bytes, timeout: float = 10):
    """Send ``wire`` on a fresh socket, read until the server closes."""
    raw = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    try:
        raw.sendall(wire)
        reply = b""
        while chunk := raw.recv(65536):
            reply += chunk
        return reply
    finally:
        raw.close()


_HEALTH = b"GET /api/health HTTP/1.1\r\nHost: t\r\n"

#: framing errors: (request bytes, expected status); each reply is JSON
#: with an ``error`` key and the server closes the connection after it
MALFORMED = {
    "content-length abc": (
        b"POST /api/health HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
    "content-length -1": (
        b"POST /api/health HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
    "101 headers": (_HEALTH + b"".join(
        b"X-H%d: v\r\n" % i for i in range(101)) + b"\r\n", 431),
    "header line over 64 KiB": (
        _HEALTH + b"X-Big: " + b"a" * (64 * 1024 + 1) + b"\r\n\r\n", 431),
    "request line over 64 KiB": (
        b"GET /" + b"a" * (64 * 1024) + b" HTTP/1.1\r\n\r\n", 414),
    "garbage request line": (b"COMPLETE GARBAGE\r\n\r\n", 400),
    "64 MiB body": (b"POST /api/runs/1/lookup HTTP/1.1\r\n"
                    b"Content-Length: %d\r\n\r\n" % (64 * 1024 * 1024),
                    413),
}


@pytest.mark.parametrize("wire,status", MALFORMED.values(),
                         ids=MALFORMED.keys())
def test_malformed_requests_get_4xx_not_hangs(server, wire, status):
    reply = _raw_exchange(server.port, wire)
    head, _, body = reply.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0].split()[1] == str(status), lines[0]
    headers = dict(line.lower().split(": ", 1) for line in lines[1:])
    assert headers["content-type"] == "application/json"
    assert headers["connection"] == "close"
    assert int(headers["content-length"]) == len(body)
    assert "error" in json.loads(body)


def test_idle_and_stalled_connections_close(server, monkeypatch):
    """A connection idle between requests, or stalled inside one, is
    closed after ``IDLE_TIMEOUT_S`` — without a reply."""
    monkeypatch.setattr(api_module, "IDLE_TIMEOUT_S", 0.5,
                        raising=False)
    idle = http.client.HTTPConnection("127.0.0.1", server.port)
    assert _get(idle, "/api/health")[0] == 200
    stalled = {
        "half a request line": b"GET /api/hea",
        "body shorter than its Content-Length": (
            b"POST /api/runs/1/lookup HTTP/1.1\r\n"
            b"Content-Length: 100\r\n\r\n{\"vertices\""),
    }
    socks = {name: socket.create_connection(("127.0.0.1", server.port))
             for name in stalled}
    socks["idle keep-alive"] = idle.sock
    start = time.monotonic()
    for name, wire in stalled.items():
        socks[name].sendall(wire)
    still_open = []
    try:
        for name, sock in socks.items():
            sock.settimeout(max(0.01, start + 2 - time.monotonic()))
            try:
                if sock.recv(4096) != b"":
                    still_open.append(name)
            except TimeoutError:
                still_open.append(name)
    finally:
        for sock in socks.values():
            sock.close()
    assert still_open == []


def test_concurrent_bulk_hammer_zero_5xx(server):
    """The CI serving gate in miniature: concurrent keep-alive clients
    firing bulk lookups; every response must be 200 and correct."""
    clients, requests_each, bulk = 8, 20, 64
    rng = np.random.default_rng(0)
    batches = rng.integers(0, server.num_vertices,
                           size=(clients, requests_each, bulk))
    # one reference answer per (client, request) via the dispatcher
    failures: list = []

    def hammer(cid: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=60)
        try:
            for rid in range(requests_each):
                ids = batches[cid, rid].tolist()
                body = json.dumps({"vertices": ids}).encode()
                conn.request("POST",
                             f"/api/runs/{server.run_id}/lookup",
                             body,
                             {"Content-Type": "application/json"})
                resp = conn.getresponse()
                doc = json.loads(resp.read())
                if resp.status != 200:
                    failures.append((cid, rid, resp.status, doc))
                    return
                expected = server.api.handle(
                    "POST", f"/api/runs/{server.run_id}/lookup",
                    body=body)[1]
                if doc != expected:
                    failures.append((cid, rid, "payload-drift", None))
                    return
        except Exception as exc:  # noqa: BLE001 - collected, re-raised
            failures.append((cid, "exception", repr(exc), None))
        finally:
            conn.close()

    threads = [threading.Thread(target=hammer, args=(cid,))
               for cid in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not failures, failures[:3]


def test_server_stops_cleanly(tmp_path):
    store = RunStore(str(tmp_path / "runs.db"))
    api = ServingAPI(store)
    srv = BackgroundServer(api)
    port = srv.port
    srv.stop()
    store.close()
    with pytest.raises(OSError):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
        conn.request("GET", "/api/health")
        conn.getresponse()


def test_stop_drops_keep_alive_sockets_and_is_idempotent(tmp_path):
    store = RunStore(str(tmp_path / "runs.db"))
    srv = BackgroundServer(ServingAPI(store))
    conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=10)
    try:
        assert _get(conn, "/api/health")[0] == 200
        start = time.monotonic()
        srv.stop()
        assert time.monotonic() - start < 5  # not the idle timeout
        assert conn.sock.recv(4096) == b""
        srv.stop()
    finally:
        conn.close()
        store.close()


@pytest.mark.parametrize("handler_s,join_s,finished", [
    (1.0, 10, True),    # stop() waits for a handler in flight ...
    (30, 0.5, False),   # ... but at most STOP_JOIN_S
], ids=["waits", "bounded"])
def test_stop_joins_in_flight_handlers_with_a_bound(
        tmp_path, monkeypatch, caplog, handler_s, join_s, finished):
    monkeypatch.setattr(api_module, "STOP_JOIN_S", join_s)
    store = RunStore(str(tmp_path / "runs.db"))
    api = ServingAPI(store)
    entered, release, done = (threading.Event() for _ in range(3))

    def slow(*args, **kwargs):
        entered.set()
        release.wait(handler_s)
        done.set()
        return 200, {}

    monkeypatch.setattr(api, "handle", slow)
    srv = BackgroundServer(api)
    raw = socket.create_connection(("127.0.0.1", srv.port), timeout=10)
    try:
        raw.sendall(_HEALTH + b"\r\n")
        assert entered.wait(10)
        start = time.monotonic()
        srv.stop()
        assert time.monotonic() - start < join_s + 2
        assert done.is_set() is finished
        assert ("still in a handler" in caplog.text) is not finished
    finally:
        release.set()
        raw.close()
        store.close()


def test_short_lived_connections_release_their_store_handles(server):
    """Each connection thread opens its own SQLite connection on its
    first store read; it must close it as it ends, not keep it until
    the store closes."""
    store = server.api.store
    for _ in range(50):
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            conn.request("GET", "/metrics", headers={"Connection": "close"})
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
        finally:
            conn.close()
    deadline = time.monotonic() + 5
    while len(store._all_conns) > 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(store._all_conns) == 1  # the fixture's own thread


def test_served_requests_write_nothing_to_stderr(server, capsys):
    conn = http.client.HTTPConnection("127.0.0.1", server.port)
    try:
        assert _get(conn, "/api/health")[0] == 200
        assert _get(conn, "/api/nope")[0] == 404
    finally:
        conn.close()
    assert b" 400 " in _raw_exchange(server.port, b"GARBAGE\r\n\r\n")
    assert capsys.readouterr().err == ""
