"""Closed-loop HTTP load client: one thread, keep-alive raw sockets.

The read load is a closed loop of *window 4*: four keep-alive
connections, one pre-encoded request in flight on each, driven by one
thread in a process of its own.  The window was chosen by measurement
on the 2-vCPU sandbox: with one or two requests outstanding the server
idles between requests and its throughput flips between two modes
(about 3800 and 2000 requests/s, each lasting seconds) depending on how
the sleeping event-loop and executor threads get woken, so run medians
swung by 30 %; with four outstanding the server is never idle, the
number measured is its capacity under the interpreter lock, and run
medians of throughput, p50 and p99 held within 4 %.  Eight and more
only lengthen the queue and make p99 noisier.  An in-process client
(``http.client`` threads, or this loop on a thread) shares the
server's interpreter lock and measures mostly itself.

Timed rounds check only the status line and the body length the
server announced, so the client stays cheap; the untimed pre-pass
returns full bodies, which ``workloads.py`` hands to ``oracle.py``.
No code of the system under test is imported here.
"""

from __future__ import annotations

import json
import select
import socket
import sys
import time

import numpy as np

WINDOW = 4
ROUTES = ("lookup", "vertex", "boundary")
#: request mix of the read phase, by route
MIX = (0.80, 0.15, 0.05)
LOOKUP_IDS = 64
ZIPF_A = 1.2
BOUNDARY_LIMIT = 100


def encode(method: str, path: str, body: bytes = b"") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
    if body:
        head += ("Content-Type: application/json\r\n"
                 f"Content-Length: {len(body)}\r\n")
    return head.encode("latin-1") + b"\r\n" + body


def request_mix(rng: np.random.Generator, count: int, run_id: int,
                hot_order: np.ndarray) -> list:
    """``count`` seeded read requests as ``(route, key, wire_bytes)``.

    ``key`` is what the oracle needs to check the answer: the id list
    of a bulk lookup, the vertex of a point lookup, the cursor of a
    boundary page.  ``hot_order`` is a permutation of the vertex ids:
    Zipf rank *k* asks for ``hot_order[k - 1]``, so the hot vertices
    are not simply the low ids and stay the same from round to round.
    """
    num_vertices = len(hot_order)
    routes = rng.choice(len(ROUTES), size=count, p=MIX)
    out = []
    for route in routes.tolist():
        if route == 0:
            ids = rng.integers(0, num_vertices, size=LOOKUP_IDS).tolist()
            body = json.dumps({"vertices": ids}).encode()
            out.append((0, ids, encode(
                "POST", f"/api/runs/{run_id}/lookup", body)))
        elif route == 1:
            rank = min(int(rng.zipf(ZIPF_A)), num_vertices) - 1
            vertex = int(hot_order[rank])
            out.append((1, vertex, encode(
                "GET", f"/api/runs/{run_id}/vertex/{vertex}")))
        else:
            cursor = int(rng.integers(0, num_vertices))
            out.append((2, cursor, encode(
                "GET", f"/api/runs/{run_id}/boundary"
                       f"?limit={BOUNDARY_LIMIT}&cursor={cursor}")))
    return out


class Connection:
    """One keep-alive connection with at most one request in flight."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def fileno(self) -> int:
        return self.sock.fileno()

    def send(self, wire: bytes) -> None:
        self.sock.sendall(wire)

    def receive(self) -> tuple[int, bytes]:
        """Block until one full response arrived: ``(status, body)``."""
        buf = self._buf
        while b"\r\n\r\n" not in buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk
        head, _, rest = buf.partition(b"\r\n\r\n")
        status = int(head[9:12])
        lower = head.lower()
        at = lower.index(b"content-length:") + 15
        end = lower.find(b"\r", at)
        length = int(lower[at:end if end >= 0 else len(lower)])
        while len(rest) < length:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-body")
            rest += chunk
        self._buf = rest[length:]
        return status, rest[:length]

    def call(self, wire: bytes) -> tuple[int, bytes]:
        self.send(wire)
        return self.receive()

    def close(self) -> None:
        self.sock.close()


class RoundResult:
    """Latencies (seconds) and failures of one stretch of read load."""

    def __init__(self):
        self.latencies: list = []
        self.routes: list = []
        self.non200 = 0
        self.wall = 0.0

    def summary(self) -> dict:
        lat = np.asarray(self.latencies) * 1e3
        routes = np.asarray(self.routes)
        doc = {"requests": len(lat), "non200": self.non200,
               "wall_s": self.wall,
               "p50_ms": float(np.percentile(lat, 50)),
               "p99_ms": float(np.percentile(lat, 99)),
               "max_ms": float(lat.max())}
        for i, name in enumerate(ROUTES):
            mine = lat[routes == i]
            doc[f"{name}_ms"] = float(mine.mean()) if len(mine) else 0.0
        return doc


def read_load(conns: list, requests: list, until=None,
              poll_every: float = 0.02) -> RoundResult:
    """Drive ``requests`` through ``conns`` keeping one in flight each.

    Without ``until`` the stretch ends when every request was answered.
    With ``until`` (a callable polled every ``poll_every`` seconds
    between answers) the request list is cycled until it returns True —
    the mixed phase, where the stretch lasts as long as the ingest job.
    """
    result = RoundResult()
    n = len(requests)
    nxt = 0
    pending = {}

    def send_next(conn) -> None:
        nonlocal nxt
        route, _, wire = requests[nxt % n]
        conn.send(wire)
        pending[conn] = (time.perf_counter(), route)
        nxt += 1

    start = time.perf_counter()
    for conn in conns[:n]:
        send_next(conn)
    next_poll = start + poll_every
    stop = False
    while pending:
        ready, _, _ = select.select(list(pending), [], [], 60)
        if not ready:
            raise TimeoutError("no response within 60 s")
        for conn in ready:
            status, _body = conn.receive()
            now = time.perf_counter()
            sent, route = pending.pop(conn)
            result.latencies.append(now - sent)
            result.routes.append(route)
            if status != 200:
                result.non200 += 1
            if until is not None and not stop and now >= next_poll:
                stop = until()
                next_poll = time.perf_counter() + poll_every
            if (not stop) if until is not None else nxt < n:
                send_next(conn)
    result.wall = time.perf_counter() - start
    return result


def main() -> None:
    """Run as a process of its own, so the client never shares the
    server's interpreter lock: reads one JSON spec from stdin, writes
    one JSON result to stdout.

    Spec keys: ``host``, ``port``, ``run_id``, ``num_vertices``,
    ``seed``, ``prepass`` (requests answered in full for the oracle),
    ``round_requests`` and ``rounds`` (the read phase), ``jobs``,
    ``job_request`` and ``warmup_job_request`` (the mixed phase).
    Round 0 and job 0 are extra: warm-ups (thread pool, caches, the job
    thread's lazy imports) that the caller checks for failures but
    leaves out of its medians.
    """
    spec = json.load(sys.stdin)
    rng = np.random.default_rng(spec["seed"])
    host, port = spec["host"], spec["port"]
    run_id = spec["run_id"]
    hot_order = rng.permutation(spec["num_vertices"])
    t0 = time.perf_counter()
    conns = [Connection(host, port) for _ in range(WINDOW)]
    control = Connection(host, port)
    out = {"connect_s": time.perf_counter() - t0}

    out["prepass"] = []
    for route, key, wire in request_mix(rng, spec["prepass"], run_id, hot_order):
        status, body = conns[0].call(wire)
        out["prepass"].append([route, key, status, body.decode("utf-8")])

    per_round = spec["round_requests"]
    out["rounds"] = [
        read_load(conns, request_mix(rng, per_round, run_id, hot_order)).summary()
        for _ in range(1 + spec["rounds"])]

    out["jobs"] = []
    requests = request_mix(rng, per_round, run_id, hot_order)
    for request in ([spec["warmup_job_request"]]
                    + [spec["job_request"]] * spec["jobs"]):
        t0 = time.perf_counter()
        status, body = control.call(
            encode("POST", "/api/runs", json.dumps(request).encode()))
        if status != 202:
            raise RuntimeError(f"job refused: {status} {body[:200]!r}")
        poll = encode("GET", f"/api/jobs/{json.loads(body)['job_id']}")
        seen = {}

        def finished():
            _, reply = control.call(poll)
            seen.update(json.loads(reply))
            return seen["state"] in ("done", "failed")

        doc = read_load(conns, requests, until=finished).summary()
        doc["job_s"] = time.perf_counter() - t0
        doc["state"] = seen["state"]
        doc["run_id"] = seen.get("run_id")
        out["jobs"].append(doc)

    for conn in conns + [control]:
        conn.close()
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
