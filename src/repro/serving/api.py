"""HTTP query layer over the run store.

A dependency-free HTTP/1.1 server on stdlib ``ThreadingHTTPServer``:
a thread per connection frames requests with the stdlib's bounded
parser, bodies are capped at :data:`MAX_BODY_BYTES`, a connection idle
or stalled for :data:`IDLE_TIMEOUT_S` is closed, and responses are
JSON.  Keep-alive is supported, so a load generator can hammer one
connection with thousands of lookups.  Handlers run one at a time
(:class:`_Server` says why).

The routing core is :meth:`ServingAPI.handle` — a pure
``(method, path, query, body) -> (status, payload)`` function with no
socket types in sight, so the route tests exercise it directly and the
socket layer stays a thin framing shell.  Long partitioning runs are
submitted as background *jobs* (one thread each) and polled via
``/api/jobs/<id>``; a job started with ``checkpoint_every`` rides the
PR-7 checkpoint plane (:mod:`repro.cluster.checkpoint`), so its status
reports the snapshot ledger while the run is in flight.

Endpoint reference: ``docs/API.md`` (kept in lockstep with this
module; the docs CI job link-checks it).  Pagination follows the
keyset-cursor contract of :meth:`LookupService.boundary_page`: pass the
``next_cursor`` from one page as ``cursor`` of the next; cursors are
stable under concurrent run inserts because the key is the immutable
vertex id of one frozen run.

Observability: the API owns a live
:class:`~repro.observability.metrics.MetricsRegistry` (installed
process-wide via :func:`enable_metrics`, so cluster counters from
background jobs land in the same registry) and serves it as Prometheus
text on ``GET /metrics``.  Jobs whose partitioner accepts ``tracer=``
record a Chrome trace, retrievable from ``GET /api/runs/{id}/trace``.
"""

from __future__ import annotations

import itertools
import json
import logging
import socket
import socketserver
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.observability.metrics import enable_metrics
from repro.serving.lookup import LookupRangeError, LookupService
from repro.serving.store import RunStore, StoreError

__all__ = ["ServingAPI", "ApiError", "BackgroundServer", "serve"]

_log = logging.getLogger("repro.serving")

#: hard page-size ceiling (Snippet-3 style: default 50, max 200)
MAX_PAGE_LIMIT = 200
DEFAULT_PAGE_LIMIT = 50
#: largest bulk-lookup batch a single POST may carry
MAX_BULK_IDS = 200_000
#: largest request body accepted (covers MAX_BULK_IDS int ids as JSON)
MAX_BODY_BYTES = 4 * 1024 * 1024


class ApiError(Exception):
    """An HTTP error response: ``(status, message)``."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class _Job:
    """One background partitioning run."""

    _ids = itertools.count(1)

    def __init__(self, request: dict):
        self.job_id = next(self._ids)
        self.request = request
        self.state = "pending"      # pending -> running -> done | failed
        self.run_id: int | None = None
        self.error: str | None = None
        self.checkpoint_dir: str | None = None
        self.lock = threading.Lock()

    def snapshot(self) -> dict:
        with self.lock:
            doc = {"job_id": self.job_id, "state": self.state,
                   "run_id": self.run_id, "error": self.error,
                   "request": self.request}
        if self.checkpoint_dir is not None:
            from repro.cluster.checkpoint import CheckpointStore
            doc["checkpoints"] = CheckpointStore(self.checkpoint_dir).steps()
        return doc


class ServingAPI:
    """Routes over one :class:`RunStore` + :class:`LookupService`."""

    def __init__(self, store: RunStore, *,
                 lookup: LookupService | None = None,
                 hot_vertices: int = 4096, registry=None):
        self.store = store
        self.lookup = lookup or LookupService(store,
                                              hot_vertices=hot_vertices)
        # The serving plane is the one place metrics default to *on*:
        # installing the registry process-wide means cluster counters
        # from background partitioning jobs land in the same /metrics
        # output.  Pass an explicit registry (e.g. a NullMetricsRegistry)
        # to opt out.
        self.registry = registry if registry is not None else \
            enable_metrics()
        self._traces: dict[int, dict] = {}
        self._jobs: dict[int, _Job] = {}
        self._jobs_lock = threading.Lock()

    # -- dispatch ------------------------------------------------------
    def handle(self, method: str, path: str, query: dict | None = None,
               body: bytes | None = None) -> tuple[int, dict | str]:
        """Route one request; returns ``(status, payload)``.

        ``payload`` is a JSON-serialisable dict everywhere except
        ``GET /metrics``, which returns the Prometheus exposition as a
        plain string.  ``query`` accepts plain scalars or
        ``parse_qs``-style value lists (the socket layer passes the
        latter; repeated parameters resolve to their last value).
        Never raises for client-visible conditions — bad routes,
        parameters, and ids come back as 4xx payloads with an
        ``error`` key.
        """
        query = {k: v if isinstance(v, list) else [str(v)]
                 for k, v in (query or {}).items()}
        start = time.perf_counter()
        try:
            status, payload = self._route(method.upper(), path, query,
                                          body)
        except ApiError as exc:
            status, payload = exc.status, {"error": exc.message}
        except (StoreError, LookupRangeError) as exc:
            status = 404 if isinstance(exc, StoreError) else 400
            payload = {"error": str(exc)}
        if self.registry.enabled:
            route = _route_label(path)
            self.registry.counter_inc("repro_http_requests_total",
                                      route=route, status=str(status))
            self.registry.observe("repro_http_request_seconds",
                                  time.perf_counter() - start,
                                  route=route)
        return status, payload

    def request_count(self) -> int:
        """Total requests handled (all routes, all statuses)."""
        return int(self.registry.counter_total(
            "repro_http_requests_total"))

    def _route(self, method, path, query, body):
        seg = [s for s in path.split("/") if s]
        # /metrics sits outside the /api JSON namespace (Prometheus
        # convention), but /api/metrics works too for uniform clients.
        if seg in (["metrics"], ["api", "metrics"]):
            self._require(method, "GET")
            return 200, self.render_metrics()
        if not seg or seg[0] != "api":
            raise ApiError(404, f"unknown path {path!r}")
        seg = seg[1:]
        if seg == ["health"]:
            self._require(method, "GET")
            return 200, {"status": "ok"}
        if seg == ["runs"]:
            if method == "POST":
                return self._submit_job(body)
            self._require(method, "GET")
            return self._list_runs(query)
        if seg == ["jobs"]:
            self._require(method, "GET")
            with self._jobs_lock:
                jobs = sorted(self._jobs.values(),
                              key=lambda j: j.job_id)
            return 200, {"items": [j.snapshot() for j in jobs]}
        if len(seg) == 2 and seg[0] == "jobs":
            self._require(method, "GET")
            return self._job_status(_int(seg[1], "job id"))
        if seg and seg[0] == "runs" and len(seg) >= 2:
            run_id = _int(seg[1], "run id")
            rest = seg[2:]
            if not rest:
                self._require(method, "GET")
                return self._run_detail(run_id)
            if rest == ["metrics"]:
                self._require(method, "GET")
                return 200, {"run_id": run_id,
                             "metrics": self.store.metrics(run_id)}
            if rest == ["trace"]:
                self._require(method, "GET")
                return self._run_trace(run_id)
            if rest == ["lookup"]:
                self._require(method, "POST")
                return self._bulk_lookup(run_id, body)
            if rest == ["boundary"]:
                self._require(method, "GET")
                return self._boundary(run_id, query)
            if rest == ["replicas"]:
                self._require(method, "GET")
                return self._replicas(run_id, query)
            if len(rest) == 2 and rest[0] == "vertex":
                self._require(method, "GET")
                return self._vertex(run_id, _int(rest[1], "vertex id"))
            if len(rest) == 2 and rest[0] == "edge":
                self._require(method, "GET")
                return self._edge(run_id, _int(rest[1], "edge id"))
        raise ApiError(404, f"unknown path {path!r}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise ApiError(405, f"method {method} not allowed "
                                f"(expected {expected})")

    # -- runs ----------------------------------------------------------
    def _list_runs(self, query):
        limit = _page_limit(query)
        offset = max(0, _query_int(query, "offset", 0))
        items = self.store.list_runs(limit=limit, offset=offset)
        total = self.store.run_count()
        return 200, {"items": items,
                     "page": {"total": total, "limit": limit,
                              "offset": offset,
                              "has_more": offset + len(items) < total}}

    def _run_detail(self, run_id):
        run = self.store.get_run(run_id)
        run["metrics"] = self.store.metrics(run_id)
        run["cache"] = {"hot_vertices": self.lookup.cache_info(),
                        "run_arrays": self.lookup.run_cache_info()}
        return 200, run

    def _run_trace(self, run_id):
        self.store.get_run(run_id)  # 404 for unknown runs
        trace = self._traces.get(run_id)
        if trace is None:
            raise ApiError(404, f"run {run_id} has no recorded trace "
                                "(only runs produced by jobs whose "
                                "method takes tracer= record one)")
        return 200, trace

    # -- observability -------------------------------------------------
    def render_metrics(self) -> str:
        """Prometheus text for ``GET /metrics``.

        Point-in-time gauges (cache hit/miss counters, stored-run
        count) are refreshed at render time; everything else — request
        counters, latency histograms, cluster totals from jobs — is
        accumulated in the registry as it happens.
        """
        registry = self.registry
        if registry.enabled:
            for prefix, info in (
                    ("repro_lookup_hot_cache", self.lookup.cache_info()),
                    ("repro_lookup_run_cache",
                     self.lookup.run_cache_info())):
                registry.gauge_set(f"{prefix}_hits", info["hits"])
                registry.gauge_set(f"{prefix}_misses", info["misses"])
                registry.gauge_set(f"{prefix}_entries", info["entries"])
            registry.gauge_set("repro_store_runs",
                               self.store.run_count())
        return registry.render_prometheus()

    def _vertex(self, run_id, vertex):
        parts = self.lookup.vertex_lookup(run_id, vertex)
        return 200, {"run_id": run_id, "vertex": vertex,
                     "partitions": list(parts),
                     "replicas": len(parts),
                     "boundary": len(parts) >= 2}

    def _edge(self, run_id, edge_id):
        return 200, {"run_id": run_id, "edge": edge_id,
                     "partition": self.lookup.edge_lookup(run_id,
                                                          edge_id)}

    # -- bulk lookup ---------------------------------------------------
    def _bulk_lookup(self, run_id, body):
        doc = _json_body(body)
        kernel = doc.get("kernel", "vectorized")
        if kernel not in ("vectorized", "python"):
            raise ApiError(400, f"unknown kernel {kernel!r}")
        has_v, has_e = "vertices" in doc, "edges" in doc
        if has_v == has_e:
            raise ApiError(400,
                           "body must carry exactly one of 'vertices' "
                           "or 'edges'")
        ids = doc["vertices" if has_v else "edges"]
        if not isinstance(ids, list):
            raise ApiError(400, "id list must be a JSON array")
        if len(ids) > MAX_BULK_IDS:
            raise ApiError(413, f"bulk lookup capped at {MAX_BULK_IDS} "
                                f"ids per request (got {len(ids)})")
        try:
            arr = np.asarray(ids)
        except (ValueError, OverflowError, TypeError):
            raise ApiError(400, "id list must contain only integers")
        if arr.shape != (len(ids),):
            raise ApiError(400, "id list must be flat")
        if len(ids) and arr.dtype.kind not in "iu":
            # np.asarray(..., dtype=int64) would truncate floats
            # silently; reject anything that isn't integral
            raise ApiError(400, "id list must contain only integers")
        arr = arr.astype(np.int64) if len(ids) else np.empty(
            0, dtype=np.int64)
        if has_v:
            counts, flat = self.lookup.bulk_vertex_lookup(
                run_id, arr, kernel=kernel)
            return 200, {"run_id": run_id, "kernel": kernel,
                         "vertices": len(ids),
                         "counts": counts.tolist(),
                         "partitions": flat.tolist()}
        parts = self.lookup.bulk_edge_lookup(run_id, arr, kernel=kernel)
        return 200, {"run_id": run_id, "kernel": kernel,
                     "edges": len(ids), "partitions": parts.tolist()}

    # -- paginated listings -------------------------------------------
    def _boundary(self, run_id, query):
        limit = _page_limit(query)
        cursor = _query_cursor(query)
        items, next_cursor = self.lookup.boundary_page(
            run_id, cursor=cursor, limit=limit)
        return 200, {"items": items,
                     "page": _cursor_page(limit, next_cursor)}

    def _replicas(self, run_id, query):
        if "partition" not in query:
            raise ApiError(400, "missing required parameter 'partition'")
        partition = _query_int(query, "partition", None)
        limit = _page_limit(query)
        cursor = _query_cursor(query)
        vertices, next_cursor = self.lookup.replica_page(
            run_id, partition, cursor=cursor, limit=limit)
        return 200, {"run_id": run_id, "partition": partition,
                     "items": vertices,
                     "page": _cursor_page(limit, next_cursor)}

    # -- jobs ----------------------------------------------------------
    def _submit_job(self, body):
        from repro.graph.datasets import DATASETS
        from repro.partitioners import PARTITIONER_REGISTRY

        doc = _json_body(body)
        method = doc.get("method")
        if method not in PARTITIONER_REGISTRY:
            raise ApiError(400, f"unknown method {method!r}; available: "
                                f"{sorted(PARTITIONER_REGISTRY)}")
        dataset = doc.get("dataset")
        if dataset not in DATASETS:
            raise ApiError(400, f"unknown dataset {dataset!r}; "
                                f"available: {sorted(DATASETS)}")
        partitions = doc.get("partitions", 16)
        if not isinstance(partitions, int) or partitions < 1:
            raise ApiError(400, "'partitions' must be a positive integer")
        seed = doc.get("seed", 0)
        if not isinstance(seed, int):
            raise ApiError(400, "'seed' must be an integer")
        checkpoint_every = doc.get("checkpoint_every")
        if checkpoint_every is not None and (
                not isinstance(checkpoint_every, int)
                or checkpoint_every < 1):
            raise ApiError(400, "'checkpoint_every' must be a positive "
                                "integer")
        request = {"method": method, "dataset": dataset,
                   "partitions": partitions, "seed": seed}
        if doc.get("label") is not None:
            request["label"] = str(doc["label"])
        if checkpoint_every is not None:
            request["checkpoint_every"] = checkpoint_every
        job = _Job(request)
        with self._jobs_lock:
            self._jobs[job.job_id] = job
        thread = threading.Thread(target=self._run_job, args=(job,),
                                  name=f"serving-job-{job.job_id}",
                                  daemon=True)
        thread.start()
        return 202, {"job_id": job.job_id, "state": job.state,
                     "poll": f"/api/jobs/{job.job_id}"}

    def _job_status(self, job_id):
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ApiError(404, f"unknown job {job_id}")
        return 200, job.snapshot()

    def _run_job(self, job: _Job) -> None:
        import inspect as _inspect

        from repro.graph.datasets import load_dataset
        from repro.partitioners import PARTITIONER_REGISTRY

        req = job.request
        with job.lock:
            job.state = "running"
        try:
            cls = PARTITIONER_REGISTRY[req["method"]]
            params = _inspect.signature(cls.__init__).parameters
            kwargs = {}
            if req.get("checkpoint_every") is not None:
                if "checkpoint_dir" not in params:
                    raise ValueError(
                        f"method {req['method']!r} does not support "
                        "checkpointing")
                job.checkpoint_dir = (f"{self.store.path}.jobs/"
                                      f"job-{job.job_id}")
                kwargs["checkpoint_dir"] = job.checkpoint_dir
                if "checkpoint_every" in params:
                    kwargs["checkpoint_every"] = req["checkpoint_every"]
            tracer = None
            if "tracer" in params:
                from repro.observability.trace import Tracer
                tracer = Tracer()
                kwargs["tracer"] = tracer
            graph = load_dataset(req["dataset"], seed=req["seed"])
            result = cls(req["partitions"], seed=req["seed"],
                         **kwargs).partition(graph)
            run_id = self.store.add_run(
                result, seed=req["seed"],
                label=req.get("label", req["dataset"]),
                source=f"job:{job.job_id}")
            if tracer is not None and len(tracer):
                self._traces[run_id] = tracer.to_chrome()
            with job.lock:
                job.run_id = run_id
                job.state = "done"
        except Exception as exc:  # surfaced through the status endpoint
            with job.lock:
                job.error = f"{type(exc).__name__}: {exc}"
                job.state = "failed"
        finally:
            self.store.release_thread()


# ----------------------------------------------------------------------
# request/parameter helpers
# ----------------------------------------------------------------------
#: run sub-resources that map to their own route label
_RUN_SUBROUTES = frozenset(
    {"metrics", "lookup", "boundary", "replicas", "trace"})


def _route_label(path: str) -> str:
    """Collapse a request path to a bounded route-template label.

    Ids are replaced with ``{id}`` placeholders so the
    ``repro_http_requests_total`` label set stays small no matter how
    many runs/vertices a client walks; anything unrecognised (which a
    client can mint freely) collapses to ``"other"``.
    """
    seg = [s for s in path.split("/") if s]
    if seg in (["metrics"], ["api", "metrics"]):
        return "/metrics"
    if not seg or seg[0] != "api":
        return "other"
    seg = seg[1:]
    if seg in ([], ["health"], ["runs"], ["jobs"]):
        return "/api/" + "/".join(seg) if seg else "/api"
    if len(seg) == 2 and seg[0] in ("jobs", "runs"):
        return f"/api/{seg[0]}/{{id}}"
    if len(seg) == 3 and seg[0] == "runs" and seg[2] in _RUN_SUBROUTES:
        return f"/api/runs/{{id}}/{seg[2]}"
    if len(seg) == 4 and seg[0] == "runs" and seg[2] in ("vertex",
                                                         "edge"):
        return f"/api/runs/{{id}}/{seg[2]}/{{id}}"
    return "other"


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ApiError(400, f"invalid {what}: {text!r}")


def _query_int(query: dict, name: str, default):
    values = query.get(name)
    if not values:
        if default is None:
            raise ApiError(400, f"missing required parameter {name!r}")
        return default
    return _int(values[-1], f"parameter {name!r}")


def _page_limit(query: dict) -> int:
    limit = _query_int(query, "limit", DEFAULT_PAGE_LIMIT)
    if limit < 1:
        raise ApiError(400, "parameter 'limit' must be >= 1")
    return min(limit, MAX_PAGE_LIMIT)


def _query_cursor(query: dict) -> int | None:
    values = query.get("cursor")
    if not values:
        return None
    return _int(values[-1], "cursor")


def _cursor_page(limit: int, next_cursor) -> dict:
    return {"limit": limit,
            "next_cursor": None if next_cursor is None
            else str(next_cursor),
            "has_more": next_cursor is not None}


def _json_body(body: bytes | None) -> dict:
    if not body:
        raise ApiError(400, "missing JSON request body")
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ApiError(400, f"invalid JSON body: {exc}")
    if not isinstance(doc, dict):
        raise ApiError(400, "JSON body must be an object")
    return doc


# ----------------------------------------------------------------------
# socket layer: stdlib http.server
# ----------------------------------------------------------------------
#: seconds a connection may idle between requests, or stall inside one,
#: before it is closed (without a 408: the stdlib handler just drops it)
IDLE_TIMEOUT_S = 60
#: seconds ``stop()`` waits for connection threads still inside a handler
STOP_JOIN_S = 10


class _Handler(BaseHTTPRequestHandler):
    """One connection's framing; every routed method is :meth:`_dispatch`."""

    protocol_version = "HTTP/1.1"
    # a response goes out at once, never held back for the last ACK
    disable_nagle_algorithm = True

    def setup(self) -> None:
        self.timeout = IDLE_TIMEOUT_S  # read per connection, not at import
        super().setup()
        self.server.api.registry.counter_inc("repro_http_connections_total")

    def _dispatch(self) -> None:
        length = self.headers.get("Content-Length", "0")
        if not length.isdecimal():
            return self.send_error(400, "invalid Content-Length")
        if int(length) > MAX_BODY_BYTES:
            return self.send_error(
                413, f"body larger than {MAX_BODY_BYTES} bytes")
        body = self.rfile.read(int(length))
        parts = urlsplit(self.path)
        query = parse_qs(parts.query)
        try:
            with self.server.handle_lock:
                status, payload = self.server.api.handle(
                    self.command, parts.path, query, body)
        except Exception as exc:  # a bug, not a client error
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        self._reply(status, payload)

    do_GET = do_POST = do_PUT = do_PATCH = do_DELETE = _dispatch

    def send_error(self, code, message=None, explain=None) -> None:
        # the stdlib parser's framing errors, in the API's JSON shape
        self.close_connection = True
        self._reply(code, {"error": message or self.responses[code][0]})

    def _reply(self, status: int, payload) -> None:
        if isinstance(payload, str):  # /metrics Prometheus exposition
            body = payload.encode("utf-8")
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            ctype = "application/json"
        self.close_connection |= status >= 500
        connection = "close" if self.close_connection else "keep-alive"
        head = (f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                f"Content-Type: {ctype}\r\nContent-Length: {len(body)}\r\n"
                f"Connection: {connection}\r\n\r\n")
        self.log_request(status, len(body))
        self.wfile.write(head.encode("latin-1") + body)

    def log_message(self, format, *args) -> None:
        # the stdlib default prints every request to stderr
        _log.debug("%s " + format, self.address_string(), *args)


class _Server(ThreadingHTTPServer):
    """A thread per connection, and one :meth:`ServingAPI.handle` at a time.

    Parsing and socket I/O stay per connection.  Unlocked, connection
    threads convoy on the GIL with a job thread and readers stall ≈ 5x
    longer behind it (the gate's ``serve_hdrf`` on 2 vCPUs: 98 vs 17 ms
    ``mixed_read_stall_ms``).
    """

    def __init__(self, api: ServingAPI, host: str, port: int):
        self.api = api
        self.handle_lock = threading.Lock()
        self._live: dict[threading.Thread, socket.socket] = {}
        super().__init__((host, port), _Handler)

    def server_bind(self) -> None:
        # skip HTTPServer's reverse-DNS lookup of the host name
        socketserver.TCPServer.server_bind(self)

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(target=self.process_request_thread,
                                  args=(request, client_address), daemon=True)
        self._live[thread] = request
        thread.start()

    def process_request_thread(self, request, client_address) -> None:
        super().process_request_thread(request, client_address)  # no raise
        self.api.store.release_thread()  # else one SQLite handle per client
        del self._live[threading.current_thread()]

    def handle_error(self, request, client_address) -> None:
        # a client resetting mid-request is routine; anything else a bug
        _log.log(logging.DEBUG if isinstance(sys.exc_info()[1], OSError)
                 else logging.ERROR, "connection from %s failed",
                 client_address, exc_info=True)

    def close(self) -> None:
        """After ``serve_forever``: drop live sockets, close, join, log."""
        live = dict(self._live)
        for sock in live.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed by its own thread
                pass
        self.server_close()
        deadline = time.monotonic() + STOP_JOIN_S
        for thread in live:  # bounded: a handler may sit in SQLite's wait
            thread.join(max(0.0, deadline - time.monotonic()))
        if any(thread.is_alive() for thread in live):
            _log.warning("connection threads still in a handler after "
                         "%s s; not waiting for them", STOP_JOIN_S)
        _log_shutdown(self.api)


def _log_shutdown(api: ServingAPI) -> None:
    """Drained-connection summary, emitted once per server lifetime.

    Load tests assert on these numbers (``repro --log-level INFO
    serve``), so the line always carries both totals even when the
    registry was disabled (they read 0 then).
    """
    _log.info("serving shut down: %d requests on %d connections",
              api.request_count(),
              int(api.registry.counter_total(
                  "repro_http_connections_total")))


def serve(api: ServingAPI, host: str = "127.0.0.1",
          port: int = 8080) -> None:
    """Run the server in the calling thread until interrupted."""
    server = _Server(api, host, port)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.close()


class BackgroundServer:
    """The server on a daemon thread — for tests, benches, and the CLI.

    ::

        with BackgroundServer(api) as srv:
            http.client.HTTPConnection("127.0.0.1", srv.port)
    """

    def __init__(self, api: ServingAPI, host: str = "127.0.0.1",
                 port: int = 0):
        self.host = host
        self._server = _Server(api, host, port)
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(0.05,),  # stop() lag
            name="serving-http", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop accepting and drop every live connection; idempotent."""
        if not self._thread.is_alive():
            return
        self._server.shutdown()
        self._server.close()
        self._thread.join()

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
