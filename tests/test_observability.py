"""Telemetry-plane pins: metrics registry, tracer, and neutrality.

The observability contract (PR 9) has three load-bearing clauses:

1. **Zero-cost-when-off** — the process defaults to the null
   registry/tracer; nothing is recorded and nothing is allocated until
   :func:`enable_metrics` installs a live registry or a ``Tracer`` is
   passed explicitly.
2. **Result-neutral** — running with the full telemetry plane live
   (registry + tracer) is bit-identical to running without it:
   assignments, ops counters, and every deterministic accounting total,
   for DNE, both kernels, all three execution backends.
3. **Deterministic structure** — the *structure* of a trace (span
   names, categories, ordering, args minus wall-clock fields) is a
   pure function of the run parameters, not of the backend or worker
   count; backend identity rides in metadata events only.

Plus the surfaces: Prometheus text on ``GET /metrics`` (valid under
concurrent load, carrying serving *and* cluster series), the
per-run trace endpoint, cache counters on run detail, the ``--trace-out``
/ ``trace summarize`` CLI, and the serve-shutdown summary line.
"""

from __future__ import annotations

import http.client
import json
import logging
import threading
import time

import numpy as np
import pytest

from repro.cli import main
from repro.core.distributed_ne import DistributedNE
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import save_edges_tsv
from repro.graph.generators import rmat_edges
from repro.observability import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NullMetricsRegistry,
    Tracer,
    disable_metrics,
    enable_metrics,
    get_registry,
    load_trace,
    summarize,
)
from repro.observability.trace import NULL_TRACER

PARALLEL = ("threads", "processes")

#: deterministic extras pinned across traced/untraced runs (the same
#: list tests/test_backends.py pins across backends)
_PINNED_EXTRA = ("cluster", "ops_one_hop", "ops_two_hop", "mem_score",
                 "membership", "model_selection_ops",
                 "model_allocation_ops", "random_seed_requests",
                 "remote_seed_requests", "steps_executed",
                 "steps_skipped")


@pytest.fixture(autouse=True)
def _clean_registry():
    """Every test starts and ends with the null registry installed."""
    disable_metrics()
    yield
    disable_metrics()


@pytest.fixture(scope="module")
def graph() -> CSRGraph:
    return CSRGraph(rmat_edges(9, 6, seed=42))


@pytest.fixture
def workers(request) -> int:
    return request.config.getoption("--workers")


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_gauges_and_labels(self):
        reg = MetricsRegistry()
        reg.counter_inc("repro_things_total")
        reg.counter_inc("repro_things_total", 2, method="dne")
        reg.counter_inc("repro_things_total", method="dne")
        reg.gauge_set("repro_depth", 3)
        reg.gauge_set("repro_depth", 7)  # last write wins
        snap = reg.snapshot()
        assert snap["counters"]["repro_things_total"] == 1
        assert snap["counters"]['repro_things_total{method="dne"}'] == 3
        assert snap["gauges"]["repro_depth"] == 7
        assert reg.counter_total("repro_things_total") == 4

    def test_counter_rejects_decrease_and_bad_names(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter_inc("repro_things_total", -1)
        with pytest.raises(ValueError):
            reg.counter_inc("bad name")
        with pytest.raises(ValueError):
            reg.counter_inc("repro_ok_total", **{"bad-label": "x"})

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        for v in (0.002, 0.002, 0.3, 99.0):
            reg.observe("repro_lat_seconds", v,
                        buckets=(0.001, 0.01, 1.0))
        text = reg.render_prometheus()
        assert '# TYPE repro_lat_seconds histogram' in text
        assert 'repro_lat_seconds_bucket{le="0.001"} 0' in text
        assert 'repro_lat_seconds_bucket{le="0.01"} 2' in text
        assert 'repro_lat_seconds_bucket{le="1.0"} 3' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 4' in text
        assert 'repro_lat_seconds_count 4' in text
        assert 'repro_lat_seconds_sum' in text

    def test_render_prometheus_shape(self):
        """One TYPE line per metric, series sorted, labels escaped."""
        reg = MetricsRegistry()
        reg.counter_inc("repro_b_total", route='say "hi"\n')
        reg.counter_inc("repro_a_total")
        reg.observe("repro_t_seconds", 0.5)
        text = reg.render_prometheus()
        lines = text.splitlines()
        assert text.endswith("\n")
        assert lines[0] == "# TYPE repro_a_total counter"
        assert lines.index("# TYPE repro_a_total counter") < \
            lines.index("# TYPE repro_b_total counter")
        assert r'repro_b_total{route="say \"hi\"\n"} 1' in lines
        # default buckets rendered in full
        assert sum(1 for ln in lines
                   if ln.startswith("repro_t_seconds_bucket")) == \
            len(DEFAULT_BUCKETS) + 1

    def test_null_registry_is_inert(self):
        reg = NullMetricsRegistry()
        assert reg.enabled is False
        reg.counter_inc("repro_x_total", 5)
        reg.gauge_set("repro_g", 1)
        reg.observe("repro_s_seconds", 0.1)
        assert reg.counter_total("repro_x_total") == 0.0
        assert reg.render_prometheus() == ""
        assert reg.snapshot() == {"counters": {}, "gauges": {},
                                  "histograms": {}}

    def test_enable_disable_cycle(self):
        assert get_registry().enabled is False
        live = enable_metrics()
        assert get_registry() is live and live.enabled
        # idempotent: a second bare call keeps the same registry
        assert enable_metrics() is live
        # an explicit registry always replaces
        other = MetricsRegistry()
        assert enable_metrics(other) is other
        assert get_registry() is other
        disable_metrics()
        assert get_registry().enabled is False


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_chrome_events_and_structure(self):
        tr = Tracer()
        tr.metadata("backend", {"name": "threads"})
        tr.span("phase:one_hop", cat="phase", seconds=0.25,
                args={"phase": "one_hop", "busy_seconds": 0.2})
        doc = tr.to_chrome()
        assert doc["displayTimeUnit"] == "ms"
        meta, span = doc["traceEvents"]
        assert meta["ph"] == "M" and meta["cat"] == "__metadata"
        assert span["ph"] == "X" and span["dur"] == pytest.approx(
            0.25e6)
        assert span["ts"] >= 0
        # structure: X events only, wall-clock args stripped
        assert tr.structure() == [
            ("phase:one_hop", "phase", 0, (("phase", "one_hop"),))]
        assert len(tr) == 2

    def test_write_load_summarize_roundtrip(self, tmp_path):
        tr = Tracer()
        for i in range(3):
            tr.span("superstep:one_hop", cat="superstep", seconds=0.01,
                    args={"executed": 2, "skipped": 1})
        tr.span("run:dne", cat="run", seconds=0.1)
        path = tmp_path / "trace.json"
        tr.write(str(path))
        events = load_trace(str(path))
        assert len(events) == 4
        rows = summarize(events)
        assert rows[0]["name"] == "run:dne"  # sorted by total time
        by_name = {r["name"]: r for r in rows}
        step = by_name["superstep:one_hop"]
        assert step["count"] == 3
        assert step["executed"] == 6 and step["skipped"] == 3
        assert step["total_ms"] == pytest.approx(30.0)

    def test_load_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "not_a_trace.json"
        path.write_text('{"nope": 1}')
        with pytest.raises(ValueError):
            load_trace(str(path))

    def test_null_tracer_is_inert(self):
        NULL_TRACER.span("x", seconds=1.0)
        NULL_TRACER.metadata("backend", {})
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.structure() == []
        assert NULL_TRACER.to_chrome()["traceEvents"] == []


# ----------------------------------------------------------------------
# result neutrality: telemetry on == telemetry off, bit for bit
# ----------------------------------------------------------------------
class TestResultNeutrality:
    @pytest.mark.parametrize("kernel", ["vectorized", "python"])
    @pytest.mark.parametrize("backend", ["simulated", *PARALLEL])
    def test_dne_traced_equals_untraced(self, graph, kernel, backend,
                                        workers):
        w = None if backend == "simulated" else workers
        base = DistributedNE(4, seed=0, kernel=kernel, backend=backend,
                             workers=w).partition(graph)
        enable_metrics(MetricsRegistry())
        try:
            traced = DistributedNE(
                4, seed=0, kernel=kernel, backend=backend, workers=w,
                tracer=Tracer()).partition(graph)
        finally:
            disable_metrics()
        assert np.array_equal(traced.assignment, base.assignment)
        assert traced.iterations == base.iterations
        for key in _PINNED_EXTRA:
            assert traced.extra[key] == base.extra[key], key

    def test_partitioners_default_to_null_telemetry(self, graph):
        """Zero-cost-when-off: no tracer flag, no live registry — the
        run records nothing anywhere."""
        assert get_registry().enabled is False
        res = DistributedNE(4, seed=0).partition(graph)
        assert res.num_partitions == 4
        assert get_registry().render_prometheus() == ""


# ----------------------------------------------------------------------
# trace structure determinism (satellite 3)
# ----------------------------------------------------------------------
class TestTraceStructure:
    def test_dne_structure_identical_across_backends(self, graph,
                                                     workers):
        structures = {}
        backends = {}
        for backend in ("simulated", *PARALLEL):
            w = None if backend == "simulated" else workers
            tracer = Tracer()
            DistributedNE(4, seed=0, backend=backend, workers=w,
                          tracer=tracer).partition(graph)
            structures[backend] = tracer.structure()
            backends[backend] = [e for e in tracer.to_chrome()
                                 ["traceEvents"] if e["ph"] == "M"]
        assert len(structures["simulated"]) > 10
        for backend in PARALLEL:
            assert structures[backend] == structures["simulated"], backend
        # backend identity rides in metadata, not structure
        for backend, events in backends.items():
            assert events[0]["args"] == {"name": backend}

    def test_spans_reconcile_with_superstep_ledger(self, graph):
        """--trace-out's spans must agree with the run's own step
        ledger: summing executed/skipped over superstep spans
        reproduces extra["steps_executed"/"steps_skipped"], and the
        run span carries the run totals."""
        tracer = Tracer()
        res = DistributedNE(4, seed=0, tracer=tracer).partition(graph)
        supersteps = [e for e in tracer.to_chrome()["traceEvents"]
                      if e.get("cat") == "superstep"]
        assert sum(e["args"]["executed"] for e in supersteps) == \
            res.extra["steps_executed"]
        assert sum(e["args"]["skipped"] for e in supersteps) == \
            res.extra["steps_skipped"]
        (run_span,) = [e for e in tracer.to_chrome()["traceEvents"]
                       if e.get("cat") == "run"]
        assert run_span["args"]["iterations"] == res.iterations
        assert run_span["args"]["executed"] == \
            res.extra["steps_executed"]
        # five phases per iteration, one phase span each
        phases = [e for e in tracer.to_chrome()["traceEvents"]
                  if e.get("cat") == "phase"]
        assert len(phases) == 5 * res.iterations

    def test_dne_span_vocabulary_is_pinned(self, graph):
        """Version-to-version pin (the tests above compare backends
        with each other, never with a fixed expectation, while
        ``benchmarks/e2e/spans.py`` reads ``phase:*`` by name): the
        literal (name, category, arg keys) set of one fixed-seed run,
        and each iteration's superstep -> phase alternation."""
        tracer = Tracer()
        res = DistributedNE(4, seed=0, tracer=tracer).partition(graph)
        spans = [e for e in tracer.to_chrome()["traceEvents"]
                 if e["ph"] == "X"]
        phase_keys = ("executed", "iteration", "phase", "skipped")
        superstep_keys = ("busy_seconds", "executed", "method", "skipped",
                          "steps")
        assert {(e["name"], e["cat"], tuple(sorted(e["args"])))
                for e in spans} == {
            ("phase:selection", "phase", phase_keys),
            ("phase:one_hop", "phase", phase_keys),
            ("phase:two_hop", "phase", phase_keys),
            ("phase:update_state", "phase", phase_keys),
            ("phase:check_termination", "phase", phase_keys),
            ("superstep:select_and_multicast", "superstep", superstep_keys),
            ("superstep:one_hop_and_sync", "superstep", superstep_keys),
            ("superstep:two_hop_and_report", "superstep", superstep_keys),
            ("superstep:update_state", "superstep", superstep_keys),
            ("superstep:check_termination", "superstep", superstep_keys),
            ("superstep:idle", "superstep", superstep_keys),
            ("run:distributed_ne", "run",
             ("executed", "iterations", "kernel", "method", "partitions",
              "skipped")),
        }
        assert spans[-1]["cat"] == "run"
        cats = [e["cat"] for e in spans[:-1]]
        assert cats == ["superstep", "phase"] * (5 * res.iterations)
        phases = spans[1:-1:2]
        assert [e["args"]["phase"] for e in phases[:5]] == [
            "selection", "one_hop", "two_hop", "update_state",
            "check_termination"]
        assert [e["args"]["iteration"] for e in phases] == [
            i for i in range(1, res.iterations + 1) for _ in range(5)]
        # One count, two spans.
        for step, phase in zip(spans[0:-1:2], phases):
            assert (phase["args"]["executed"], phase["args"]["skipped"]) == \
                (step["args"]["executed"], step["args"]["skipped"])

    def test_cluster_metrics_recorded_once(self, graph):
        """End-of-run feeding: cluster totals land in the registry
        exactly once and match the run's own accounting summary."""
        reg = enable_metrics(MetricsRegistry())
        try:
            res = DistributedNE(4, seed=0).partition(graph)
        finally:
            disable_metrics()
        summary = res.extra["cluster"]
        assert reg.counter_total("repro_cluster_messages_total") == \
            summary["total_messages"]
        assert reg.counter_total("repro_cluster_bytes_total") == \
            summary["total_bytes"]
        assert reg.counter_total("repro_cluster_barriers_total") == \
            summary["barriers"]
        assert reg.counter_total("repro_partition_runs_total") == 1


# ----------------------------------------------------------------------
# CLI: --trace-out, trace summarize, --log-level (satellite 1)
# ----------------------------------------------------------------------
class TestCli:
    @pytest.fixture
    def edges_file(self, tmp_path):
        path = tmp_path / "edges.tsv"
        save_edges_tsv(path, rmat_edges(8, 4, seed=0))
        return str(path)

    def test_trace_out_and_summarize(self, tmp_path, edges_file,
                                     capsys):
        trace_path = tmp_path / "run.trace.json"
        code = main(["partition", "--edges", edges_file,
                     "--method", "distributed_ne", "-p", "4",
                     "--trace-out", str(trace_path)])
        assert code == 0
        assert "trace" in capsys.readouterr().out
        events = load_trace(str(trace_path))
        assert any(e.get("cat") == "superstep" for e in events)

        assert main(["trace", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "superstep:" in out and "total_ms" in out

    def test_trace_out_rejected_for_untraceable_method(self,
                                                       edges_file,
                                                       tmp_path):
        code = main(["partition", "--edges", edges_file,
                     "--method", "dbh", "-p", "4",
                     "--trace-out", str(tmp_path / "t.json")])
        assert code == 2

    def test_trace_summarize_missing_file(self, tmp_path):
        assert main(["trace", "summarize",
                     str(tmp_path / "nope.json")]) == 2

    def test_log_level_flag(self, edges_file, caplog):
        with caplog.at_level(logging.INFO, logger="repro"):
            assert main(["--log-level", "INFO", "partition",
                         "--edges", edges_file, "--method", "dbh",
                         "-p", "4"]) == 0
        assert any("vertices" in r.message for r in caplog.records)

    def test_default_log_level_is_quiet(self, edges_file):
        """Satellite 1's compatibility clause: without --log-level the
        repro logger sits at WARNING, so tier-1 stdout/stderr is
        unchanged from the pre-logging CLI."""
        assert main(["partition", "--edges", edges_file,
                     "--method", "dbh", "-p", "4"]) == 0
        assert logging.getLogger("repro").getEffectiveLevel() == \
            logging.WARNING


# ----------------------------------------------------------------------
# serving surfaces: /metrics, trace endpoint, cache counters, shutdown
# ----------------------------------------------------------------------
def _parse_prometheus(text: str) -> dict:
    """Minimal exposition-format parser: {series_line: float}."""
    series = {}
    for line in text.splitlines():
        assert line, "blank lines are not emitted"
        if line.startswith("#"):
            assert line.startswith("# TYPE "), line
            continue
        name_part, _, value = line.rpartition(" ")
        series[name_part] = float(value)
    return series


@pytest.fixture(scope="class")
def serving(tmp_path_factory):
    """A served store with one run, a live registry, and one job-run
    (which records a trace and cluster metrics)."""
    from repro.serving.api import BackgroundServer, ServingAPI
    from repro.serving.store import RunStore

    tmp = tmp_path_factory.mktemp("obs-serving")
    store = RunStore(str(tmp / "runs.db"))
    graph = CSRGraph(rmat_edges(9, 6, seed=42))
    run = DistributedNE(4, seed=0).partition(graph)
    rid = store.add_run(run, seed=0, label="seeded")
    registry = enable_metrics(MetricsRegistry())
    api = ServingAPI(store, registry=registry)

    status, doc = api.handle("POST", "/api/runs", body=json.dumps(
        {"method": "distributed_ne", "dataset": "roadnet-pa",
         "partitions": 4, "seed": 1}).encode())
    assert status == 202
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        status, doc = api.handle("GET",
                                 f"/api/jobs/{doc['job_id']}")
        if doc["state"] in ("done", "failed"):
            break
        time.sleep(0.05)
    assert doc["state"] == "done", doc
    with BackgroundServer(api) as server:
        yield api, server, rid, doc["run_id"]
    store.close()
    disable_metrics()


class TestServing:
    def test_metrics_endpoint_valid_under_concurrent_load(self,
                                                          serving):
        api, server, rid, _ = serving
        errors = []

        def hammer():
            try:
                conn = http.client.HTTPConnection("127.0.0.1",
                                                  server.port)
                for _ in range(20):
                    conn.request("GET", "/metrics")
                    resp = conn.getresponse()
                    body = resp.read().decode()
                    assert resp.status == 200
                    assert resp.getheader("Content-Type").startswith(
                        "text/plain; version=0.0.4")
                    series = _parse_prometheus(body)
                    # serving + cluster series, in one exposition
                    assert any(k.startswith("repro_http_requests_total")
                               for k in series)
                    assert "repro_cluster_messages_total" in series
                    assert series["repro_cluster_messages_total"] > 0
                    assert "repro_store_runs" in series
                conn.close()
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[0]

    def test_run_detail_exposes_cache_counters(self, serving):
        api, server, rid, _ = serving
        api.handle("GET", f"/api/runs/{rid}/vertex/1")
        api.handle("GET", f"/api/runs/{rid}/vertex/1")
        status, doc = api.handle("GET", f"/api/runs/{rid}")
        assert status == 200
        hot = doc["cache"]["hot_vertices"]
        runs = doc["cache"]["run_arrays"]
        assert hot["hits"] >= 1 and hot["misses"] >= 1
        assert set(runs) == {"hits", "misses", "entries", "capacity"}
        assert runs["entries"] >= 1

    def test_job_run_trace_endpoint(self, serving):
        api, server, rid, job_rid = serving
        status, doc = api.handle("GET", f"/api/runs/{job_rid}/trace")
        assert status == 200
        events = doc["traceEvents"]
        assert any(e.get("cat") == "superstep" for e in events)
        # the seeded (non-job) run has no trace; unknown runs 404 too
        status, doc = api.handle("GET", f"/api/runs/{rid}/trace")
        assert status == 404 and "trace" in doc["error"]
        status, _ = api.handle("GET", "/api/runs/99999/trace")
        assert status == 404

    def test_request_metrics_use_bounded_route_labels(self, serving):
        api, server, rid, _ = serving
        api.handle("GET", f"/api/runs/{rid}/vertex/7")
        api.handle("GET", "/api/some/unknown/deep/path")
        _, text = api.handle("GET", "/metrics")
        assert 'route="/api/runs/{id}/vertex/{id}"' in text
        assert 'route="other"' in text
        assert f"/{rid}/" not in text  # raw ids never become labels

    def test_shutdown_logs_drained_summary(self, tmp_path, caplog):
        from repro.serving.api import BackgroundServer, ServingAPI
        from repro.serving.store import RunStore

        store = RunStore(str(tmp_path / "runs.db"))
        api = ServingAPI(store, registry=MetricsRegistry())
        try:
            with caplog.at_level(logging.INFO, logger="repro.serving"):
                with BackgroundServer(api) as server:
                    conn = http.client.HTTPConnection("127.0.0.1",
                                                      server.port)
                    conn.request("GET", "/api/health")
                    conn.getresponse().read()
                    conn.close()
            summaries = [r for r in caplog.records
                         if "shut down" in r.message]
            assert len(summaries) == 1
            assert summaries[0].args == (1, 1)  # 1 request, 1 conn
            assert api.request_count() == 1
        finally:
            store.close()
