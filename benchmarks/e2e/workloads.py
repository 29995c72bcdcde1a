"""The four workloads, run one per process by ``run.py``.

Every workload drives the same pipeline through the program's public
functions — generate → ``CSRGraph`` → ``Partitioner.partition`` →
``RunStore.add_run`` → a live ``BackgroundServer`` read by
``client.py`` — and differs only in graph, partitioner and |P|, i.e. in
which layer does the work (see ``README.md``).  ``--trace 0`` measures
the end-to-end metrics with tracing off; ``--trace 1`` makes one traced
pass and reports the per-layer metrics.

Invoked as ``python workloads.py '<json spec>'``; prints one JSON
object on the last line of stdout.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import client
import oracle
import spans

HERE = os.path.dirname(os.path.abspath(__file__))

#: graph, partitioner, |P| and timed repeats at the nominal run length.
#: ``smoke`` sizes exist for the tier-1 smoke test only.  The
#: checkpointed run is made where an iteration is cheapest to repeat:
#: a snapshot per iteration costs 0.1-0.2 s at |P| = 64 and 256, which
#: over 130 iterations would outlast the whole run.
WORKLOADS = {
    "rmat_p8": {"graph": ("rmat", 16, 8), "smoke": ("rmat", 9, 8),
                "method": "dne", "partitions": 8, "repeats": 6,
                "checkpoint": True},
    "rmat_p256": {"graph": ("rmat", 13, 8), "smoke": ("rmat", 8, 8),
                  "method": "dne", "partitions": 256, "repeats": 6},
    "road_p64": {"graph": ("road", 140, 140), "smoke": ("road", 16, 16),
                 "method": "dne", "partitions": 64, "repeats": 6},
    "serve_hdrf": {"graph": ("rmat", 15, 8), "smoke": ("rmat", 9, 8),
                   "method": "hdrf", "partitions": 64, "repeats": 8},
}
SMOKE_PARTITIONS = 8
#: read phase of the traced pass: rounds × requests per round
READ_ROUNDS = 6
ROUND_REQUESTS = 1000
PREPASS_REQUESTS = 200
#: mixed phase: ingest jobs submitted beside the read load
JOBS = 3
JOB_REQUEST = {"method": "dbh", "dataset": "twitter", "partitions": 64}
#: the warm-up job and the smoke test ingest something small
SMALL_JOB_DATASET = "roadnet-pa"
PAGERANK_ITERATIONS = 20
DIRECT_CALLS = 2000


def median(values) -> float:
    return float(statistics.median(values))


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scaled(count: int, spec: dict, floor: int) -> int:
    """Work counts grow with ``--seconds`` from the nominal run length;
    they depend on nothing measured, so a seed repeats exactly."""
    if spec["smoke"]:
        return floor
    return max(floor, round(count * spec["seconds"] / spec["nominal_seconds"]))


class Workload:
    """One workload's inputs and its calls into the program."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.cfg = WORKLOADS[spec["workload"]]
        self.smoke = spec["smoke"]
        self.partitions = (min(self.cfg["partitions"], SMOKE_PARTITIONS)
                           if self.smoke else self.cfg["partitions"])
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def sub_seed(self, repeat: int) -> int:
        """Each timed repeat gets a graph and partitioner seed of its
        own, so one run's medians already average over inputs and runs
        at different ``--seed`` agree more closely."""
        return self.spec["seed"] * 1000 + repeat

    def generate(self, seed: int, small: bool = False):
        from repro.graph import grid_road_network, rmat_edges
        kind, a, b = self.cfg["smoke" if small or self.smoke else "graph"]
        if kind == "rmat":
            return rmat_edges(a, b, seed=seed)
        return grid_road_network(a, b, seed=seed)

    def partitioner(self, seed: int, **kwargs):
        if self.cfg["method"] == "dne":
            from repro.core.distributed_ne import DistributedNE
            return DistributedNE(self.partitions, seed=seed, **kwargs)
        from repro.partitioners.hdrf import HDRFPartitioner
        return HDRFPartitioner(self.partitions, seed=seed)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(what)

    def check_partition(self, graph, part):
        """Oracle pass over one partition run; returns the replica
        matrix the serving answers are later checked against."""
        self.attempted += 1
        bad = oracle.assignment_problem(part.assignment, graph.num_edges,
                                        self.partitions)
        if bad:  # nothing downstream can run on a non-partition
            raise RuntimeError(f"partition: {bad}")
        member = oracle.membership(graph.edges, part.assignment,
                                   graph.num_vertices, self.partitions)
        for problem in oracle.quality_problems(part, member):
            self.fail(f"partition: {problem}")
        return member

    def same_assignment(self, what: str, sha_a: str, sha_b: str) -> None:
        self.attempted += 1
        if sha_a != sha_b:
            self.fail(f"{what}: assignment SHA-256 differs")

    # -- serving -------------------------------------------------------
    def serve(self, store, run_id, graph, member, rounds: int, jobs: int,
              tracer=None) -> dict:
        """Start the server, run the client process against it, check
        what came back.  Returns the client's result plus server-side
        set-up time and CPU seconds."""
        from repro.serving import BackgroundServer, ServingAPI
        job_request = dict(JOB_REQUEST, seed=self.spec["seed"])
        small_job = dict(job_request, dataset=SMALL_JOB_DATASET)
        client_spec = {
            "host": "127.0.0.1", "run_id": run_id,
            "num_vertices": graph.num_vertices, "seed": self.spec["seed"],
            "prepass": 50 if self.smoke else PREPASS_REQUESTS,
            "round_requests": 100 if self.smoke else ROUND_REQUESTS,
            "rounds": rounds, "jobs": jobs, "warmup_job_request": small_job,
            "job_request": small_job if self.smoke else job_request}
        start = time.perf_counter()
        api = ServingAPI(store)
        server = BackgroundServer(api)
        start_s = time.perf_counter() - start
        try:
            client_spec["port"] = server.port
            cpu0 = time.process_time()
            with spans.bench_span(tracer, "serving.http_load",
                                  workload=self.spec["workload"],
                                  seed=self.spec["seed"]):
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "client.py")],
                    input=json.dumps(client_spec), capture_output=True,
                    text=True, timeout=150)
            cpu_s = time.process_time() - cpu0
            if proc.returncode != 0:
                raise RuntimeError(f"client failed:\n{proc.stderr}")
            out = json.loads(proc.stdout)
            cache = api.lookup.cache_info()
        finally:
            server.stop()
        out["setup_s"] = start_s + out["connect_s"]
        out["cpu_s"] = cpu_s
        out["hot_hit_ratio"] = (cache["hits"]
                                / max(1, cache["hits"] + cache["misses"]))

        for route, key, status, body in out["prepass"]:
            self.attempted += 1
            problem = oracle.response_problem(
                route, key, status, body, member, client.BOUNDARY_LIMIT)
            if problem:
                self.fail(f"serve: {problem}")
        for stretch in out["rounds"] + out["jobs"]:
            self.attempted += stretch["requests"]
            if stretch["non200"]:
                self.fail(f"serve: {stretch['non200']} non-200 answers",
                          stretch["non200"])
        for job in out["jobs"]:
            self.attempted += 1
            if job["state"] != "done":
                self.fail(f"job ended {job['state']}")
        out["non200"] = sum(s["non200"] for s in out["rounds"] + out["jobs"])
        out["requests"] = len(out["prepass"]) + sum(
            s["requests"] for s in out["rounds"] + out["jobs"])
        # warm-ups: checked above, left out of every median
        out["rounds"], out["jobs"] = out["rounds"][1:], out["jobs"][1:]
        return out

    # -- --trace 0 -----------------------------------------------------
    def end_to_end(self, work_dir: str) -> dict:
        from repro.graph import CSRGraph
        from repro.serving import RunStore
        spec = self.spec
        repeats = scaled(self.cfg["repeats"], spec, floor=2)

        # Warm-up on a small graph: imports, code paths, allocator.
        self.partitioner(0).partition(
            CSRGraph(self.generate(0, small=True)))

        (store, open_s) = timed(RunStore, os.path.join(work_dir, "runs.db"))
        setup, part_s, ingest, rf, eb = [], [], [], [], []
        try:
            for repeat in range(repeats):
                seed = self.sub_seed(repeat)
                graph, seconds = timed(
                    lambda: CSRGraph(self.generate(seed)))
                setup.append(seconds)
                part, seconds = timed(self.partitioner(seed).partition, graph)
                part_s.append(seconds)
                member = self.check_partition(graph, part)
                rf.append(oracle.replication_factor(member))
                eb.append(oracle.edge_balance(part.assignment,
                                              self.partitions))
                run_id, seconds = timed(store.add_run, part, seed=seed)
                ingest.append(seconds)
                self.attempted += 1
            rss = peak_rss_mb()
            # no timed read rounds here: their throughput and latency
            # are per-layer metrics (README, "Demoted")
            served = self.serve(store, run_id, graph, member, rounds=0,
                                jobs=scaled(JOBS, spec, floor=1))
        finally:
            store.close()
        series = {
            "partition_s": part_s, "replication_factor": rf,
            "edge_balance": eb, "ingest_s": ingest,
            "mixed_read_stall_ms": [j["max_ms"] for j in served["jobs"]]}
        metrics = {name: median(values) for name, values in series.items()}
        metrics["setup_s"] = median(setup) + open_s + served["setup_s"]
        metrics["peak_rss_mb"] = rss
        samples = {name: len(values) for name, values in series.items()}
        samples["setup_s"] = len(setup)
        return {"metrics": metrics, "samples": samples}

    # -- --trace 1 -----------------------------------------------------
    def layers(self, work_dir: str) -> dict:
        from repro.apps.pagerank import pagerank
        from repro.graph import CSRGraph
        from repro.metrics import quality
        from repro.observability.metrics import NullMetricsRegistry
        from repro.observability.trace import Tracer, load_trace
        from repro.partitioners.ne import NEPartitioner
        from repro.serving import RunStore, ServingAPI, vertex_replica_csr
        spec = self.spec
        name, seed = spec["workload"], self.sub_seed(0)
        dne = self.cfg["method"] == "dne"
        tracer = Tracer()
        tag = {"workload": name, "seed": spec["seed"]}
        m: dict = {}

        def span(call):
            return spans.bench_span(tracer, call, **tag)

        # graph.
        with span("graph.generate") as watch:
            edges = self.generate(seed)
        m["graph.generate_s"] = watch.seconds
        with span("graph.csr_build") as watch:
            graph = CSRGraph(edges)
        m["graph.csr_build_s"] = watch.seconds
        m["graph.csr_edges_per_s"] = graph.num_edges / m["graph.csr_build_s"]
        m["graph.memory_bytes"] = graph.memory_bytes()
        m["graph.edges"] = graph.num_edges
        m["graph.vertices"] = graph.num_vertices
        m["graph.max_degree"] = graph.max_degree()

        # Untraced reference runs, then the traced one on the same input.
        untraced = []
        for _ in range(scaled(2, spec, floor=1)):
            part, seconds = timed(self.partitioner(seed).partition, graph)
            untraced.append(seconds)
        member = self.check_partition(graph, part)
        sha = oracle.assignment_sha256(part.assignment)
        layer = "core" if dne else "partitioners"
        with span(f"{layer}.partition") as watch:
            traced = self.partitioner(
                seed, **({"tracer": tracer} if dne else {})).partition(graph)
        traced_s = watch.seconds
        self.same_assignment("traced vs untraced", sha,
                             oracle.assignment_sha256(traced.assignment))
        rss = peak_rss_mb()
        m["partitioners.partition_edges_per_s"] = (
            graph.num_edges / median(untraced))
        m["observability.trace_overhead_ratio"] = traced_s / median(untraced)

        # core. and cluster. — zero where the workload runs no such code.
        m.update(dict.fromkeys(
            (n for n in spec["layer_metrics"]
             if n.startswith(("core.", "cluster."))), 0))
        if dne:
            m.update(self.dne_layers(graph, traced, traced_s,
                                     tracer.to_chrome()["traceEvents"], rss))
        if self.cfg.get("checkpoint"):
            ckpt_dir = os.path.join(work_dir, "ckpt")
            with span("cluster.checkpointed_partition") as watch:
                ckpt = self.partitioner(
                    seed, checkpoint_dir=ckpt_dir,
                    checkpoint_every=1).partition(graph)
            self.same_assignment("checkpointed vs plain", sha,
                                 oracle.assignment_sha256(ckpt.assignment))
            m["cluster.checkpoint_save_ms"] = max(
                0.0, (watch.seconds - median(untraced))
                / traced.iterations * 1e3)
            newest = max((os.path.join(ckpt_dir, f)
                          for f in os.listdir(ckpt_dir)),
                         key=os.path.getmtime)
            m["cluster.checkpoint_bytes"] = os.path.getsize(newest)

        # metrics.
        with span("metrics.quality") as watch:
            for fn in (quality.replication_factor, quality.vertex_balance,
                       quality.vertex_cut_count):
                fn(graph, part.assignment, self.partitions)
            quality.edge_balance(part.assignment, self.partitions)
        m["metrics.quality_s"] = watch.seconds

        # partitioners. — the plain sequential reference on this graph.
        with span("partitioners.ne_reference") as watch:
            ne = NEPartitioner(self.partitions, seed=seed).partition(graph)
        m["partitioners.ne_s"] = watch.seconds
        m["partitioners.ne_rf"] = ne.replication_factor()

        # apps.
        with span("apps.pagerank") as watch:
            _, app = pagerank(part, iterations=PAGERANK_ITERATIONS)
        m["apps.pagerank_s"] = watch.seconds
        m["apps.pagerank_comm_bytes"] = app.comm_bytes

        # serving.
        with span("serving.replica_csr") as watch:
            indptr, _parts = vertex_replica_csr(
                graph.edges, part.assignment, graph.num_vertices,
                self.partitions)
        m["serving.replica_csr_s"] = watch.seconds
        db = os.path.join(work_dir, "runs.db")
        store = RunStore(db)
        try:
            with span("serving.add_run") as watch:
                run_id = store.add_run(part, seed=seed)
            self.attempted += 1
            m["serving.ingest_rows_per_s"] = int(indptr[-1]) / watch.seconds

            rng = np.random.default_rng(spec["seed"])
            requests = client.request_mix(
                rng, DIRECT_CALLS // 10 if self.smoke else DIRECT_CALLS,
                run_id, rng.permutation(graph.num_vertices))
            lookups = [r for r in requests if r[0] == 0]
            direct = ServingAPI(store, registry=NullMetricsRegistry())
            with span("serving.bulk_lookup_direct") as watch:
                for _, ids, _ in lookups:
                    direct.lookup.bulk_vertex_lookup(run_id, ids)
            m["serving.bulk_lookup_us"] = watch.seconds / len(lookups) * 1e6
            path = f"/api/runs/{run_id}/lookup"
            bodies = [wire.partition(b"\r\n\r\n")[2] for _, _, wire in lookups]
            with span("serving.handle_direct") as watch:
                for body in bodies:
                    direct.handle("POST", path, None, body)
            m["serving.handle_us"] = watch.seconds / len(bodies) * 1e6
            # SQLite file, its WAL and the mmap sidecars of this one run
            m["serving.store_bytes"] = sum(
                os.path.getsize(os.path.join(folder, f))
                for folder, _, files in os.walk(work_dir)
                for f in files if "runs.db" in os.path.join(folder, f))

            served = self.serve(store, run_id, graph, member,
                                rounds=scaled(READ_ROUNDS, spec, floor=2),
                                jobs=scaled(2, spec, floor=1), tracer=tracer)
        finally:
            store.close()
        rounds, jobs = served["rounds"], served["jobs"]
        m["serving.req_per_s"] = median(r["requests"] / r["wall_s"]
                                        for r in rounds)
        m["serving.p50_ms"] = median(r["p50_ms"] for r in rounds)
        m["serving.p99_ms"] = median(r["p99_ms"] for r in rounds)
        for route in client.ROUTES:
            m[f"serving.route_{route}_ms"] = median(
                r[f"{route}_ms"] for r in rounds)
        m["serving.http_us"] = (m["serving.route_lookup_ms"] * 1e3
                                - m["serving.handle_us"])
        m["serving.cpu_ms_per_req"] = (served["cpu_s"] / served["requests"]
                                       * 1e3)
        m["serving.hot_hit_ratio"] = served["hot_hit_ratio"]
        m["serving.job_s"] = median(j["job_s"] for j in jobs)
        m["serving.mixed_p99_ms"] = median(j["p99_ms"] for j in jobs)
        m["serving.non200"] = served["non200"]
        m["observability.spans"] = len(tracer)

        # The trace file: written, loaded back, nesting checked.
        trace_dir = spec.get("trace_dir") or work_dir
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{name}.trace.json")
        tracer.write(trace_path)
        events = load_trace(trace_path)
        self.attempted += 1
        if dne:
            outer = spans.complete(events, "bench:core.partition")[0]
            if not spans.phase_seconds(events, outer):
                self.fail("trace: no phase:* span inside "
                          "bench:core.partition")
        return {"metrics": m, "samples": {}}

    def dne_layers(self, graph, part, wall_s: float, events: list,
                   rss_mb: float) -> dict:
        """``core.`` and ``cluster.`` metrics of the traced DNE run."""
        extra = part.extra
        outer = spans.complete(events, "bench:core.partition")[0]
        phases = spans.phase_seconds(events, outer)
        m = {f"core.{phase}_s": phases.get(phase, 0.0)
             for phase in ("selection", "one_hop", "two_hop",
                           "update_state", "check_termination")}
        m["core.load_s"] = extra["load_seconds"]
        # What partition() spent outside load and phases: barriers,
        # gathers, drain/replay, assignment collection.  The three
        # together are the traced wall by construction.
        m["core.driver_self_s"] = (wall_s - m["core.load_s"]
                                   - sum(phases.values()))
        m["core.iterations"] = part.iterations
        m["core.s_per_iteration"] = wall_s / part.iterations
        for key in ("ops_one_hop", "ops_two_hop", "steps_executed",
                    "steps_skipped", "random_seed_requests",
                    "remote_seed_requests"):
            m[f"core.{key}"] = extra[key]
        m["core.slots_per_s"] = (
            (extra["ops_one_hop"] + extra["ops_two_hop"])
            / (m["core.one_hop_s"] + m["core.two_hop_s"]))
        m["core.step_skip_ratio"] = extra["steps_skipped"] / (
            extra["steps_skipped"] + extra["steps_executed"])
        cluster = extra["cluster"]
        m["cluster.barriers"] = cluster["barriers"]
        m["cluster.messages"] = cluster["total_messages"]
        m["cluster.bytes"] = cluster["total_bytes"]
        m["cluster.messages_per_edge"] = (cluster["total_messages"]
                                          / graph.num_edges)
        m["cluster.bytes_per_edge"] = cluster["total_bytes"] / graph.num_edges
        m["cluster.peak_resident_bytes"] = cluster["peak_resident_bytes"]
        m["cluster.mem_score"] = extra["mem_score"]
        m["cluster.rss_over_modelled"] = (
            rss_mb * 2 ** 20 / cluster["peak_resident_bytes"])
        return m


def main() -> None:
    spec = json.loads(sys.argv[1])
    work_dir = os.path.join(spec["work_root"],
                            f"{spec['workload']}-{os.getpid()}")
    os.makedirs(work_dir)
    workload = Workload(spec)
    try:
        result = (workload.layers(work_dir) if spec["trace"]
                  else workload.end_to_end(work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(spec["work_root"])
        except OSError:
            pass  # another run is using it
    result.update(workload=spec["workload"], seed=spec["seed"],
                  trace=spec["trace"], attempted=workload.attempted,
                  failed=workload.failed,
                  problems=workload.problems[:20])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
