"""Kernel microbenchmarks — the perf trajectory behind ``BENCH_kernels.json``.

Every hot kernel in the partitioning path ships in two
implementations: the vectorized flat-array kernel that production code
runs, and the per-slot ``kernel="python"`` reference it is pinned
against.  This module times both on RMAT graphs at several scales and
emits one JSON row per (kernel, scale), so each PR can check the
speedups it claims and future PRs can track regressions:

* ``dne_one_hop`` / ``dne_two_hop`` / ``dne_two_hop_conflict`` — the
  allocation phases of Distributed NE (Algorithms 2–3), driven by a
  synthetic selection (or sync-flood) schedule over a single
  allocation process that owns the whole graph;
* ``dne_selection`` / ``dne_boundary_fold`` — the expansion-side
  selection plane (§7.4's scale-out bottleneck): boundary-queue pops +
  replica multicast, and the received-boundary fold, timed over a full
  cluster of expansion processes at ``selection_partitions`` machines
  (one segmented boundary store + enumerated multicast + ndarray
  payloads vs the heapq/tuple-list reference).  All five ``dne_*`` component rows time
  the code production runs execute: the vectorized arm is fed
  ``send_segments`` sweeps and steps through
  :class:`~repro.core.fused.FusedDnePlane`;
* ``dne_p256`` — the |P| ≫ 64 *end-to-end* weak-scaling row: one full
  Distributed NE run per kernel at ``wide_partitions`` machines,
  exercising the packed-bitset membership end-to-end.  No smoke floor:
  at bench scales each machine's per-iteration batches are tiny (a
  2^17-edge graph over 256 machines leaves ~70 edges per partition
  budget), so the vectorized kernel's per-call setup can outweigh its
  batching — the row records where the crossover actually sits rather
  than hiding it;
* ``dne_p_scaling`` — the flatness trend behind ROADMAP's "DNE wall
  time flat in |P| at fixed work": one vectorized run per
  |P| ∈ {8, 64, 256} on the same graph (the largest edge scale), the
  |P| = 8 run as the baseline (``python_seconds``), ``seconds_p<N>``
  per width and ``slowdown_vs_p8`` for the widest.  No smoke floor —
  the row exists so the trajectory file shows the trend;
* ``hdrf`` / ``fennel`` — the dual-kernel streaming baselines on the
  shared chunked-scoring substrate (``core/streaming.py``): a full
  partition run per kernel at ``streaming_partitions`` machines, plus
  an ``hdrf_p256`` weak-scaling row at |P| = 256 that exercises the
  packed-bitset membership end-to-end (the reference's per-edge
  O(|P|) score loop versus hoisted windows + uint64 words);
* ``ne_expand`` — a full sequential-NE partition (the
  ``ExpansionState.expand_vertex`` path shared with SNE);
* ``gather_sum`` / ``gather_min`` — the GAS engine's gather
  primitives (vectorized ``bincount``/``reduceat`` over compacted
  local ids vs the ``np.add.at``/``np.minimum.at`` reference);
* ``all_gather_sum`` — the simulated cluster's collective accounting
  (bulk updates vs the O(P²) per-message loop);
* ``csr_build`` — CSR construction (one packed-key sort of the
  backward half + offset scatter vs the full 2m argsort);
* ``serving_lookup`` — the partition-serving read path
  (:mod:`repro.serving`), benchmarked like production: the dual-kernel
  bulk vertex-lookup over a run store's mmap'd replica CSR
  (``python_seconds`` / ``vectorized_seconds`` time the per-vertex
  slice loop vs the single :func:`~repro.graph.csr.adjacency_slots`
  gather), plus a concurrent HTTP phase — ``serving_concurrency``
  keep-alive clients hammering the live asyncio server with bulk
  lookups — recording sustained ``http_lookups_per_sec``, the
  ``http_p99_ms`` tail latency, and ``http_errors`` (non-200
  responses, which the serving CI job pins to zero);
* ``observability_overhead`` — the PR-9 telemetry plane's
  zero-cost-when-off claim, quantified: one full vectorized
  ``dne_p256`` run untraced (null registry/tracer, the default)
  versus traced (live registry + Chrome-trace tracer), min of
  alternating repeats; the row records both wall clocks and the
  ``overhead_ratio`` the smoke test bounds.

Run via ``repro bench perf`` (see ``--help`` for scales/partitions) or
programmatically through :func:`run_perf`.  The smoke test
``benchmarks/perf/test_perf_smoke.py`` keeps a tiny configuration in
tier-1 so kernel regressions fail fast.
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np

from repro.apps.engine import AppRunStats, DistributedGraphEngine
from repro.cluster.runtime import (Process, SegmentBatch, SimulatedCluster,
                                   _same_machine)
from repro.core.allocation import (TAG_BOUNDARY, TAG_EDGES, TAG_SELECT,
                                   TAG_SYNC, AllocationProcess)
from repro.core.expansion import DirectSeedSource, ExpansionProcess
from repro.core.fused import FusedDnePlane
from repro.core.hash2d import Hash2DPlacement
from repro.graph.csr import CSRGraph, symmetrised_csr
from repro.graph.generators import rmat_edges
from repro.partitioners import PARTITIONER_REGISTRY
from repro.partitioners.ne import NEPartitioner

__all__ = ["run_perf", "bench_graph", "bench_allocation_phases",
           "bench_two_hop_conflict", "bench_selection_phase",
           "bench_dne_end_to_end", "bench_streaming_partitioner",
           "bench_ne_expand", "bench_engine_gathers",
           "bench_all_gather_sum", "bench_csr_build",
           "bench_serving_lookup", "bench_observability_overhead"]

#: RMAT edge factor used by every perf graph.
_EDGE_FACTOR = 8

#: cluster widths of the ``dne_p_scaling`` row (first = baseline)
_SCALING_PARTITIONS = (8, 64, 256)


def bench_graph(edge_scale: int, seed: int = 0) -> CSRGraph:
    """RMAT graph with ~``2**edge_scale`` edges (EF 8, Graph500 skew)."""
    vertex_scale = max(edge_scale - 3, 4)
    return CSRGraph(rmat_edges(vertex_scale, _EDGE_FACTOR, seed=seed))


# ----------------------------------------------------------------------
# DNE allocation phases
# ----------------------------------------------------------------------
def _feed(cluster: SimulatedCluster, kernel: str, tag: str,
          rows: np.ndarray, src_role: str, src_slots: np.ndarray,
          dst_role: str, dst_slots: np.ndarray) -> None:
    """Untimed feed of one emission sweep, in the mail format ``kernel``
    reads — what the previous DNE phase would have delivered.

    ``rows`` with per-row slot arrays grouped by ``(src, dst)``, as
    :meth:`SegmentBatch.from_runs` takes them.  The vectorized kernel
    (the plane) gets the sweep whole; the reference gets the same
    segments one eager ``send`` each, pair rows as tuple lists.  Both
    price identically.
    """
    batch = SegmentBatch.from_runs(rows, src_role, src_slots,
                                   dst_role, dst_slots)
    if kernel == "vectorized":
        cluster.deliver_segments(tag, batch)
        return
    for dst, (src, payload) in batch.messages():
        if payload.ndim == 2:
            payload = [tuple(row) for row in payload.tolist()]
        cluster.process(src).send(dst, tag, payload)


def _discard_mail(cluster: SimulatedCluster, role: str, slots: int,
                  *tags: str) -> None:
    """Drop the mail delivered to ``role`` so payloads don't pile up
    across rounds (both mailbox layouts)."""
    cluster.pop_segment_mail()
    for slot in range(slots):
        for tag in tags:
            cluster._receive((role, slot), tag)


def _selection_schedule(graph: CSRGraph, partitions: int,
                        batch: int, seed: int = 0) -> list:
    """Deterministic multi-round ⟨v, p⟩ selection trace.

    Every vertex is selected exactly once, round-robin across
    partitions in batches — the steady-state shape of Algorithm 4's
    multi-expansion selections, without the expansion processes in the
    timed loop.  One ``(k, 2)`` int64 row array per round, grouped by
    ascending partition.
    """
    order = np.random.default_rng(seed).permutation(graph.num_vertices)
    per_round = batch * partitions
    rounds = []
    for start in range(0, len(order), per_round):
        chunk = order[start:start + per_round]
        rounds.append(np.column_stack(
            [chunk, np.arange(len(chunk)) // batch]).astype(np.int64))
    return rounds


def _bench_allocator(graph: CSRGraph, partitions: int, kernel: str):
    """A cluster with one allocation process owning every edge, plus
    stand-in expansion processes to address."""
    cluster = SimulatedCluster()
    alloc = cluster.add_process(AllocationProcess(
        0, graph, np.arange(graph.num_edges), Hash2DPlacement(1, seed=0),
        kernel=kernel))
    # One machine, `partitions` partitions: the vectorized kernel sizes
    # its partition width before the first step.
    alloc._ensure_partition_capacity(partitions - 1)
    for p in range(partitions):
        cluster.add_process(Process(("expansion", p)))
    return cluster, alloc


def bench_allocation_phases(graph: CSRGraph, partitions: int, kernel: str,
                            batch: int = 64) -> tuple[float, float]:
    """Cumulative (one-hop, two-hop) seconds over a full selection sweep.

    One allocation process owns every edge; a driver replays the same
    deterministic selection schedule for either kernel — one
    ``select`` sweep per round from the partitions' expansion
    processes — and times the two allocation phases separately.  The
    vectorized kernel steps through the plane, as production runs do.
    """
    cluster, alloc = _bench_allocator(graph, partitions, kernel)
    one_hop = two_hop = 0.0
    for rows in _selection_schedule(graph, partitions, batch):
        _feed(cluster, kernel, TAG_SELECT, rows, "expansion", rows[:, 1],
              "alloc", np.zeros(len(rows), dtype=np.int64))
        cluster.barrier()
        t0 = time.perf_counter()
        alloc.one_hop_and_sync()
        one_hop += time.perf_counter() - t0
        cluster.barrier()
        t0 = time.perf_counter()
        alloc.two_hop_and_report()
        two_hop += time.perf_counter() - t0
        cluster.barrier()
        _discard_mail(cluster, "expansion", partitions,
                      TAG_BOUNDARY, TAG_EDGES)
    return one_hop, two_hop


def bench_two_hop_conflict(graph: CSRGraph, partitions: int, kernel: str,
                           rounds: int = 8, batch: int | None = None,
                           seed: int = 0) -> float:
    """Cumulative two-hop seconds under a conflict-heavy sync schedule.

    A peer allocation process floods the timed one with random ⟨v, p⟩
    sync pairs, so after a couple of rounds most merged vertices share
    several partitions with their neighbours — the regime where
    contested (multi-shared) edges dominate and the loads-delta
    tie-break replay is the whole phase.  The schedule is identical for
    both kernels (a tuple list over ``send`` for the reference, a
    one-segment sweep for the vectorized kernel).
    """
    cluster, alloc = _bench_allocator(graph, partitions, kernel)
    cluster.add_process(Process(("alloc", 1)))

    rng = np.random.default_rng(seed)
    if batch is None:
        batch = max(64, graph.num_vertices // 2)
    peer = np.ones(batch, dtype=np.int64)      # ("alloc", 1) -> ("alloc", 0)
    elapsed = 0.0
    for _ in range(rounds):
        vs = rng.integers(0, graph.num_vertices, batch)
        ps = rng.integers(0, partitions, batch)
        _feed(cluster, kernel, TAG_SYNC,
              np.column_stack([vs, ps]).astype(np.int64),
              "alloc", peer, "alloc", np.zeros_like(peer))
        alloc.one_hop_and_sync()   # no selects: just arms the phase state
        cluster.barrier()
        t0 = time.perf_counter()
        alloc.two_hop_and_report()
        elapsed += time.perf_counter() - t0
        cluster.barrier()
        _discard_mail(cluster, "expansion", partitions,
                      TAG_BOUNDARY, TAG_EDGES)
    return elapsed


# ----------------------------------------------------------------------
# DNE selection plane (boundary queue + multicast + boundary fold)
# ----------------------------------------------------------------------
class _SeedlessAlloc(Process):
    """Allocation stand-in for the selection bench: receives multicasts
    and is never live for the seed source's liveness query (keeps the
    timed loop on the boundary path, never the seed-scan fallback)."""

    unallocated = 0


def bench_selection_phase(graph: CSRGraph, partitions: int, kernel: str,
                          lam: float = 0.1, rounds: int = 6,
                          stream: int | None = None) -> tuple[float, float]:
    """Cumulative (selection+multicast, boundary-fold) seconds.

    Drives a full cluster of expansion processes through the
    steady-state shape of Algorithm 4 with the allocation phases
    replaced by a deterministic feed: over ``rounds`` rounds every
    expander receives ``stream`` ⟨v, Drest⟩ boundary pairs (the same
    permuted vertex stream per expander, Drest = degree, defaulting to
    enough vertices that boundaries hold the multi-thousand-entry
    steady state real DNE runs sustain) plus an edge-id batch, folds
    them in, and selects/multicasts its ``ceil(lam |B|)``
    minimum-Drest vertices; after the stream is exhausted, expanders
    drain until their boundary falls under one feed batch.  The
    schedule is identical for both kernels — tuple lists over eager
    ``send`` and per-process steps for the reference; ``send_segments``
    sweeps and one plane call per phase over all expanders (the
    dispatch production runs use) for the vectorized kernel, sized
    identically by the accounting model — so the timings isolate the
    boundary-queue, multicast, and fold implementations.
    """
    n = graph.num_vertices
    if stream is None:
        stream = min(n, max(192, n // 24))
    cluster = SimulatedCluster()
    placement = Hash2DPlacement(partitions, seed=0)
    allocators = [cluster.add_process(_SeedlessAlloc(("alloc", k)))
                  for k in range(partitions)]
    seed_source = DirectSeedSource(allocators)
    expanders = [cluster.add_process(ExpansionProcess(
        k, partitions, limit=graph.num_edges + 1,
        total_edges=graph.num_edges, lam=lam, seed=0,
        placement=placement, kernel=kernel, seed_source=seed_source))
        for k in range(partitions)]
    if kernel == "vectorized":
        # Production dispatch: one plane call per phase for the whole
        # cluster of expanders.
        plane = FusedDnePlane(expanders, placement)
        pids = [e.pid for e in expanders]

        def step(method):
            plane.run(method, pids)
    else:
        def step(method):
            for e in expanders:
                getattr(e, method)()

    rng = np.random.default_rng(0)
    order = rng.permutation(n)[:stream]
    degs = graph.degrees()
    chunk = max(1, -(-stream // rounds))
    feeds = [order[start:start + chunk]
             for start in range(0, stream, chunk)]
    eid_feed = rng.integers(0, max(graph.num_edges, 1), size=4 * chunk)
    every = np.arange(partitions, dtype=np.int64)

    t_select = t_fold = 0.0
    pos = 0
    while True:
        # Feed phase (untimed): one boundary + edge batch per expander,
        # all from allocator 0.
        if pos < len(feeds):
            vs = feeds[pos]
            pos += 1
            for tag, payload in (
                    (TAG_BOUNDARY, np.column_stack([vs, degs[vs]])),
                    (TAG_EDGES, eid_feed)):
                dst = np.repeat(every, len(payload))
                _feed(cluster, kernel, tag,
                      np.concatenate([payload] * partitions).astype(np.int64),
                      "alloc", np.zeros_like(dst), "expansion", dst)
        cluster.barrier()

        t0 = time.perf_counter()
        step("update_state")
        t_fold += time.perf_counter() - t0

        if pos >= len(feeds):
            # Stream exhausted: retire near-drained expanders so the
            # tail never degenerates into singleton pops or the
            # seed-scan fallback.
            for e in expanders:
                if len(e.boundary) < chunk:
                    e.finished = True
            if all(e.finished for e in expanders):
                break

        t0 = time.perf_counter()
        step("select_and_multicast")
        t_select += time.perf_counter() - t0
        cluster.barrier()
        _discard_mail(cluster, "alloc", partitions, TAG_SELECT)
    return t_select, t_fold


# ----------------------------------------------------------------------
# DNE end-to-end (weak scaling + execution backends)
# ----------------------------------------------------------------------
def bench_dne_end_to_end(graph: CSRGraph, partitions: int, kernel: str,
                         backend: str = "simulated",
                         workers: int | None = None,
                         tracer=None) -> float:
    """Seconds for one full Distributed NE partition run."""
    from repro.core.distributed_ne import DistributedNE
    t0 = time.perf_counter()
    DistributedNE(partitions, seed=0, kernel=kernel, backend=backend,
                  workers=workers, tracer=tracer).partition(graph)
    return time.perf_counter() - t0


def bench_observability_overhead(graph: CSRGraph, partitions: int,
                                 repeats: int = 3
                                 ) -> tuple[float, float]:
    """(untraced, traced) min-of-repeats seconds for one DNE run.

    The zero-cost-when-off claim, quantified: the untraced arm runs
    with the default null registry/tracer, the traced arm with a live
    :class:`~repro.observability.metrics.MetricsRegistry` installed
    process-wide *and* a fresh
    :class:`~repro.observability.trace.Tracer` — the full telemetry
    cost.  Arms alternate so clock drift and cache warmth hit both
    equally; min-of-repeats discards scheduler noise.
    """
    from repro.observability.metrics import (MetricsRegistry,
                                             disable_metrics,
                                             enable_metrics)
    from repro.observability.trace import Tracer
    t_off = []
    t_on = []
    for _ in range(repeats):
        t_off.append(bench_dne_end_to_end(graph, partitions,
                                          "vectorized"))
        enable_metrics(MetricsRegistry())
        try:
            t_on.append(bench_dne_end_to_end(graph, partitions,
                                             "vectorized",
                                             tracer=Tracer()))
        finally:
            disable_metrics()
    return min(t_off), min(t_on)


# ----------------------------------------------------------------------
# Streaming-baseline zoo (shared core/streaming.py substrate)
# ----------------------------------------------------------------------
def bench_streaming_partitioner(name: str, graph: CSRGraph,
                                partitions: int, kernel: str) -> float:
    """Seconds for one full streaming-baseline partition run."""
    cls = PARTITIONER_REGISTRY[name]
    t0 = time.perf_counter()
    cls(partitions, seed=0, kernel=kernel).partition(graph)
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# Sequential NE expansion
# ----------------------------------------------------------------------
def bench_ne_expand(graph: CSRGraph, partitions: int, kernel: str) -> float:
    """Seconds for one full sequential-NE partition run."""
    t0 = time.perf_counter()
    NEPartitioner(partitions, seed=0, kernel=kernel).partition(graph)
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# GAS engine gathers
# ----------------------------------------------------------------------
def bench_engine_gathers(graph: CSRGraph, partitions: int, kernel: str,
                         rounds: int = 10) -> tuple[float, float]:
    """Cumulative (gather_sum, gather_min) seconds over ``rounds``."""
    part = PARTITIONER_REGISTRY["random"](partitions, seed=0).partition(graph)
    engine = DistributedGraphEngine(part, seed=0, kernel=kernel)
    rng = np.random.default_rng(0)
    values = rng.random(graph.num_vertices)
    active = rng.random(graph.num_vertices) < 0.5
    stats = AppRunStats(local_seconds=np.zeros(partitions))

    t_sum = t_min = 0.0
    for _ in range(rounds):
        t0 = time.perf_counter()
        engine.gather_sum(values, stats, weight_by_degree=True)
        t_sum += time.perf_counter() - t0
        t0 = time.perf_counter()
        engine.gather_min(values, stats, active, offset=1.0)
        t_min += time.perf_counter() - t0
    return t_sum, t_min


# ----------------------------------------------------------------------
# Cluster collective accounting
# ----------------------------------------------------------------------
def _all_gather_sum_reference(cluster: SimulatedCluster, values: dict) -> float:
    """The pre-vectorization O(P²) per-message accounting loop."""
    pids = sorted(values, key=repr)
    for src in pids:
        for dst in pids:
            if src == dst:
                continue
            nbytes = 0 if _same_machine(src, dst) else 8
            cluster.stats.stats_for(src).record_send(nbytes)
            cluster.stats.stats_for(dst).record_receive(nbytes)
    return sum(values.values())

def bench_all_gather_sum(partitions: int, kernel: str,
                         rounds: int = 200) -> float:
    """Cumulative seconds for ``rounds`` all-gather accounting passes."""
    cluster = SimulatedCluster()
    procs = [cluster.add_process(Process(("expansion", k)))
             for k in range(partitions)]
    values = {p.pid: 1.0 for p in procs}
    fn = (cluster.all_gather_sum if kernel == "vectorized"
          else lambda v: _all_gather_sum_reference(cluster, v))
    t0 = time.perf_counter()
    for _ in range(rounds):
        fn(values)
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# CSR construction
# ----------------------------------------------------------------------
def _csr_build_reference(edges: np.ndarray, n: int):
    """The pre-vectorization build: full argsort over the 2m-entry
    symmetrised adjacency."""
    m = len(edges)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    eid = np.concatenate([np.arange(m), np.arange(m)])
    order = np.argsort(src, kind="stable")
    src, dst, eid = src[order], dst[order], eid[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    counts = np.bincount(src, minlength=n)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst.astype(np.int64), eid.astype(np.int64)

def bench_csr_build(edges: np.ndarray, kernel: str, rounds: int = 3) -> float:
    """Cumulative seconds to symmetrise the CSR adjacency of the
    canonical ``edges`` ``rounds`` times."""
    n = int(edges.max()) + 1 if len(edges) else 0
    t = 0.0
    for _ in range(rounds):
        t0 = time.perf_counter()
        if kernel == "vectorized":
            symmetrised_csr(edges, n)
        else:
            _csr_build_reference(edges, n)
        t += time.perf_counter() - t0
    return t


# ----------------------------------------------------------------------
# Partition-serving read path (run store + async HTTP layer)
# ----------------------------------------------------------------------
def _serving_http_hammer(port: int, run_id: int, query_batches,
                         concurrency: int) -> dict:
    """Hammer a live server with concurrent keep-alive bulk lookups.

    ``query_batches`` is one list of vertex-id batches per client
    thread; every batch becomes one ``POST /api/runs/<id>/lookup``.
    Returns sustained throughput and tail latency over the whole run.
    """
    import http.client
    import threading

    per_client_latencies = [[] for _ in range(concurrency)]
    per_client_errors = [0] * concurrency

    def client(idx: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port)
        for ids in query_batches[idx]:
            body = json.dumps({"vertices": ids}).encode("utf-8")
            t0 = time.perf_counter()
            conn.request("POST", f"/api/runs/{run_id}/lookup", body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            resp.read()
            per_client_latencies[idx].append(time.perf_counter() - t0)
            if resp.status != 200:
                per_client_errors[idx] += 1
        conn.close()

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(concurrency)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0

    latencies = np.concatenate(
        [np.asarray(lat) for lat in per_client_latencies if lat])
    total_lookups = sum(len(ids) for batches in query_batches
                        for ids in batches)
    return {
        "http_concurrency": concurrency,
        "http_requests": int(latencies.size),
        "http_bulk": len(query_batches[0][0]) if query_batches[0] else 0,
        "http_lookups_per_sec": round(total_lookups / wall, 1),
        "http_p99_ms": round(
            float(np.percentile(latencies, 99)) * 1000, 3),
        "http_p50_ms": round(
            float(np.percentile(latencies, 50)) * 1000, 3),
        "http_errors": int(sum(per_client_errors)),
    }


def bench_serving_lookup(graph: CSRGraph, partitions: int, *,
                         rounds: int = 8, batch: int = 8192,
                         concurrency: int = 8,
                         requests_per_client: int = 64, bulk: int = 64,
                         seed: int = 0
                         ) -> tuple[float, float, dict]:
    """Serving read path: bulk-lookup kernels + concurrent HTTP load.

    Builds a throwaway run store (one DBH run over ``graph``), then:

    1. times ``rounds`` bulk vertex lookups of ``batch`` ids through
       each kernel (identical query stream, mmap warm) — the returned
       ``(t_python, t_vectorized)``;
    2. starts the real asyncio server on an ephemeral port and drives
       ``concurrency`` keep-alive clients × ``requests_per_client``
       bulk-``bulk`` lookups through it, returning the throughput /
       p99 dict of :func:`_serving_http_hammer`.
    """
    import shutil
    import tempfile

    from repro.serving import (BackgroundServer, LookupService, RunStore,
                               ServingAPI)

    tmp = tempfile.mkdtemp(prefix="repro-serving-bench-")
    store = RunStore(os.path.join(tmp, "runs.sqlite"))
    try:
        part = PARTITIONER_REGISTRY["dbh"](partitions,
                                           seed=seed).partition(graph)
        run_id = store.add_run(part, seed=seed, label="bench")
        service = LookupService(store)
        rng = np.random.default_rng(seed)
        queries = rng.integers(0, graph.num_vertices,
                               size=(rounds, batch))
        service.bulk_vertex_lookup(run_id, queries[0])  # warm the mmaps

        timings = {}
        for kernel in ("python", "vectorized"):
            t0 = time.perf_counter()
            for ids in queries:
                service.bulk_vertex_lookup(run_id, ids, kernel=kernel)
            timings[kernel] = time.perf_counter() - t0

        query_batches = [
            [rng.integers(0, graph.num_vertices, size=bulk).tolist()
             for _ in range(requests_per_client)]
            for _ in range(concurrency)]
        api = ServingAPI(store, lookup=service)
        with BackgroundServer(api) as server:
            http_stats = _serving_http_hammer(
                server.port, run_id, query_batches, concurrency)
        return timings["python"], timings["vectorized"], http_stats
    finally:
        store.close()
        shutil.rmtree(tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _row(name: str, edge_scale: int, graph: CSRGraph | None,
         t_python: float, t_vectorized: float) -> dict:
    return {
        "kernel": name,
        "edge_scale": edge_scale,
        "vertices": graph.num_vertices if graph is not None else None,
        "edges": graph.num_edges if graph is not None else None,
        "python_seconds": round(t_python, 6),
        "vectorized_seconds": round(t_vectorized, 6),
        "speedup": round(t_python / t_vectorized, 2)
        if t_vectorized > 0 else float("inf"),
    }


def run_perf(edge_scales=(12, 14, 17), partitions: int = 8,
             engine_partitions: int = 256,
             selection_partitions: int = 64,
             streaming_partitions: int = 64,
             wide_partitions: int = 256,
             serving_concurrency: int = 8,
             serving_requests: int = 64,
             serving_bulk: int = 64,
             out: str | None = "BENCH_kernels.json",
             seed: int = 0) -> dict:
    """Time every kernel pair at each scale; optionally write JSON.

    ``partitions`` drives the DNE/NE partitioning benches;
    ``engine_partitions`` drives the GAS gather benches, defaulting to
    the paper's largest cluster scale (§7.4 runs 256 machines), where
    the reference kernel's O(n · P) dense temporaries dominate;
    ``selection_partitions`` drives the expansion-side selection bench
    (default 64 machines — the scale-out regime where §7.4 reports the
    selection phase eating into the wall clock);
    ``streaming_partitions`` drives the streaming-baseline rows
    (default 64, the Table-4/5 sweep scale) and ``wide_partitions``
    the |P| ≫ 64 weak-scaling rows (``hdrf_p256`` and the end-to-end
    ``dne_p256``) exercising packed-bitset membership (default 256).

    The ``serving_lookup`` row (once, at the largest edge scale) times
    the partition-serving read path: the dual-kernel bulk vertex
    lookup, plus ``serving_concurrency`` concurrent HTTP clients ×
    ``serving_requests`` keep-alive bulk-``serving_bulk`` lookups
    against the live asyncio server (sustained lookups/sec, p99
    latency, and the non-200 count in the row's ``http_*`` fields).
    The ``observability_overhead`` row (same scale) pairs an untraced
    ``dne_p256`` run against one with the full telemetry plane live —
    metrics registry installed and Chrome tracer attached.  The
    ``dne_p_scaling`` row (same graph) times one vectorized run per
    |P| ∈ {8, 64, 256}.

    Returns the result document: ``{"meta": ..., "kernels": [rows]}``
    with one row per (kernel, scale) holding both kernels' seconds and
    the speedup ratio.
    """
    rows = []
    for edge_scale in edge_scales:
        graph = bench_graph(edge_scale, seed=seed)

        py = bench_allocation_phases(graph, partitions, "python")
        vec = bench_allocation_phases(graph, partitions, "vectorized")
        rows.append(_row("dne_one_hop", edge_scale, graph, py[0], vec[0]))
        rows.append(_row("dne_two_hop", edge_scale, graph, py[1], vec[1]))

        rows.append(_row(
            "dne_two_hop_conflict", edge_scale, graph,
            bench_two_hop_conflict(graph, partitions, "python", seed=seed),
            bench_two_hop_conflict(graph, partitions, "vectorized",
                                   seed=seed)))

        py = bench_selection_phase(graph, selection_partitions, "python")
        vec = bench_selection_phase(graph, selection_partitions,
                                    "vectorized")
        rows.append(_row("dne_selection", edge_scale, graph,
                         py[0], vec[0]))
        rows.append(_row("dne_boundary_fold", edge_scale, graph,
                         py[1], vec[1]))

        # |P| >> 64 end-to-end weak scaling (packed membership).  No
        # smoke floor: per-machine batches are tiny at bench scales, so
        # this row tracks the honest crossover (see module docstring).
        rows.append(_row(
            f"dne_p{wide_partitions}", edge_scale, graph,
            bench_dne_end_to_end(graph, wide_partitions, "python"),
            bench_dne_end_to_end(graph, wide_partitions, "vectorized")))

        for name in ("hdrf", "fennel"):
            rows.append(_row(
                name, edge_scale, graph,
                bench_streaming_partitioner(name, graph,
                                            streaming_partitions, "python"),
                bench_streaming_partitioner(name, graph,
                                            streaming_partitions,
                                            "vectorized")))
        rows.append(_row(
            f"hdrf_p{wide_partitions}", edge_scale, graph,
            bench_streaming_partitioner("hdrf", graph, wide_partitions,
                                        "python"),
            bench_streaming_partitioner("hdrf", graph, wide_partitions,
                                        "vectorized")))

        rows.append(_row("ne_expand", edge_scale, graph,
                         bench_ne_expand(graph, partitions, "python"),
                         bench_ne_expand(graph, partitions, "vectorized")))

        py = bench_engine_gathers(graph, engine_partitions, "python")
        vec = bench_engine_gathers(graph, engine_partitions, "vectorized")
        rows.append(_row("gather_sum", edge_scale, graph, py[0], vec[0]))
        rows.append(_row("gather_min", edge_scale, graph, py[1], vec[1]))

        rows.append(_row("csr_build", edge_scale, graph,
                         bench_csr_build(graph.edges, "python"),
                         bench_csr_build(graph.edges, "vectorized")))

    rows.append(_row("all_gather_sum", 0, None,
                     bench_all_gather_sum(partitions, "python"),
                     bench_all_gather_sum(partitions, "vectorized")))

    # Partition-serving read path, once at the largest kernel scale.
    serving_scale = max(edge_scales)
    serving_graph = bench_graph(serving_scale, seed=seed)
    t_py, t_vec, http_stats = bench_serving_lookup(
        serving_graph, partitions, concurrency=serving_concurrency,
        requests_per_client=serving_requests, bulk=serving_bulk,
        seed=seed)
    row = _row("serving_lookup", serving_scale, serving_graph, t_py,
               t_vec)
    row.update(http_stats)
    rows.append(row)

    # Telemetry overhead: traced vs untraced dne_p256 at the same
    # scale (zero-cost-when-off, quantified; "python" is the untraced
    # baseline here).
    t_off, t_on = bench_observability_overhead(
        serving_graph, wide_partitions, repeats=2)
    row = _row("observability_overhead", serving_scale, serving_graph,
               t_off, t_on)
    row.update({
        "baseline": "untraced",
        "untraced_seconds": row["python_seconds"],
        "traced_seconds": row["vectorized_seconds"],
        "overhead_ratio": round(t_on / t_off, 4)
        if t_off > 0 else float("inf"),
    })
    rows.append(row)

    # |P|-scaling of one vectorized DNE run at fixed work (same graph).
    t_by_p = {p: bench_dne_end_to_end(serving_graph, p, "vectorized")
              for p in _SCALING_PARTITIONS}
    narrow, wide = _SCALING_PARTITIONS[0], _SCALING_PARTITIONS[-1]
    row = _row("dne_p_scaling", serving_scale, serving_graph,
               t_by_p[narrow], t_by_p[wide])
    row.update({
        "baseline": f"p{narrow}",
        **{f"seconds_p{p}": round(t, 6) for p, t in t_by_p.items()},
        f"slowdown_vs_p{narrow}": round(t_by_p[wide] / t_by_p[narrow], 2)
        if t_by_p[narrow] > 0 else float("inf"),
    })
    rows.append(row)

    doc = {
        "meta": {
            "generated_by": "repro bench perf",
            "edge_scales": list(edge_scales),
            "edge_factor": _EDGE_FACTOR,
            "partitions": partitions,
            "engine_partitions": engine_partitions,
            "selection_partitions": selection_partitions,
            "streaming_partitions": streaming_partitions,
            "wide_partitions": wide_partitions,
            "serving_concurrency": serving_concurrency,
            "serving_requests": serving_requests,
            "serving_bulk": serving_bulk,
            "cpu_count": os.cpu_count(),
            "seed": seed,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "kernels": rows,
    }
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
    return doc
