"""Kernel microbenchmarks — the perf trajectory behind ``BENCH_kernels.json``.

Every hot kernel ships a vectorized flat-array implementation, which
production runs, and the per-slot ``kernel="python"`` reference it is
pinned against.  This module times both on RMAT graphs at several
scales, one JSON row per (kernel, scale):

* ``dne_one_hop`` / ``dne_two_hop`` / ``dne_two_hop_conflict`` — DNE's
  allocation phases (Algorithms 2–3) over one allocation process that
  owns the graph, fed a synthetic selection (or sync-flood) schedule;
* ``dne_selection`` / ``dne_boundary_fold`` — boundary pops + replica
  multicast and the received-boundary fold (§7.4's scale-out
  bottleneck) over a full cluster of expansion processes.  Every
  ``dne_*`` vectorized arm is fed ``send_segments`` sweeps and steps
  through :class:`~repro.core.fused.FusedDnePlane`, as production does;
* ``hdrf`` / ``fennel`` / ``hdrf_p256`` — full streaming-baseline runs
  through ``core/streaming.py``'s load-level walk, the last at
  |P| = 256;
* ``hybrid_ginger`` / ``hybrid_ginger_p256`` — full Hybrid Ginger runs
  (hybrid hash + re-homing rounds, the group walk against the |P|-wide
  reference loop) at |P| = 64 and 256;
* ``ne_expand`` — a full sequential-NE run (``ExpansionState``);
* ``gather_sum`` / ``gather_min`` — the GAS engine's gathers;
* ``all_gather_sum`` — the cluster's collective accounting;
* ``csr_build`` — CSR construction vs the full-2m-argsort reference;
* ``serving_lookup`` — the bulk vertex lookup over a run store's mmap'd
  replica CSR, once at the largest scale.

One method times every row: :func:`measure` warms each arm, then runs
the arms interleaved inside every repeat, so drift and cache warmth hit
both alike.  A row records each arm's minimum (``*_seconds``;
``speedup`` is their ratio), median and IQR-over-median ``spread``, the
``repeats``, and one absolute ``rate`` from the vectorized minimum.  An
arm returns the seconds of its own timed region — a tuple for the
phase-split benches — so untimed feeds stay untimed; every clock read
is :func:`_timed`.

End-to-end numbers are the gate's (``benchmarks/e2e``), not rows here:
DNE at |P| = 256 is ``rmat_p256`` ``partition_s``, tracing cost
``observability.trace_overhead_ratio``, live HTTP serving
``serving.p99_ms`` / ``serving.non200``.

Run via ``repro bench perf`` or :func:`run_perf`;
``benchmarks/perf/test_perf_smoke.py`` keeps a tiny configuration in
tier-1 so kernel regressions fail fast.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import time
from dataclasses import dataclass

import numpy as np

from repro.apps.engine import AppRunStats, DistributedGraphEngine
from repro.cluster.runtime import (Process, SegmentBatch, SimulatedCluster,
                                   _same_machine)
from repro.core.allocation import (TAG_BOUNDARY, TAG_EDGES, TAG_SELECT,
                                   TAG_SYNC, AllocationProcess)
from repro.core.expansion import ExpansionProcess, SharedSeedSource
from repro.core.fused import FusedDnePlane
from repro.core.hash2d import Hash2DPlacement
from repro.graph.csr import CSRGraph, symmetrised_csr
from repro.graph.generators import rmat_edges
from repro.partitioners import PARTITIONER_REGISTRY
from repro.partitioners.ne import NEPartitioner

__all__ = ["run_perf", "measure", "Timing", "kernel_arms", "bench_graph",
           "bench_allocation_phases", "bench_two_hop_conflict",
           "bench_selection_phase", "bench_dne_end_to_end",
           "bench_streaming_partitioner", "bench_ne_expand",
           "bench_engine_gathers", "bench_all_gather_sum",
           "bench_csr_build", "bench_serving_lookup"]

#: RMAT edge factor used by every perf graph.
_EDGE_FACTOR = 8

#: Cluster widths (|P|): DNE components, NE, serving and all-gather at
#: 8; GAS gathers at §7.4's 256 machines, where the reference's O(n · P)
#: temporaries dominate; selection at 64, where §7.4 sees it eat the
#: wall clock; streaming (HDRF, FENNEL, Hybrid Ginger) at the Table-4/5
#: width and at 256.
_PARTITIONS = 8
_ENGINE_PARTITIONS = 256
_SELECTION_PARTITIONS = 64
_STREAMING_PARTITIONS = 64
_WIDE_PARTITIONS = 256

#: Repeats of the full-partition rows (streaming, NE): a python
#: ``hdrf_p256`` call at 2^17 edges takes 10 s, and at the default five
#: that row alone would be 70 s of the bench.
_RUN_REPEATS = 3


def bench_graph(edge_scale: int, seed: int = 0) -> CSRGraph:
    """RMAT graph with ~``2**edge_scale`` edges (EF 8, Graph500 skew)."""
    vertex_scale = max(edge_scale - 3, 4)
    return CSRGraph(rmat_edges(vertex_scale, _EDGE_FACTOR, seed=seed))


# ----------------------------------------------------------------------
# The measurement method
# ----------------------------------------------------------------------
def _timed(call) -> float:
    """Seconds ``call()`` takes — the module's one clock read."""
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Timing:
    """One arm's (or one phase's) seconds over the timed repeats."""

    min: float
    median: float
    q1: float
    q3: float
    repeats: int

    @property
    def spread(self) -> float:
        """Interquartile range over the median."""
        return (self.q3 - self.q1) / self.median if self.median > 0 else 0.0


def measure(arms: dict, *, warmup: int = 1,
            repeats: int = 5) -> dict[str, tuple[Timing, ...]]:
    """Time every arm ``repeats`` times after ``warmup`` untimed rounds.

    ``arms`` maps a name to a zero-argument callable returning the
    seconds of its own timed region: a float, or a tuple of per-phase
    seconds.  Each round calls every arm once, in order, so the arms
    are interleaved inside every repeat.  Returns, per arm, one
    :class:`Timing` per component (a float arm has one).
    """
    samples = {name: [] for name in arms}
    for round_ in range(warmup + repeats):
        for name, arm in arms.items():
            seconds = np.atleast_1d(arm())
            if round_ >= warmup:
                samples[name].append(seconds)
    result = {}
    for name, table in samples.items():
        stats = np.vstack([np.min(table, axis=0),
                           np.percentile(table, [50, 25, 75], axis=0)])
        result[name] = tuple(Timing(*map(float, column), repeats)
                             for column in stats.T)
    return result


def kernel_arms(bench, *args, **kwargs) -> dict:
    """The python / vectorized arms of ``bench(*args, kernel=...)``,
    ready for :func:`measure`."""
    return {kernel: functools.partial(bench, *args, kernel=kernel, **kwargs)
            for kernel in ("python", "vectorized")}


# ----------------------------------------------------------------------
# DNE allocation phases
# ----------------------------------------------------------------------
def _feed(cluster: SimulatedCluster, tag: str, rows: np.ndarray,
          src_role: str, src_slots: np.ndarray, dst_role: str,
          dst_slots: np.ndarray) -> None:
    """Untimed feed of one emission sweep (``rows`` grouped by
    ``(src, dst)``, as :meth:`SegmentBatch.from_runs` takes them) —
    the mail both kernels read."""
    cluster.deliver_segments(tag, SegmentBatch.from_runs(
        rows, src_role, src_slots, dst_role, dst_slots))


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
    chunks = np.split(order, range(per_round, len(order), per_round))
    return [np.column_stack([chunk, np.arange(len(chunk)) // batch])
            .astype(np.int64) for chunk in chunks]


def _bench_allocator(graph: CSRGraph, partitions: int, kernel: str):
    """A cluster with one allocation process owning every edge, plus
    stand-in expansion processes to address, and ``step(method)``: one
    allocation phase — the reference's step method, or one call of the
    plane over the process (production dispatch)."""
    cluster = SimulatedCluster()
    placement = Hash2DPlacement(1, seed=0)
    alloc = cluster.add_process(AllocationProcess(
        0, graph.edges, graph.num_vertices, np.arange(graph.num_edges),
        placement, kernel=kernel))
    # One machine, `partitions` partitions: the width is sized before
    # the plane adopts it.
    alloc._ensure_partition_capacity(partitions - 1)
    for p in range(partitions):
        cluster.add_process(Process(("expansion", p)))
    if kernel == "vectorized":
        plane = FusedDnePlane([alloc], placement)

        def step(method):
            plane.run(method, [alloc.pid])
    else:
        def step(method):
            getattr(alloc, method)()
    return cluster, step


def bench_allocation_phases(graph: CSRGraph, partitions: int, kernel: str,
                            batch: int = 64) -> tuple[float, float]:
    """Cumulative (one-hop, two-hop) seconds over a full selection sweep.

    One allocation process owns every edge; a driver replays the same
    deterministic selection schedule for either kernel — one
    ``select`` sweep per round from the partitions' expansion
    processes — and times the two allocation phases separately.  The
    vectorized kernel steps through the plane, as production runs do.
    """
    cluster, step = _bench_allocator(graph, partitions, kernel)
    one_hop = two_hop = 0.0
    for rows in _selection_schedule(graph, partitions, batch):
        _feed(cluster, TAG_SELECT, rows, "expansion", rows[:, 1],
              "alloc", np.zeros(len(rows), dtype=np.int64))
        cluster.barrier()
        one_hop += _timed(lambda: step("one_hop_and_sync"))
        cluster.barrier()
        two_hop += _timed(lambda: step("two_hop_and_report"))
        cluster.barrier()
        cluster.pop_segment_mail()
    return one_hop, two_hop


def bench_two_hop_conflict(graph: CSRGraph, partitions: int, kernel: str,
                           rounds: int = 8, seed: int = 0) -> float:
    """Cumulative two-hop seconds under a conflict-heavy sync schedule.

    A peer allocation process floods the timed one with random ⟨v, p⟩
    sync pairs, so after a couple of rounds most merged vertices share
    several partitions with their neighbours — the regime where
    contested (multi-shared) edges dominate and the loads-delta
    tie-break replay is the whole phase.  The schedule, one one-segment
    sweep per round, is identical for both kernels.
    """
    cluster, step = _bench_allocator(graph, partitions, kernel)
    cluster.add_process(Process(("alloc", 1)))

    rng = np.random.default_rng(seed)
    batch = max(64, graph.num_vertices // 2)
    peer = np.ones(batch, dtype=np.int64)      # ("alloc", 1) -> ("alloc", 0)
    elapsed = 0.0
    for _ in range(rounds):
        vs = rng.integers(0, graph.num_vertices, batch)
        ps = rng.integers(0, partitions, batch)
        _feed(cluster, TAG_SYNC,
              np.column_stack([vs, ps]).astype(np.int64),
              "alloc", peer, "alloc", np.zeros_like(peer))
        step("one_hop_and_sync")   # no selects: just arms the phase state
        cluster.barrier()
        elapsed += _timed(lambda: step("two_hop_and_report"))
        cluster.barrier()
        cluster.pop_segment_mail()
    return elapsed


# ----------------------------------------------------------------------
# DNE selection plane (boundary queue + multicast + boundary fold)
# ----------------------------------------------------------------------
def bench_selection_phase(graph: CSRGraph, partitions: int, kernel: str,
                          lam: float = 0.1,
                          rounds: int = 6) -> tuple[float, float]:
    """Cumulative (selection+multicast, boundary-fold) seconds.

    Drives a full cluster of expansion processes through the
    steady-state shape of Algorithm 4 with the allocation phases
    replaced by a deterministic feed: over ``rounds`` rounds every
    expander receives the same permuted stream of ⟨v, Drest = degree⟩
    boundary pairs (long enough that boundaries hold the
    multi-thousand-entry steady state real DNE runs sustain) plus an
    edge-id batch, folds them in, and selects/multicasts its
    ``ceil(lam |B|)`` minimum-Drest vertices; then expanders drain until
    their boundary falls under one feed batch.  Both kernels read the
    same sweeps; the reference runs per-process steps, the vectorized
    kernel one plane call per phase (production dispatch) — so the
    timings isolate the boundary, multicast, and fold implementations.
    """
    n = graph.num_vertices
    stream = min(n, max(192, n // 24))
    cluster = SimulatedCluster()
    placement = Hash2DPlacement(partitions, seed=0)
    # Allocation stand-ins receive the multicasts; the seed source holds
    # no vertex, so the timed loop stays on the boundary path, never
    # the seed-scan fallback.
    for k in range(partitions):
        cluster.add_process(Process(("alloc", k)))
    nothing = np.empty(0, dtype=np.int64)
    seed_source = SharedSeedSource([nothing] * partitions,
                                   [nothing] * partitions)
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
                _feed(cluster, tag,
                      np.concatenate([payload] * partitions).astype(np.int64),
                      "alloc", np.zeros_like(dst), "expansion", dst)
        cluster.barrier()

        t_fold += _timed(lambda: step("update_state"))

        if pos >= len(feeds):
            # Stream exhausted: retire near-drained expanders so the
            # tail never degenerates into singleton pops or the
            # seed-scan fallback.
            for e in expanders:
                if len(e.boundary) < chunk:
                    e.finished = True
            if all(e.finished for e in expanders):
                break

        t_select += _timed(lambda: step("select_and_multicast"))
        cluster.barrier()
        cluster.pop_segment_mail()
    return t_select, t_fold


# ----------------------------------------------------------------------
# Full partition runs
# ----------------------------------------------------------------------
def bench_dne_end_to_end(graph: CSRGraph, partitions: int, kernel: str,
                         backend: str = "simulated",
                         workers: int | None = None,
                         tracer=None) -> float:
    """Seconds for one full Distributed NE partition run (no row: the
    smoke floors' end-to-end arms)."""
    from repro.core.distributed_ne import DistributedNE
    return _timed(lambda: DistributedNE(
        partitions, seed=0, kernel=kernel, backend=backend,
        workers=workers, tracer=tracer).partition(graph))


def bench_streaming_partitioner(name: str, graph: CSRGraph,
                                partitions: int, kernel: str) -> float:
    """Seconds for one full streaming-baseline partition run."""
    cls = PARTITIONER_REGISTRY[name]
    return _timed(lambda: cls(partitions, seed=0,
                              kernel=kernel).partition(graph))


def bench_ne_expand(graph: CSRGraph, partitions: int, kernel: str) -> float:
    """Seconds for one full sequential-NE partition run."""
    return _timed(lambda: NEPartitioner(partitions, seed=0,
                                        kernel=kernel).partition(graph))


# ----------------------------------------------------------------------
# Engine gathers, collective accounting, CSR construction
# ----------------------------------------------------------------------
def bench_engine_gathers(graph: CSRGraph, partitions: int, kernel: str,
                         rounds: int) -> tuple[float, float]:
    """Cumulative (gather_sum, gather_min) seconds over ``rounds``."""
    part = PARTITIONER_REGISTRY["random"](partitions, seed=0).partition(graph)
    engine = DistributedGraphEngine(part, seed=0, kernel=kernel)
    rng = np.random.default_rng(0)
    values = rng.random(graph.num_vertices)
    active = rng.random(graph.num_vertices) < 0.5
    stats = AppRunStats(local_seconds=np.zeros(partitions))

    t_sum = t_min = 0.0
    for _ in range(rounds):
        t_sum += _timed(lambda: engine.gather_sum(
            values, stats, weight_by_degree=True))
        t_min += _timed(lambda: engine.gather_min(
            values, stats, active, offset=1.0))
    return t_sum, t_min


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

def bench_all_gather_sum(partitions: int, kernel: str, rounds: int) -> float:
    """Cumulative seconds for ``rounds`` all-gather accounting passes."""
    cluster = SimulatedCluster()
    procs = [cluster.add_process(Process(("expansion", k)))
             for k in range(partitions)]
    values = {p.pid: 1.0 for p in procs}
    fn = (cluster.all_gather_sum if kernel == "vectorized"
          else lambda v: _all_gather_sum_reference(cluster, v))

    def passes():
        for _ in range(rounds):
            fn(values)
    return _timed(passes)


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

def bench_csr_build(edges: np.ndarray, kernel: str) -> float:
    """Seconds to symmetrise the CSR adjacency of the canonical
    ``edges`` once."""
    n = int(edges.max()) + 1 if len(edges) else 0
    build = symmetrised_csr if kernel == "vectorized" else \
        _csr_build_reference
    return _timed(lambda: build(edges, n))


# ----------------------------------------------------------------------
# Partition-serving bulk lookup
# ----------------------------------------------------------------------
def bench_serving_lookup(graph: CSRGraph, partitions: int, *,
                         rounds: int, batch: int, seed: int = 0,
                         **measure_args) -> dict[str, tuple[Timing, ...]]:
    """:func:`measure` of the two bulk vertex-lookup kernels.

    Builds a throwaway run store (one DBH run over ``graph``), then
    each arm answers the same ``rounds`` bulk lookups of ``batch`` ids
    over the run's mmap'd replica CSR (the warm-up round fills the
    mmaps).  ``measure_args`` go to :func:`measure`.
    """
    import shutil
    import tempfile

    from repro.serving import LookupService, RunStore

    tmp = tempfile.mkdtemp(prefix="repro-serving-bench-")
    store = RunStore(os.path.join(tmp, "runs.sqlite"))
    try:
        part = PARTITIONER_REGISTRY["dbh"](partitions,
                                           seed=seed).partition(graph)
        run_id = store.add_run(part, seed=seed, label="bench")
        service = LookupService(store)
        queries = np.random.default_rng(seed).integers(
            0, graph.num_vertices, size=(rounds, batch))
        return measure(kernel_arms(_bulk_lookups, service, run_id, queries),
                       **measure_args)
    finally:
        store.close()
        shutil.rmtree(tmp, ignore_errors=True)


def _bulk_lookups(service, run_id: int, queries: np.ndarray,
                  kernel: str) -> float:
    """Seconds for one bulk vertex lookup per row of ``queries``."""
    def lookups():
        for ids in queries:
            service.bulk_vertex_lookup(run_id, ids, kernel=kernel)
    return _timed(lookups)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_perf(edge_scales=(12, 14, 17), out: str | None = "BENCH_kernels.json",
             seed: int = 0) -> dict:
    """Time every kernel pair at each scale; optionally write JSON.

    Every row goes through :func:`measure` (the full-partition rows at
    ``_RUN_REPEATS``); the ``serving_lookup`` row runs once, on the
    largest scale's graph.  Returns the result document:
    ``{"meta": ..., "kernels": [rows]}``.
    """
    rows = []

    def add(names, edge_scale, graph, timings, work=None, unit="edges/s"):
        """One row per timed phase (``names[i]`` <- component ``i``);
        ``work`` per vectorized-min second is the row's ``rate``."""
        work = graph.num_edges if work is None else work
        for name, py, vec in zip(names, timings["python"],
                                 timings["vectorized"]):
            rows.append({
                "kernel": name,
                "edge_scale": edge_scale,
                "vertices": None if graph is None else graph.num_vertices,
                "edges": None if graph is None else graph.num_edges,
                "python_seconds": round(py.min, 6),
                "vectorized_seconds": round(vec.min, 6),
                "python_median_seconds": round(py.median, 6),
                "vectorized_median_seconds": round(vec.median, 6),
                "python_spread": round(py.spread, 3),
                "vectorized_spread": round(vec.spread, 3),
                "repeats": vec.repeats,
                "speedup": round(py.min / vec.min, 2),
                "rate": round(work / vec.min, 1),
                "rate_unit": unit,
            })

    gather_rounds, lookup_rounds, lookup_batch, gathers = 10, 8, 8192, 200
    for scale in edge_scales:
        graph = bench_graph(scale, seed=seed)
        add(("dne_one_hop", "dne_two_hop"), scale, graph, measure(
            kernel_arms(bench_allocation_phases, graph, _PARTITIONS)))
        add(("dne_two_hop_conflict",), scale, graph, measure(
            kernel_arms(bench_two_hop_conflict, graph, _PARTITIONS,
                        seed=seed)))
        add(("dne_selection", "dne_boundary_fold"), scale, graph, measure(
            kernel_arms(bench_selection_phase, graph,
                        _SELECTION_PARTITIONS)))
        for row, name, width in (
                ("hdrf", "hdrf", _STREAMING_PARTITIONS),
                ("fennel", "fennel", _STREAMING_PARTITIONS),
                (f"hdrf_p{_WIDE_PARTITIONS}", "hdrf", _WIDE_PARTITIONS),
                ("hybrid_ginger", "hybrid_ginger", _STREAMING_PARTITIONS),
                (f"hybrid_ginger_p{_WIDE_PARTITIONS}", "hybrid_ginger",
                 _WIDE_PARTITIONS)):
            add((row,), scale, graph, measure(
                kernel_arms(bench_streaming_partitioner, name, graph, width),
                repeats=_RUN_REPEATS))
        add(("ne_expand",), scale, graph, measure(
            kernel_arms(bench_ne_expand, graph, _PARTITIONS),
            repeats=_RUN_REPEATS))
        add(("gather_sum", "gather_min"), scale, graph, measure(
            kernel_arms(bench_engine_gathers, graph, _ENGINE_PARTITIONS,
                        rounds=gather_rounds)),
            work=gather_rounds * graph.num_edges)
        add(("csr_build",), scale, graph, measure(
            kernel_arms(bench_csr_build, graph.edges)))
        if scale == max(edge_scales):
            add(("serving_lookup",), scale, graph, bench_serving_lookup(
                graph, _PARTITIONS, rounds=lookup_rounds,
                batch=lookup_batch, seed=seed),
                work=lookup_rounds * lookup_batch, unit="lookups/s")
    add(("all_gather_sum",), 0, None, measure(
        kernel_arms(bench_all_gather_sum, _PARTITIONS, rounds=gathers)),
        work=gathers, unit="gathers/s")

    doc = {
        "meta": {
            "generated_by": "repro bench perf",
            "edge_scales": list(edge_scales),
            "edge_factor": _EDGE_FACTOR,
            "partitions": _PARTITIONS,
            "engine_partitions": _ENGINE_PARTITIONS,
            "selection_partitions": _SELECTION_PARTITIONS,
            "streaming_partitions": _STREAMING_PARTITIONS,
            "wide_partitions": _WIDE_PARTITIONS,
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
