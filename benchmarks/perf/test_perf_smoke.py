"""Tier-1 perf smoke test — kernel regressions fail fast.

A tiny slice of the ``repro bench perf`` suite, timed by the bench's
own method: every floor compares the per-arm minimum of three
interleaved repeats (:func:`repro.bench.perf.measure`), so one cold
call or one scheduler hiccup on either arm can neither trip nor pass
it.  On a ~50k-edge RMAT graph the vectorized DNE one-hop kernel, the
plain and the conflict-heavy two-hop and the selection plane
(segmented boundary store + enumerated multicast, and the boundary
fold, at the paper's 64-machine scale-out regime) must each beat their
per-pair reference by 2×, as must the streaming rows, end-to-end DNE
at |P| = 256 and the serving bulk lookup (the full bench shows 2.5–100×; 2× keeps the floors
robust to noisy CI boxes); Hybrid Ginger at |P| = 256 must clear 1.5×
(~2.5× measured), ``csr_build`` 1.2×, tracing cost
at most 1.25× untraced, and every kernel pair must agree on its outputs.
Two ceilings count bytes, not seconds: the ``tracemalloc`` peak of one
DNE partition, per edge, and what building a ``CSRGraph`` allocates.

The full trajectory lives in ``BENCH_kernels.json`` (regenerate with
``python -m repro bench perf``).
"""

import os
import tracemalloc

import numpy as np
import pytest

from repro.bench.perf import (
    bench_all_gather_sum,
    bench_allocation_phases,
    bench_csr_build,
    bench_dne_end_to_end,
    bench_engine_gathers,
    bench_graph,
    bench_selection_phase,
    bench_serving_lookup,
    bench_streaming_partitioner,
    bench_two_hop_conflict,
    kernel_arms,
    measure,
)
from repro.core.distributed_ne import DistributedNE
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_edges

#: min of three interleaved repeats, no warm-up round: the minimum
#: already drops a cold first call.
_FLOOR = {"warmup": 0, "repeats": 3}


def _smoke_graph() -> CSRGraph:
    """~50k-edge RMAT graph (2^13 vertices, EF 8, before dedup 65k)."""
    return CSRGraph(rmat_edges(13, 8, seed=0))


def _assert_speedup(what, timings, floor, phase=0):
    py = timings["python"][phase].min
    vec = timings["vectorized"][phase].min
    assert vec > 0
    assert py >= floor * vec, (
        f"{what} speedup regressed: python {py:.4f}s vs vectorized "
        f"{vec:.4f}s ({py / vec:.2f}x < {floor}x, min of 3)")


def test_measure_interleaves_and_splits_phases():
    calls = []

    def arm(name, seconds):
        return lambda: calls.append(name) or seconds

    timings = measure({"a": arm("a", (1.0, 4.0)), "b": arm("b", 2.0)},
                      warmup=1, repeats=3)
    assert calls == ["a", "b"] * 4
    one, four = timings["a"]
    assert (one.min, one.median, one.spread, four.min) == (1.0, 1.0, 0.0, 4.0)
    assert [t.repeats for t in timings["b"]] == [3]


def test_one_hop_vectorized_at_least_2x():
    """One-hop, and the plain two-hop timed by the same sweep."""
    graph = _smoke_graph()
    assert graph.num_edges > 40_000
    timings = measure(kernel_arms(bench_allocation_phases, graph, 8),
                      **_FLOOR)
    _assert_speedup("one-hop", timings, 2.0)
    _assert_speedup("two-hop", timings, 2.0, phase=1)


def test_two_hop_conflict_vectorized_at_least_2x():
    """Conflict-heavy two-hop (the loads-delta batching regime)."""
    _assert_speedup("two-hop conflict", measure(
        kernel_arms(bench_two_hop_conflict, _smoke_graph(), 8), **_FLOOR),
        2.0)


def test_selection_vectorized_at_least_2x():
    """The selection/boundary plane (§7.4's scale-out bottleneck) at
    |P| = 64: one segmented boundary store + enumerated multicast vs
    heapq + tuple lists, and the boundary fold as one store insert vs
    a dict accumulator (~3x here; it sat under 2x while the fold ran
    one array-queue insert per expander)."""
    timings = measure(kernel_arms(bench_selection_phase, _smoke_graph(), 64),
                      **_FLOOR)
    _assert_speedup("selection", timings, 2.0, phase=0)
    _assert_speedup("boundary-fold", timings, 2.0, phase=1)


def test_streaming_rows_vectorized_at_least_2x():
    """HDRF and FENNEL's load-level walk (``walk_edge_stream``) at the
    Table-4/5 sweep width (|P| = 64), against the per-edge references'
    |P|-wide score vectors."""
    graph = _smoke_graph()
    for name in ("hdrf", "fennel"):
        _assert_speedup(name, measure(kernel_arms(
            bench_streaming_partitioner, name, graph, 64), **_FLOOR), 2.0)


def test_streaming_wide_partitions_vectorized_at_least_2x():
    """|P| = 256: the walk's 256-bit replica and level masks against
    the reference's per-edge O(|P|) set probes."""
    graph = CSRGraph(rmat_edges(11, 8, seed=0))
    _assert_speedup("hdrf |P|=256", measure(kernel_arms(
        bench_streaming_partitioner, "hdrf", graph, 256), **_FLOOR), 2.0)


def test_ginger_walk_at_least_1_5x():
    """Hybrid Ginger at |P| = 256: the per-group walk scores the
    incident-edge labels and one best-of-the-rest label against the
    reference's |P|-wide score vector per group.  The chunked
    prefix-commit arm it replaced ran at ~0.2x here."""
    _assert_speedup("hybrid_ginger |P|=256", measure(kernel_arms(
        bench_streaming_partitioner, "hybrid_ginger", _smoke_graph(), 256),
        **_FLOOR), 1.5)


def test_dne_p256_end_to_end_at_least_2x():
    """End-to-end DNE at |P| = 256 (the gate's ``rmat_p256`` width):
    fused cross-partition phase dispatch must beat the python
    reference.  This was the |P| ≫ 64 crossover where per-process
    dispatch lost to the reference (0.48x)."""
    graph = CSRGraph(rmat_edges(11, 8, seed=0))
    _assert_speedup("dne_p256", measure(
        kernel_arms(bench_dne_end_to_end, graph, 256), **_FLOOR), 2.0)


@pytest.mark.parametrize("scale, partitions, ceiling", [
    pytest.param(13, 8, 150, id="rmat13_p8"),
    pytest.param(11, 256, 1600, id="rmat11_p256"),
    pytest.param(13, 256, 700, id="rmat13_p256")])
def test_dne_traced_peak_bytes_per_edge_under_ceiling(scale, partitions,
                                                      ceiling):
    """Memory ceiling of one vectorized ``DistributedNE.partition``:
    the ``tracemalloc`` peak, the graph excluded (built before tracing
    starts), per edge.  It counts allocations, not time, so one call
    decides it.  With the plane keeping int64 copies of the allocators'
    local CSR and two-hop merging every sync row before asking whether
    the destination holds the vertex, it was 191 / 3140 B/edge at RMAT
    13 / |P| = 8 and RMAT 11 / |P| = 256; with one adopted int32 copy
    and a presence-first ingest, 117 / 2294.  At |P| = 256 one sweep
    held every machine's sync mail at once (2294, and 994 at RMAT 13);
    with sweeps cut into machine groups under the plane's row budget,
    1273 / 468."""
    warm = CSRGraph(rmat_edges(6, 4, seed=0))   # imports, lazy caches
    DistributedNE(partitions, seed=0).partition(warm)
    graph = CSRGraph(rmat_edges(scale, 8, seed=0))
    tracemalloc.start()
    try:
        DistributedNE(partitions, seed=0).partition(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_edge = peak / graph.num_edges
    assert per_edge <= ceiling, (
        f"DNE memory regressed: traced peak {per_edge:.0f} B/edge > "
        f"{ceiling} at RMAT {scale}, |P| = {partitions}")


def test_csr_graph_holds_its_edges_and_little_else():
    """Memory ceiling of ``CSRGraph(canonical RMAT 16)`` (477k edges):
    what construction still holds is at most 1 B/edge beyond one int64
    per vertex, and its ``tracemalloc`` peak at most 4 B/edge (the
    canonical-order check's boolean temporaries, 3 B/edge).  With the
    global adjacency built eagerly it held ≈ 33 B/edge and peaked at
    ≈ 84; now ``indptr`` / ``indices`` / ``edge_ids`` wait for the
    first partitioner that walks them."""
    CSRGraph(rmat_edges(6, 4, seed=0))          # imports, lazy caches
    edges = rmat_edges(16, 8, seed=0)
    tracemalloc.start()
    try:
        graph = CSRGraph(edges)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_vertex = 8 * (graph.num_vertices + 1)
    m = graph.num_edges
    assert m > 400_000
    assert held - per_vertex <= 1 * m, (
        f"CSRGraph holds {held / m:.1f} B/edge beyond its edge array")
    assert peak - per_vertex <= 4 * m, (
        f"CSRGraph construction peaked at {peak / m:.1f} B/edge")
    assert graph._adjacency is None


def test_dne_backend_threads_floor_or_skip():
    """Parallel-backend wall clock only means something when the host
    has the cores.  When ``cpu_count < workers`` this floor *skips* —
    visibly, not a silent pass — instead of failing on timings the host
    cannot hit.
    With the cores present, the threads backend (fused chunks + outbox
    replay) must stay within 1.5x of inline simulated dispatch."""
    workers = 4
    if (os.cpu_count() or 1) < workers:
        pytest.skip(f"hardware_limited: {os.cpu_count() or 1} core(s) "
                    f"< {workers} workers — backend floor unmeasurable")
    graph = CSRGraph(rmat_edges(11, 8, seed=0))
    timings = measure({
        "simulated": lambda: bench_dne_end_to_end(graph, 256, "vectorized"),
        "threads": lambda: bench_dne_end_to_end(
            graph, 256, "vectorized", backend="threads", workers=workers),
    }, **_FLOOR)
    sim, thr = timings["simulated"][0].min, timings["threads"][0].min
    assert sim > 0
    assert thr <= 1.5 * sim, (
        f"threads backend floor regressed: simulated {sim:.3f}s vs "
        f"threads {thr:.3f}s ({thr / sim:.2f}x > 1.5x)")


def test_serving_lookup_vectorized_at_least_2x():
    """The partition-serving read path: the vectorized bulk vertex
    lookup (one ``adjacency_slots`` gather over the replica CSR) must
    beat the per-vertex python reference.  The live server under
    concurrent load is the gate's (``serving.p99_ms``,
    ``serving.non200``) and
    ``tests/test_serving_load.py::test_concurrent_bulk_hammer_zero_5xx``'s."""
    graph = CSRGraph(rmat_edges(12, 8, seed=0))
    _assert_speedup("serving bulk-lookup", bench_serving_lookup(
        graph, 8, rounds=3, batch=4096, seed=0, **_FLOOR), 2.0)


def test_observability_overhead_under_bound():
    """Tracing must be near-free: traced DNE at |P| = 256 (live metrics
    registry + Chrome tracer) against untraced.  Smoke-scale runs are
    sub-second and scheduler jitter alone exceeds 5%, so the floor is a
    noise-tolerant 1.25x — it trips on a hot-path regression (e.g.
    per-message metric calls), not on a noisy box; the gate's
    ``observability.trace_overhead_ratio`` tracks the real ratio."""
    from repro.observability.metrics import (MetricsRegistry,
                                             disable_metrics, enable_metrics)
    from repro.observability.trace import Tracer
    graph = CSRGraph(rmat_edges(11, 8, seed=0))

    def traced():
        enable_metrics(MetricsRegistry())
        try:
            return bench_dne_end_to_end(graph, 256, "vectorized",
                                        tracer=Tracer())
        finally:
            disable_metrics()

    timings = measure({
        "untraced": lambda: bench_dne_end_to_end(graph, 256, "vectorized"),
        "traced": traced}, **_FLOOR)
    t_off, t_on = timings["untraced"][0].min, timings["traced"][0].min
    assert t_off > 0
    assert t_on <= 1.25 * t_off, (
        f"telemetry overhead regressed: untraced {t_off:.3f}s vs "
        f"traced {t_on:.3f}s ({t_on / t_off:.2f}x > 1.25x)")


def test_selection_bench_kernels_agree_on_traffic(monkeypatch):
    """Both kernels must drive identical simulated traffic through the
    selection bench — ndarray payloads size exactly like tuple lists."""
    import repro.bench.perf as perf
    from repro.cluster.runtime import SimulatedCluster

    graph = CSRGraph(rmat_edges(9, 6, seed=2))
    stats = {}
    for kernel in ("python", "vectorized"):
        captured = []
        orig_init = SimulatedCluster.__init__
        monkeypatch.setattr(
            SimulatedCluster, "__init__",
            lambda self: (orig_init(self), captured.append(self))[0])
        perf.bench_selection_phase(graph, 8, kernel)
        monkeypatch.undo()
        stats[kernel] = captured[0].stats.summary()
    assert stats["python"] == stats["vectorized"]


def test_csr_build_vectorized_at_least_1_2x():
    """``symmetrised_csr`` (one packed-key sort of the backward half)
    against the full-2m-argsort reference at the bench's top scale:
    a build that only ties its reference has not earned its keep, so
    the floor is above 1."""
    edges = bench_graph(17).edges
    assert len(edges) > 100_000
    _assert_speedup("csr_build", measure(
        kernel_arms(bench_csr_build, edges), **_FLOOR), 1.2)


def test_remaining_kernels_run():
    """Every benched kernel pair executes at a tiny scale."""
    graph = CSRGraph(rmat_edges(9, 6, seed=1))
    for kernel in ("python", "vectorized"):
        t_sum, t_min = bench_engine_gathers(graph, 4, kernel, rounds=1)
        assert t_sum >= 0 and t_min >= 0
        assert bench_all_gather_sum(4, kernel, rounds=2) >= 0


def test_allocation_outputs_agree_on_smoke_graph():
    """The timed kernels must also agree — speed without drift."""
    graph = CSRGraph(rmat_edges(9, 6, seed=3))
    a = DistributedNE(4, seed=0).partition(graph)
    b = DistributedNE(4, seed=0, kernel="python").partition(graph)
    assert np.array_equal(a.assignment, b.assignment)
