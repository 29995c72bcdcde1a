"""Tier-1 perf smoke test — kernel regressions fail fast.

A tiny slice of the ``repro bench perf`` suite: on a ~50k-edge RMAT
graph, the vectorized DNE one-hop kernel and the vectorized selection
plane (segmented boundary store + enumerated multicast, and the
boundary fold, at the paper's 64-machine scale-out regime) must each
beat their per-pair reference by a comfortable margin (the full bench
shows >4×, the fold ~3×; asserting 2× keeps the tests robust to noisy
CI boxes), and every kernel pair must agree on its outputs.

The full trajectory lives in ``BENCH_kernels.json`` (regenerate with
``python -m repro bench perf``).
"""

import os

import numpy as np
import pytest

from repro.bench.perf import (
    bench_all_gather_sum,
    bench_allocation_phases,
    bench_csr_build,
    bench_dne_end_to_end,
    bench_engine_gathers,
    bench_graph,
    bench_observability_overhead,
    bench_selection_phase,
    bench_serving_lookup,
    bench_streaming_partitioner,
    bench_two_hop_conflict,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_edges


def _smoke_graph() -> CSRGraph:
    """~50k-edge RMAT graph (2^13 vertices, EF 8, before dedup 65k)."""
    return CSRGraph(rmat_edges(13, 8, seed=0))


def test_one_hop_vectorized_at_least_2x():
    graph = _smoke_graph()
    assert graph.num_edges > 40_000
    py_one, py_two = bench_allocation_phases(graph, 8, "python")
    vec_one, vec_two = bench_allocation_phases(graph, 8, "vectorized")
    assert vec_one > 0 and vec_two > 0
    assert py_one >= 2.0 * vec_one, (
        f"one-hop speedup regressed: python {py_one:.3f}s vs "
        f"vectorized {vec_one:.3f}s ({py_one / vec_one:.2f}x < 2x)")


def test_two_hop_conflict_vectorized_at_least_2x():
    """Conflict-heavy two-hop (the loads-delta batching regime): the
    full bench shows ~5x; 2x keeps the floor robust to noisy boxes."""
    graph = _smoke_graph()
    py = bench_two_hop_conflict(graph, 8, "python")
    vec = bench_two_hop_conflict(graph, 8, "vectorized")
    assert vec > 0
    assert py >= 2.0 * vec, (
        f"two-hop conflict speedup regressed: python {py:.3f}s vs "
        f"vectorized {vec:.3f}s ({py / vec:.2f}x < 2x)")


def test_selection_vectorized_at_least_2x():
    """The selection/boundary plane (§7.4's scale-out bottleneck) at
    |P| = 64: one segmented boundary store + enumerated multicast vs
    heapq + tuple lists, and the boundary fold as one store insert vs
    a dict accumulator (~3x here; it sat under 2x while the fold ran
    one array-queue insert per expander)."""
    graph = _smoke_graph()
    py_sel, py_fold = bench_selection_phase(graph, 64, "python")
    vec_sel, vec_fold = bench_selection_phase(graph, 64, "vectorized")
    assert vec_sel > 0 and vec_fold > 0
    assert py_sel >= 2.0 * vec_sel, (
        f"selection speedup regressed: python {py_sel:.3f}s vs "
        f"vectorized {vec_sel:.3f}s ({py_sel / vec_sel:.2f}x < 2x)")
    assert py_fold >= 2.0 * vec_fold, (
        f"boundary-fold speedup regressed: python {py_fold:.3f}s vs "
        f"vectorized {vec_fold:.3f}s ({py_fold / vec_fold:.2f}x < 2x)")


def test_streaming_rows_vectorized_at_least_2x():
    """The streaming-baseline zoo on the shared chunked-scoring
    substrate at the Table-4/5 sweep width (|P| = 64): the full bench
    shows ~2.5-3.5x for HDRF/FENNEL; 2x keeps the floor robust."""
    graph = _smoke_graph()
    for name in ("hdrf", "fennel"):
        py = bench_streaming_partitioner(name, graph, 64, "python")
        vec = bench_streaming_partitioner(name, graph, 64, "vectorized")
        assert vec > 0
        assert py >= 2.0 * vec, (
            f"{name} streaming speedup regressed: python {py:.3f}s vs "
            f"vectorized {vec:.3f}s ({py / vec:.2f}x < 2x)")


def test_streaming_wide_partitions_vectorized_at_least_2x():
    """|P| = 256 weak-scaling row: packed-bitset membership end-to-end
    against the reference's per-edge O(|P|) set probes (full bench
    shows ~8x; 2x floor)."""
    graph = CSRGraph(rmat_edges(11, 8, seed=0))
    py = bench_streaming_partitioner("hdrf", graph, 256, "python")
    vec = bench_streaming_partitioner("hdrf", graph, 256, "vectorized")
    assert vec > 0
    assert py >= 2.0 * vec, (
        f"hdrf |P|=256 speedup regressed: python {py:.3f}s vs "
        f"vectorized {vec:.3f}s ({py / vec:.2f}x < 2x)")


def test_dne_p256_end_to_end_at_least_2x():
    """End-to-end DNE at the |P| = 256 weak-scaling width (the bench's
    ``dne_p256`` row at edge scale 14): fused cross-partition phase
    dispatch must beat the python reference.  This was the |P| ≫ 64
    crossover where per-process dispatch lost to the reference (0.48x);
    the fused plane shows ~2.7x in the full bench, 2x keeps the floor
    robust to noisy boxes."""
    graph = CSRGraph(rmat_edges(11, 8, seed=0))
    py = bench_dne_end_to_end(graph, 256, "python")
    vec = bench_dne_end_to_end(graph, 256, "vectorized")
    assert vec > 0
    assert py >= 2.0 * vec, (
        f"dne_p256 speedup regressed: python {py:.3f}s vs "
        f"vectorized {vec:.3f}s ({py / vec:.2f}x < 2x)")


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
    sim = bench_dne_end_to_end(graph, 256, "vectorized")
    thr = bench_dne_end_to_end(graph, 256, "vectorized",
                               backend="threads", workers=workers)
    assert sim > 0
    assert thr <= 1.5 * sim, (
        f"threads backend floor regressed: simulated {sim:.3f}s vs "
        f"threads {thr:.3f}s ({thr / sim:.2f}x > 1.5x)")


def test_serving_lookup_vectorized_at_least_2x_and_serves():
    """The partition-serving read path: the vectorized bulk vertex
    lookup (one ``adjacency_slots`` gather over the replica CSR) must
    beat the per-vertex python reference (full bench shows >10x; 2x
    floor), and the live asyncio server must absorb the concurrent
    hammer with zero non-200 responses."""
    graph = CSRGraph(rmat_edges(12, 8, seed=0))
    py, vec, http_stats = bench_serving_lookup(
        graph, 8, rounds=3, batch=4096, concurrency=4,
        requests_per_client=16, bulk=64, seed=0)
    assert vec > 0
    assert py >= 2.0 * vec, (
        f"serving bulk-lookup speedup regressed: python {py:.3f}s vs "
        f"vectorized {vec:.3f}s ({py / vec:.2f}x < 2x)")
    assert http_stats["http_errors"] == 0
    assert http_stats["http_lookups_per_sec"] > 0
    # generous ceiling: the full bench shows p99 ≈ 5-10ms for
    # bulk-64 lookups; 250ms only trips on a real serving stall
    assert 0 < http_stats["http_p99_ms"] < 250, http_stats


def test_observability_overhead_under_bound():
    """Tracing must be near-free: the full bench pins the traced
    ``dne_p256`` run within ~5% of untraced; at smoke scale individual
    runs are sub-second and scheduler jitter alone exceeds 5%, so the
    floor here is a noise-tolerant 1.25x — it trips on a hot-path
    regression (e.g. per-message metric calls), not on a noisy box."""
    graph = CSRGraph(rmat_edges(11, 8, seed=0))
    t_off, t_on = bench_observability_overhead(graph, 256, repeats=3)
    assert t_off > 0 and t_on > 0
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
    against the full-2m-argsort reference at the bench's top scale,
    min of 3: the full bench shows ~2.3x; a build that only ties its
    reference has not earned its keep, so the floor is above 1."""
    edges = bench_graph(17).edges
    assert len(edges) > 100_000
    py = min(bench_csr_build(edges, "python", rounds=1) for _ in range(3))
    vec = min(bench_csr_build(edges, "vectorized", rounds=1)
              for _ in range(3))
    assert vec > 0
    assert py >= 1.2 * vec, (
        f"csr_build speedup regressed: reference {py:.4f}s vs "
        f"vectorized {vec:.4f}s ({py / vec:.2f}x < 1.2x)")


def test_remaining_kernels_run():
    """Every benched kernel pair executes at a tiny scale."""
    graph = CSRGraph(rmat_edges(9, 6, seed=1))
    for kernel in ("python", "vectorized"):
        t_sum, t_min = bench_engine_gathers(graph, 4, kernel, rounds=1)
        assert t_sum >= 0 and t_min >= 0
        assert bench_all_gather_sum(4, kernel, rounds=2) >= 0


def test_allocation_outputs_agree_on_smoke_graph():
    """The timed kernels must also agree — speed without drift."""
    from repro.core.distributed_ne import DistributedNE
    graph = CSRGraph(rmat_edges(9, 6, seed=3))
    a = DistributedNE(4, seed=0).partition(graph)
    b = DistributedNE(4, seed=0, kernel="python").partition(graph)
    assert np.array_equal(a.assignment, b.assignment)
