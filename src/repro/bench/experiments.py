"""Per-figure / per-table experiment drivers.

One function per experiment in the paper's evaluation (the index is
``repro experiment``'s table, ``cli._EXPERIMENTS``).  Each driver returns structured rows *and* can render a
paper-style table via the harness formatters; the ``benchmarks/``
pytest-benchmark suite calls these with scaled-down parameters, and the
examples call them interactively.

Scaling note: every driver takes explicit graph/partition parameters so
callers choose the scale; defaults are laptop-sized versions of the
paper's setup (the stand-in datasets are ~10^4–10^5 edges instead of
10^7–10^9; the trillion-edge weak-scaling run becomes a
Scale14→Scale18 sweep).
"""

from __future__ import annotations


from repro.apps import pagerank, sssp, wcc
from repro.bench.harness import (
    QUALITY_METHODS,
    TABLE5_METHODS,
    TABLE6_METHODS,
    mem_score,
    run_method,
)
from repro.core import DistributedNE
from repro.graph.csr import CSRGraph
from repro.graph.datasets import ROAD_DATASETS, SKEWED_DATASETS
from repro.graph.generators import ring_plus_complete, rmat_edges
from repro.metrics.bounds import (
    PAPER_TABLE1,
    TABLE1_ALPHAS,
    table1_rows,
    theorem1_upper_bound,
    theorem2_construction_rf,
)

__all__ = [
    "fig6_lambda_sweep",
    "table1_bounds",
    "theorem2_tightness",
    "fig8_replication_factor",
    "fig8_rmat_replication",
    "fig9_memory",
    "fig10_elapsed_time",
    "fig10h_edge_factor_sweep",
    "fig10i_scale_sweep",
    "fig10j_weak_scaling",
    "table4_sequential_comparison",
    "table5_applications",
    "table6_road_networks",
    "ablation_two_hop",
    "ablation_placement",
    "ablation_seed_strategy",
]


# ---------------------------------------------------------------------------
# Figure 6 — iterations and RF vs the expansion factor lambda
# ---------------------------------------------------------------------------

def fig6_lambda_sweep(graph: CSRGraph, num_partitions: int = 32,
                      lams=(1e-3, 1e-2, 1e-1, 1.0), seed: int = 0) -> list[dict]:
    """Sweep λ; the paper's trend is iterations ↓ linearly with λ while
    RF stays flat until λ→1, where it degrades."""
    rows = []
    for lam in lams:
        result = DistributedNE(num_partitions, seed=seed, lam=lam).partition(graph)
        rows.append({
            "lambda": lam,
            "iterations": result.iterations,
            "replication_factor": result.replication_factor(),
        })
    return rows


# ---------------------------------------------------------------------------
# Table 1 — theoretical bounds on power-law graphs
# ---------------------------------------------------------------------------

def table1_bounds(num_partitions: int = 256, model: str = "pareto-mean",
                  max_degree: int = 200_000) -> list[dict]:
    """Computed bound rows next to the paper's reported values."""
    computed = table1_rows(TABLE1_ALPHAS, num_partitions, model=model,
                           max_degree=max_degree)
    rows = []
    for method, values in computed.items():
        rows.append({
            "method": method,
            "alphas": TABLE1_ALPHAS,
            "computed": values,
            "paper": PAPER_TABLE1[method],
        })
    return rows


# ---------------------------------------------------------------------------
# Theorem 2 — tightness of the bound on ring+complete
# ---------------------------------------------------------------------------

def theorem2_tightness(ns=(4, 6, 8, 12, 16), seed: int = 0,
                       measure: bool = True) -> list[dict]:
    """RF/UB ratio of the adversarial construction tends to 1.

    ``measure=True`` additionally runs Distributed NE on the
    construction with ``|P| = n(n-1)/2`` and checks its measured RF
    stays at or below the bound (the theorem is existential: the
    measured greedy usually does *better* than the adversarial
    schedule).
    """
    rows = []
    for n in ns:
        rf_adv, ub = theorem2_construction_rf(n)
        row = {"n": n, "adversarial_rf": rf_adv, "upper_bound": ub,
               "ratio": rf_adv / ub}
        if measure:
            edges = ring_plus_complete(n)
            graph = CSRGraph(edges)
            p = n * (n - 1) // 2
            result = DistributedNE(p, seed=seed, lam=1e-9).partition(graph)
            row["measured_rf"] = result.replication_factor()
            row["measured_le_bound"] = bool(
                result.replication_factor()
                <= theorem1_upper_bound(graph.num_vertices, graph.num_edges,
                                        p) + 1e-9)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 8 — replication factor across methods / datasets / |P|
# ---------------------------------------------------------------------------

def fig8_replication_factor(datasets=("pokec", "flickr"),
                            methods=QUALITY_METHODS,
                            partition_counts=(4, 8, 16, 32, 64),
                            seed: int = 0,
                            dataset_seed: int = 0) -> list[dict]:
    """RF per (dataset, method, |P|) — the panels of Figure 8(a–g)."""
    rows = []
    for ds in datasets:
        graph = CSRGraph(SKEWED_DATASETS[ds].generate(seed=dataset_seed))
        for p in partition_counts:
            for method in methods:
                result = run_method(method, graph, p, seed=seed)
                rows.append({
                    "dataset": ds,
                    "method": method,
                    "partitions": p,
                    "replication_factor": result.replication_factor(),
                })
    return rows


def fig8_rmat_replication(scales=(10, 11, 12), edge_factors=(4, 8, 16),
                          methods=("grid", "xtrapulp", "distributed_ne"),
                          num_partitions: int = 16, seed: int = 0) -> list[dict]:
    """Figure 8(h–j): RF vs edge factor across RMAT scales.

    Paper trends: RF grows with edge factor and is nearly constant
    across scales at a fixed edge factor.
    """
    rows = []
    for scale in scales:
        for ef in edge_factors:
            graph = CSRGraph(rmat_edges(scale, ef, seed=seed))
            for method in methods:
                result = run_method(method, graph, num_partitions, seed=seed)
                rows.append({
                    "scale": scale,
                    "edge_factor": ef,
                    "method": method,
                    "replication_factor": result.replication_factor(),
                })
    return rows


# ---------------------------------------------------------------------------
# Figure 9 — memory consumption (mem score)
# ---------------------------------------------------------------------------

def fig9_memory(datasets=("pokec", "livejournal"),
                methods=("metis_like", "sheep", "xtrapulp", "distributed_ne"),
                num_partitions: int = 16, seed: int = 0) -> list[dict]:
    """Mem score (peak bytes / edge) per method; the paper's claim is an
    order-of-magnitude advantage for Distributed NE."""
    rows = []
    for ds in datasets:
        graph = CSRGraph(SKEWED_DATASETS[ds].generate(seed=seed))
        for method in methods:
            result = run_method(method, graph, num_partitions, seed=seed)
            rows.append({
                "dataset": ds,
                "method": method,
                "mem_score_bytes_per_edge": mem_score(result),
            })
    return rows


# ---------------------------------------------------------------------------
# Figure 10 — elapsed time
# ---------------------------------------------------------------------------

def fig10_elapsed_time(datasets=("pokec",),
                       methods=("metis_like", "sheep", "xtrapulp",
                                "distributed_ne"),
                       partition_counts=(4, 8, 16), seed: int = 0) -> list[dict]:
    """Partitioning elapsed time per (dataset, method, machines).

    ``elapsed_seconds`` is single-process wall clock.  For Distributed
    NE — whose |P| machines run *serialised* in the simulator —
    ``parallel_seconds`` additionally reports the simulated parallel
    time (per iteration, the slowest process defines each phase's
    cost), which is the like-for-like quantity against the paper's
    cluster wall clock.  For the single-machine baselines the two
    coincide.
    """
    rows = []
    for ds in datasets:
        graph = CSRGraph(SKEWED_DATASETS[ds].generate(seed=seed))
        for p in partition_counts:
            for method in methods:
                result = run_method(method, graph, p, seed=seed)
                parallel = result.elapsed_seconds
                if method == "distributed_ne":
                    parallel = (result.extra["parallel_selection_seconds"]
                                + result.extra["parallel_allocation_seconds"])
                rows.append({
                    "dataset": ds,
                    "method": method,
                    "partitions": p,
                    "elapsed_seconds": result.elapsed_seconds,
                    "parallel_seconds": parallel,
                })
    return rows


def fig10h_edge_factor_sweep(scale: int = 10,
                             edge_factors=(4, 8, 16, 32),
                             methods=("xtrapulp", "distributed_ne"),
                             num_partitions: int = 16,
                             seed: int = 0) -> list[dict]:
    """Figure 10(h): elapsed time vs edge factor at fixed scale."""
    rows = []
    for ef in edge_factors:
        graph = CSRGraph(rmat_edges(scale, ef, seed=seed))
        for method in methods:
            result = run_method(method, graph, num_partitions, seed=seed)
            rows.append({
                "edge_factor": ef,
                "method": method,
                "elapsed_seconds": result.elapsed_seconds,
                "edges": graph.num_edges,
            })
    return rows


def fig10i_scale_sweep(scales=(9, 10, 11), edge_factor: int = 16,
                       methods=("xtrapulp", "distributed_ne"),
                       num_partitions: int = 16, seed: int = 0) -> list[dict]:
    """Figure 10(i): elapsed time vs scale at fixed edge factor."""
    rows = []
    for scale in scales:
        graph = CSRGraph(rmat_edges(scale, edge_factor, seed=seed))
        for method in methods:
            result = run_method(method, graph, num_partitions, seed=seed)
            rows.append({
                "scale": scale,
                "method": method,
                "elapsed_seconds": result.elapsed_seconds,
                "edges": graph.num_edges,
            })
    return rows


def fig10j_weak_scaling(base_scale: int = 12, edge_factor: int = 16,
                        machine_counts=(4, 16, 64), seed: int = 0,
                        kernel: str = "vectorized") -> list[dict]:
    """Figure 10(j): weak scaling toward the trillion-edge setup.

    Paper protocol scaled down: vertices per machine fixed at
    ``2**base_scale / 4`` analogue — each 4x in machines raises the
    RMAT scale by 2, keeping vertices/machine constant.  The paper's
    observations: elapsed time grows ~linearly with machines, and the
    vertex-selection phase's share of runtime grows (<1% at 4 machines
    to 30.3% at 256).

    Wall-clock shares in a Python simulator are max-of-samples
    statistics and noisy; the deterministic ``selection_share_model``
    (per-iteration maxima of multicast ⟨vertex, replica⟩ pairs vs
    adjacency slots touched, identical under both kernels) carries the
    share-growth observation, driven structurally by the O(sqrt |P|)
    replica fan-out per selected vertex.  The wall-clock share rides
    along for the record; under the default vectorized kernel the
    batched selection plane keeps it flat at these scales — the PR-2
    outcome attacking exactly that bottleneck.
    """
    rows = []
    for i, machines in enumerate(machine_counts):
        scale = base_scale + 2 * i
        graph = CSRGraph(rmat_edges(scale, edge_factor, seed=seed))
        result = DistributedNE(machines, seed=seed,
                               kernel=kernel).partition(graph)
        rows.append({
            "machines": machines,
            "scale": scale,
            "edges": graph.num_edges,
            "elapsed_seconds": result.elapsed_seconds,
            "selection_share": result.extra["selection_share"],
            "selection_share_model": result.extra["selection_share_model"],
            "iterations": result.iterations,
        })
    return rows


# ---------------------------------------------------------------------------
# Table 4 — sequential / streaming comparison
# ---------------------------------------------------------------------------

def table4_sequential_comparison(datasets=("pokec", "flickr", "livejournal",
                                           "orkut"),
                                 num_partitions: int = 64,
                                 seed: int = 0) -> list[dict]:
    """HDRF / NE / SNE / Distributed NE: RF and elapsed time."""
    methods = ("hdrf", "ne", "sne", "distributed_ne")
    rows = []
    for ds in datasets:
        graph = CSRGraph(SKEWED_DATASETS[ds].generate(seed=seed))
        for method in methods:
            result = run_method(method, graph, num_partitions, seed=seed)
            rows.append({
                "dataset": ds,
                "method": method,
                "replication_factor": result.replication_factor(),
                "elapsed_seconds": result.elapsed_seconds,
            })
    return rows


# ---------------------------------------------------------------------------
# Table 5 — application performance over partitionings
# ---------------------------------------------------------------------------

def table5_applications(datasets=("pokec",), methods=TABLE5_METHODS,
                        num_partitions: int = 16,
                        pagerank_iterations: int = 10,
                        seed: int = 0) -> list[dict]:
    """RF/EB/VB plus SSSP/WCC/PageRank ET/COM/WB per method."""
    rows = []
    for ds in datasets:
        graph = CSRGraph(SKEWED_DATASETS[ds].generate(seed=seed))
        source = int(graph.edges[0, 0])
        for method in methods:
            part = run_method(method, graph, num_partitions, seed=seed)
            row = {
                "dataset": ds,
                "method": method,
                "rf": part.replication_factor(),
                "eb": part.edge_balance(),
                "vb": part.vertex_balance(),
            }
            _, s = sssp(part, source=source, seed=seed)
            row.update(sssp_et=s.elapsed_seconds, sssp_com=s.comm_bytes,
                       sssp_wb=s.workload_balance())
            _, s = wcc(part, seed=seed)
            row.update(wcc_et=s.elapsed_seconds, wcc_com=s.comm_bytes,
                       wcc_wb=s.workload_balance())
            _, s = pagerank(part, iterations=pagerank_iterations, seed=seed)
            row.update(pr_et=s.elapsed_seconds, pr_com=s.comm_bytes,
                       pr_wb=s.workload_balance())
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Table 6 — road networks (non-skewed control)
# ---------------------------------------------------------------------------

def table6_road_networks(datasets=("roadnet-ca", "roadnet-pa", "roadnet-tx"),
                         methods=TABLE6_METHODS, num_partitions: int = 16,
                         seed: int = 0) -> list[dict]:
    """RF of all methods on the road-network stand-ins."""
    rows = []
    for ds in datasets:
        graph = CSRGraph(ROAD_DATASETS[ds].generate(seed=seed))
        for method in methods:
            result = run_method(method, graph, num_partitions, seed=seed)
            rows.append({
                "dataset": ds,
                "method": method,
                "replication_factor": result.replication_factor(),
            })
    return rows


# ---------------------------------------------------------------------------
# Ablations (benchmarks/test_ablations.py)
# ---------------------------------------------------------------------------

def ablation_two_hop(graph: CSRGraph, num_partitions: int = 16,
                     seed: int = 0) -> list[dict]:
    """Condition 5 on/off: the two-hop phase should improve RF."""
    rows = []
    for two_hop in (True, False):
        result = DistributedNE(num_partitions, seed=seed,
                               two_hop=two_hop).partition(graph)
        rows.append({
            "two_hop": two_hop,
            "replication_factor": result.replication_factor(),
            "iterations": result.iterations,
        })
    return rows


def ablation_placement(graph: CSRGraph, num_partitions: int = 16,
                       seed: int = 0) -> list[dict]:
    """2D vs 1D initial placement: sync fan-out and bytes moved."""
    rows = []
    for placement in ("2d", "1d"):
        result = DistributedNE(num_partitions, seed=seed,
                               placement=placement).partition(graph)
        rows.append({
            "placement": placement,
            "replication_factor": result.replication_factor(),
            "total_bytes": result.extra["cluster"]["total_bytes"],
            "total_messages": result.extra["cluster"]["total_messages"],
        })
    return rows


def ablation_seed_strategy(graph: CSRGraph, num_partitions: int = 16,
                           seed: int = 0) -> list[dict]:
    """Random (paper) vs min-degree seed vertices."""
    rows = []
    for strategy in ("random", "min_degree"):
        result = DistributedNE(num_partitions, seed=seed,
                               seed_strategy=strategy).partition(graph)
        rows.append({
            "seed_strategy": strategy,
            "replication_factor": result.replication_factor(),
            "iterations": result.iterations,
        })
    return rows
