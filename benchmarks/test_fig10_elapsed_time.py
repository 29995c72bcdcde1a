"""Figure 10(a–i) — partitioning elapsed time.

Absolute times are substrate-specific (our substrate is a Python
simulator, the paper's is a 256-node MPI cluster); the reproducible
claims are *relative*:

* (a–g) Distributed NE is faster than the multilevel (ParMETIS-like)
  method and competitive with the label-propagation one (XtraPuLP);
* (h) elapsed time grows with edge factor for every method;
* (i) elapsed time grows with scale at fixed edge factor, with similar
  rates across methods.
"""


from repro.bench.experiments import (
    fig10_elapsed_time,
    fig10h_edge_factor_sweep,
    fig10i_scale_sweep,
)
from repro.bench.harness import format_table

from conftest import run_once


def test_fig10_real_world(benchmark, record):
    rows = run_once(benchmark, fig10_elapsed_time,
                    datasets=("pokec", "flickr"),
                    methods=("metis_like", "sheep", "xtrapulp",
                             "distributed_ne"),
                    partition_counts=(4, 16))
    record("fig10_real", rows)

    print("\n" + format_table(
        ["dataset", "P", "method", "wall s", "parallel s"],
        [[r["dataset"], r["partitions"], r["method"], r["elapsed_seconds"],
          r["parallel_seconds"]] for r in rows],
        title="Figure 10(a-g): partitioning time"))

    for ds in ("pokec", "flickr"):
        for p in (4, 16):
            wall = {r["method"]: r["elapsed_seconds"] for r in rows
                    if r["dataset"] == ds and r["partitions"] == p}
            par = {r["method"]: r["parallel_seconds"] for r in rows
                   if r["dataset"] == ds and r["partitions"] == p}
            # D.NE's simulated parallel time beats the multilevel
            # method's wall time (the paper's 9.1x is on MPI; our
            # simulator serialises D.NE's |P| machines, so parallel
            # time is the like-for-like quantity).
            assert par["distributed_ne"] < wall["metis_like"], (ds, p)
            # And stays within a small factor of the LP-based method
            # ("comparable to XtraPuLP").
            assert par["distributed_ne"] < 6 * wall["xtrapulp"], (ds, p)


def test_fig10h_edge_factor(benchmark, record):
    # Scale 13, EF 4->64 (scale 10, EF 4->32 was enough
    # pre-vectorization; the flat-array kernels flattened DNE's curve
    # below ~10^5 edges, where fixed per-iteration overhead dominates,
    # so the sweep spans a wider edge-count range to keep growth
    # timing-robust).
    rows = run_once(benchmark, fig10h_edge_factor_sweep,
                    scale=13, edge_factors=(4, 16, 64),
                    methods=("xtrapulp", "distributed_ne"),
                    num_partitions=16)
    record("fig10h", rows)
    print("\n" + format_table(
        ["EF", "method", "seconds", "edges"],
        [[r["edge_factor"], r["method"], r["elapsed_seconds"], r["edges"]]
         for r in rows], title="Figure 10(h): time vs edge factor"))

    for method in ("xtrapulp", "distributed_ne"):
        series = [r["elapsed_seconds"] for r in rows
                  if r["method"] == method]
        assert series[-1] > series[0], method  # grows with EF


def test_fig10i_scale(benchmark, record):
    # Scales 9->13 (one-scale steps were enough pre-vectorization;
    # the flat-array kernels flattened DNE's curve below ~10^5 edges,
    # where fixed per-iteration overhead dominates, so the sweep now
    # spans 4x-per-step edge counts to keep growth timing-robust).
    rows = run_once(benchmark, fig10i_scale_sweep,
                    scales=(9, 11, 13), edge_factor=16,
                    methods=("xtrapulp", "distributed_ne"),
                    num_partitions=16)
    record("fig10i", rows)
    print("\n" + format_table(
        ["scale", "method", "seconds", "edges"],
        [[r["scale"], r["method"], r["elapsed_seconds"], r["edges"]]
         for r in rows], title="Figure 10(i): time vs scale"))

    for method in ("xtrapulp", "distributed_ne"):
        series = [r["elapsed_seconds"] for r in rows
                  if r["method"] == method]
        assert series[-1] > series[0], method  # grows with scale
