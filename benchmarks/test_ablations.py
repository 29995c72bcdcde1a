"""Ablation benches for design choices the paper argues for.

Not in the paper's evaluation, but each isolates one design decision
the paper argues for in prose:

* two-hop allocation (Condition 5) — the "free edges" rule;
* 2D vs 1D initial placement — computable replica metadata and bounded
  sync fan-out;
* random vs min-degree seed vertices.
"""

import pytest

from repro.bench.experiments import (
    ablation_placement,
    ablation_seed_strategy,
    ablation_two_hop,
)
from repro.bench.harness import format_table
from repro.graph import load_dataset

from conftest import run_once


@pytest.fixture(scope="module")
def graph():
    return load_dataset("pokec")


def test_ablation_two_hop(benchmark, record, graph):
    rows = run_once(benchmark, ablation_two_hop, graph, num_partitions=16)
    record("ablation_two_hop", rows)
    print("\n" + format_table(
        ["two_hop", "RF", "iterations"],
        [[r["two_hop"], r["replication_factor"], r["iterations"]]
         for r in rows], title="Ablation: two-hop allocation"))
    by = {r["two_hop"]: r for r in rows}
    # Condition 5 never hurts quality (it only allocates free edges).
    assert (by[True]["replication_factor"]
            <= by[False]["replication_factor"] + 0.05)


def test_ablation_placement(benchmark, record, graph):
    rows = run_once(benchmark, ablation_placement, graph,
                    num_partitions=16)
    record("ablation_placement", rows)
    print("\n" + format_table(
        ["placement", "RF", "bytes", "messages"],
        [[r["placement"], r["replication_factor"], r["total_bytes"],
          r["total_messages"]] for r in rows],
        title="Ablation: initial placement"))
    by = {r["placement"]: r for r in rows}
    # 2D placement bounds the multicast/sync fan-out.
    assert by["2d"]["total_messages"] < by["1d"]["total_messages"]
    # Quality is placement-insensitive (it only affects distribution).
    assert (abs(by["2d"]["replication_factor"]
                - by["1d"]["replication_factor"]) < 0.6)


def test_ablation_seed_strategy(benchmark, record, graph):
    rows = run_once(benchmark, ablation_seed_strategy, graph,
                    num_partitions=16)
    record("ablation_seed", rows)
    print("\n" + format_table(
        ["seed strategy", "RF", "iterations"],
        [[r["seed_strategy"], r["replication_factor"], r["iterations"]]
         for r in rows], title="Ablation: seed-vertex strategy"))
    rf = {r["seed_strategy"]: r["replication_factor"] for r in rows}
    # Both must produce sane partitions; min-degree seeding tends to
    # start expansions in the graph's periphery and is usually at least
    # as good on skewed graphs.
    assert rf["min_degree"] < rf["random"] * 1.2
