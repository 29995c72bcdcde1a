"""Table 1 — theoretical replication-factor bounds on power-law graphs.

Paper (256 partitions, alpha = 2.2 / 2.4 / 2.6 / 2.8):

    Random (1D-hash)   5.88  3.46  2.64  2.23
    Grid (2D-hash)     4.82  3.13  2.47  2.13
    DBH                5.54  3.19  2.42  2.05
    Distributed NE     2.88  2.12  1.88  1.75

Our zeta-form evaluation reproduces the Distributed NE row exactly and
the Random row to ~1.5%.  Grid uses the 2*sqrt(p)-1 constrained-set
closed form (within 13% of the paper, ordering preserved); the DBH row
is a tighter mean-field estimate (the methodological note is the
docstring of ``repro.metrics.bounds.dbh_expected_bound_powerlaw``).
"""

import pytest

from repro.bench.experiments import table1_bounds
from repro.bench.harness import format_table
from repro.metrics.bounds import TABLE1_ALPHAS

from conftest import run_once


def test_table1_bounds(benchmark, record):
    rows = run_once(benchmark, table1_bounds, num_partitions=256,
                    max_degree=200_000)
    record("table1", rows)

    table_rows = []
    for r in rows:
        table_rows.append([r["method"]]
                          + [f"{v:.2f}" for v in r["computed"]]
                          + [f"{v:.2f}" for v in r["paper"]])
    print("\n" + format_table(
        ["method"] + [f"a={a} (ours)" for a in TABLE1_ALPHAS]
        + [f"a={a} (paper)" for a in TABLE1_ALPHAS],
        table_rows, title="Table 1: expected RF upper bounds, |P|=256"))

    by = {r["method"]: r for r in rows}
    dne = by["Distributed NE"]
    rand = by["Random (1D-hash)"]
    grid = by["Grid (2D-hash)"]

    # D.NE row matches the paper to 2 decimals.
    for got, want in zip(dne["computed"], dne["paper"]):
        assert got == pytest.approx(want, abs=0.01)
    # Random row within 2%.
    for got, want in zip(rand["computed"], rand["paper"]):
        assert got == pytest.approx(want, rel=0.02)
    # Orderings the paper claims: D.NE best everywhere; Grid < Random.
    for i in range(len(TABLE1_ALPHAS)):
        assert dne["computed"][i] < grid["computed"][i]
        assert dne["computed"][i] < rand["computed"][i]
        assert grid["computed"][i] < rand["computed"][i]
