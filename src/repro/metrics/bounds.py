"""Theoretical bounds from §6 of the paper.

Three groups of results are implemented:

* **Theorem 1** — the replication-factor upper bound of Distributed NE
  on arbitrary graphs: ``RF <= (|E| + |V| + |P|) / |V|``.
* **Table 1** — expected upper bounds on power-law graphs with the
  Clauset et al. degree model ``Pr[d] = d^-alpha / zeta(alpha)``
  (minimum degree 1):

  - Distributed NE: ``E[UB] ~= E[|E|/|V|] + 1
    = zeta(alpha-1) / (2 zeta(alpha)) + 1`` — reproduces the paper's
    row exactly.
  - Random (1D hash), Grid (2D hash), DBH: the formulas of Xie et
    al. [49].  Two evaluation models are provided.  ``model="pareto-mean"``
    plugs the continuous Pareto mean degree ``m = (alpha-1)/(alpha-2)``
    into the closed forms, which is how the paper's Random row was
    evidently produced (it matches to ~1%; the paper does not show its
    arithmetic).  ``model="discrete"`` takes the exact expectation over
    the truncated discrete zeta pmf — tighter, and useful for checking
    the formulas against simulated hash partitioners.

* **Theorem 3** — the per-computing-unit local time bound
  ``O(d |E| (|P| + d) / (n |P|))``.

All discrete power-law expectations truncate the degree support at
``max_degree`` (default 10^6); with ``alpha > 2`` the neglected tail is
below 1e-6 of the total mass.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "theorem1_upper_bound",
    "theorem2_construction_rf",
    "theorem3_local_time_bound",
    "riemann_zeta",
    "powerlaw_degree_pmf",
    "dne_expected_bound_powerlaw",
    "random_expected_bound_powerlaw",
    "grid_expected_bound_powerlaw",
    "dbh_expected_bound_powerlaw",
    "table1_rows",
]

_DEFAULT_MAX_DEGREE = 1_000_000


def theorem1_upper_bound(num_vertices: int, num_edges: int,
                         num_partitions: int) -> float:
    """Theorem 1: ``RF <= (|E| + |V| + |P|) / |V|``."""
    if num_vertices <= 0:
        raise ValueError("num_vertices must be positive")
    return (num_edges + num_vertices + num_partitions) / num_vertices


def theorem2_construction_rf(n: int) -> tuple[float, float]:
    """Worst-case RF and UB for the ring+complete construction.

    For K_n plus a ring of ``n(n-1)/2`` vertices partitioned into
    ``|P| = n(n-1)/2`` parts, the adversarial schedule in the Theorem 2
    proof yields ``RF = 2n(n-1)/|V|`` against
    ``UB = (2n(n-1) + n)/|V|``; their ratio tends to 1.

    Returns ``(rf, ub)``.
    """
    if n < 3:
        raise ValueError("construction needs n >= 3")
    num_vertices = n * (n - 1) // 2 + n
    rf = 2.0 * n * (n - 1) / num_vertices
    ub = (2.0 * n * (n - 1) + n) / num_vertices
    return rf, ub


def theorem3_local_time_bound(max_degree: int, num_edges: int,
                              num_partitions: int, num_units: int) -> float:
    """Theorem 3: worst-case local work per computing unit.

    ``O(d |E| (|P| + d) / (n |P|))`` — returned without the hidden
    constant; useful for asserting the *scaling* of measured operation
    counts.
    """
    if min(max_degree, num_edges, num_partitions, num_units) <= 0:
        raise ValueError("all arguments must be positive")
    return (max_degree * num_edges * (num_partitions + max_degree)
            / (num_units * num_partitions))


# ---------------------------------------------------------------------------
# Power-law machinery
# ---------------------------------------------------------------------------

def riemann_zeta(s: float, max_terms: int = _DEFAULT_MAX_DEGREE) -> float:
    """Riemann zeta by direct summation plus an integral tail estimate.

    Accurate to ~1e-9 for ``s > 1`` with the default term count; avoids
    a scipy dependency in the core package.
    """
    if s <= 1.0:
        raise ValueError("zeta(s) diverges for s <= 1")
    d = np.arange(1, max_terms + 1, dtype=np.float64)
    head = float(np.sum(d ** (-s)))
    # Euler–Maclaurin tail: integral + half-term correction.
    tail = max_terms ** (1.0 - s) / (s - 1.0) - 0.5 * max_terms ** (-s)
    return head + tail


def powerlaw_degree_pmf(alpha: float,
                        max_degree: int = _DEFAULT_MAX_DEGREE) -> np.ndarray:
    """Truncated pmf of ``Pr[d] = d^-alpha / zeta(alpha)``, d >= 1.

    Index 0 of the returned array corresponds to degree 1.
    """
    if alpha <= 1.0:
        raise ValueError("alpha must be > 1")
    d = np.arange(1, max_degree + 1, dtype=np.float64)
    w = d ** (-alpha)
    return w / w.sum()


def pareto_mean_degree(alpha: float) -> float:
    """Mean of the continuous Pareto power law with minimum degree 1.

    ``E[d] = (alpha - 1) / (alpha - 2)`` for ``alpha > 2`` — the
    evaluation point the paper's Table 1 arithmetic uses.
    """
    if alpha <= 2.0:
        raise ValueError("continuous Pareto mean requires alpha > 2")
    return (alpha - 1.0) / (alpha - 2.0)


def dne_expected_bound_powerlaw(alpha: float,
                                max_degree: int = _DEFAULT_MAX_DEGREE) -> float:
    """Distributed NE's expected Theorem 1 bound on a power-law graph.

    §6: ``E[UB] ~= E[|E|/|V|] + 1 = zeta(alpha-1)/(2 zeta(alpha)) + 1``
    (the |P|/|V| term vanishes for |V| >> |P|).
    """
    return (riemann_zeta(alpha - 1.0, max_degree)
            / (2.0 * riemann_zeta(alpha, max_degree))) + 1.0


def _expect_over_degrees(alpha: float, fn, model: str,
                         max_degree: int) -> float:
    """Evaluate ``E[fn(d)]`` under the chosen degree model.

    ``pareto-mean`` evaluates ``fn`` at the continuous Pareto mean
    (Jensen-style, the paper's apparent method); ``discrete`` takes the
    exact expectation over the truncated zeta pmf.
    """
    if model == "pareto-mean":
        return float(fn(np.float64(pareto_mean_degree(alpha))))
    if model == "discrete":
        pmf = powerlaw_degree_pmf(alpha, max_degree)
        d = np.arange(1, max_degree + 1, dtype=np.float64)
        return float(np.dot(pmf, fn(d)))
    raise ValueError(f"unknown degree model {model!r}")


def random_expected_bound_powerlaw(alpha: float, num_partitions: int,
                                   model: str = "pareto-mean",
                                   max_degree: int = _DEFAULT_MAX_DEGREE) -> float:
    """Expected RF of 1D random edge hashing (Xie et al., Theorem 1).

    Each of a degree-``d`` vertex's edges lands on a uniform partition:
    ``E[R | d] = p (1 - (1 - 1/p)^d)``, averaged over the power law.
    """
    p = float(num_partitions)
    return _expect_over_degrees(
        alpha, lambda d: p * (1.0 - (1.0 - 1.0 / p) ** d), model, max_degree)


def grid_expected_bound_powerlaw(alpha: float, num_partitions: int,
                                 model: str = "pareto-mean",
                                 max_degree: int = _DEFAULT_MAX_DEGREE) -> float:
    """Expected RF of 2D (grid) hashing (Xie et al.).

    A vertex's edges are constrained to its row+column of the
    ``sqrt(p) x sqrt(p)`` grid — ``2 sqrt(p) - 1`` candidate partitions:
    ``E[R | d] = s (1 - (1 - 1/s)^d)`` with ``s = 2 sqrt(p) - 1``.
    """
    s = 2.0 * float(np.sqrt(num_partitions)) - 1.0
    return _expect_over_degrees(
        alpha, lambda d: s * (1.0 - (1.0 - 1.0 / s) ** d), model, max_degree)


def dbh_expected_bound_powerlaw(alpha: float, num_partitions: int,
                                model: str = "pareto-mean",
                                max_degree: int = _DEFAULT_MAX_DEGREE) -> float:
    """Expected RF of degree-based hashing (mean-field, after Xie et al.).

    An edge is hashed by its lower-degree endpoint.  For a degree-``d``
    vertex, each neighbour independently has edge-biased degree
    ``Pr_nb[k] ∝ k Pr[k]``; with probability ``q(d) = Pr_nb[k >= d]``
    the edge is hashed by *this* vertex (landing on its fixed home
    partition), otherwise by the neighbour (landing uniformly)::

        E[R | d] <= (1 - (1 - q)^d)  +  p (1 - (1 - 1/p)^(d (1 - q)))

    This is a mean-field *estimate* rather than the loose closed-form
    upper bound the paper tabulates, so it comes out lower than the
    paper's DBH row (``benchmarks/test_table1_bounds.py`` prints both);
    the empirical DBH partitioner in :mod:`repro.partitioners.hashing`
    is the like-for-like comparison.
    """
    p = float(num_partitions)

    if model == "pareto-mean":
        m = pareto_mean_degree(alpha)
        # Edge-biased Pareto tail: Pr[nb degree >= d] = d^(2 - alpha).
        q = min(1.0, m ** (2.0 - alpha))
        own = 1.0 - (1.0 - q) ** m
        others = p * (1.0 - (1.0 - 1.0 / p) ** (m * (1.0 - q)))
        return own + others

    pmf = powerlaw_degree_pmf(alpha, max_degree)
    d = np.arange(1, max_degree + 1, dtype=np.float64)
    nb = d * pmf
    nb /= nb.sum()
    # tail[i] = Pr_nb[k >= d_i]; ties hash toward this vertex (upper bound).
    tail = np.concatenate([[1.0], 1.0 - np.cumsum(nb)[:-1]])
    q = np.clip(tail, 0.0, 1.0)
    own = 1.0 - (1.0 - q) ** d
    others = p * (1.0 - (1.0 - 1.0 / p) ** (d * (1.0 - q)))
    return float(np.dot(pmf, own + others))


#: The paper's reported Table 1 (256 partitions, alpha = 2.2/2.4/2.6/2.8),
#: kept verbatim so benches can print paper-vs-computed side by side.
PAPER_TABLE1 = {
    "Random (1D-hash)": [5.88, 3.46, 2.64, 2.23],
    "Grid (2D-hash)": [4.82, 3.13, 2.47, 2.13],
    "DBH": [5.54, 3.19, 2.42, 2.05],
    "Distributed NE": [2.88, 2.12, 1.88, 1.75],
}

TABLE1_ALPHAS = (2.2, 2.4, 2.6, 2.8)


def table1_rows(alphas=TABLE1_ALPHAS, num_partitions: int = 256,
                model: str = "pareto-mean",
                max_degree: int = _DEFAULT_MAX_DEGREE) -> dict:
    """Regenerate Table 1: method -> list of bounds over ``alphas``."""
    return {
        "Random (1D-hash)": [
            random_expected_bound_powerlaw(a, num_partitions, model, max_degree)
            for a in alphas],
        "Grid (2D-hash)": [
            grid_expected_bound_powerlaw(a, num_partitions, model, max_degree)
            for a in alphas],
        "DBH": [
            dbh_expected_bound_powerlaw(a, num_partitions, model, max_degree)
            for a in alphas],
        "Distributed NE": [
            dne_expected_bound_powerlaw(a, max_degree) for a in alphas],
    }
