"""Synthetic graph generators.

The paper's evaluation leans on RMAT graphs (§7.1) because the real
trillion-edge graph is not publicly available; we use the same move one
level down: RMAT and Chung–Lu stand-ins replace the billion-edge SNAP /
KONECT datasets.  All generators return canonical undirected edge
arrays (see :mod:`repro.graph.edgelist`) and take an explicit ``seed``
so every experiment is reproducible.

Generators provided:

* :func:`rmat_edges` — recursive-matrix graphs with Graph500's default
  ``(a, b, c, d)`` skew; the paper's Scale-N / edge-factor vocabulary.
* :func:`erdos_renyi` — G(n, m) uniform random graphs (non-skewed
  control).
* :func:`powerlaw_chung_lu` — expected-degree power-law graphs, used to
  check the Table 1 bound formulas empirically.
* :func:`ring_graph`, :func:`complete_graph`,
  :func:`ring_plus_complete` — the Theorem 2 tightness construction.
* :func:`grid_road_network` — 2D lattice with perturbed diagonals, the
  stand-in for the Table 6 road networks (CA/PA/TX), which are nearly
  planar with tiny average degree.
"""

from __future__ import annotations

import numpy as np

from repro.graph.edgelist import canonical_edges

__all__ = [
    "rmat_edges",
    "erdos_renyi",
    "powerlaw_chung_lu",
    "ring_graph",
    "complete_graph",
    "ring_plus_complete",
    "grid_road_network",
]

# Graph500 default RMAT probabilities.
_RMAT_A, _RMAT_B, _RMAT_C = 0.57, 0.19, 0.19


def rmat_edges(scale: int, edge_factor: int, seed: int = 0,
               a: float = _RMAT_A, b: float = _RMAT_B, c: float = _RMAT_C,
               dedup: bool = True) -> np.ndarray:
    """Generate an RMAT graph with ``2**scale`` vertices.

    ``edge_factor`` is the paper's EF: the number of generated edges per
    vertex *before* dedup/self-loop removal, matching Graph500 semantics
    (the paper's trillion-edge graph is Scale30, EF 1024).

    The recursive-matrix probabilities default to Graph500's
    ``(0.57, 0.19, 0.19, 0.05)``.  Generation is fully vectorised: each
    of the ``scale`` bits of both endpoints is drawn at once.
    """
    if not 0 < a + b + c < 1:
        raise ValueError("RMAT probabilities must satisfy 0 < a+b+c < 1")
    n = 1 << scale
    m = n * edge_factor
    rng = np.random.default_rng(seed)

    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    r = np.empty(m)
    for _ in range(scale):
        rng.random(out=r)
        # Quadrant choice: a -> (0,0), b -> (0,1), c -> (1,0), d -> (1,1)
        src <<= 1
        dst <<= 1
        src |= r >= a + b
        dst |= (r >= a) & (r < a + b) | (r >= a + b + c)

    edges = np.stack([src, dst], axis=1)
    if dedup:
        edges = canonical_edges(edges)
    return edges


def erdos_renyi(n: int, m: int, seed: int = 0) -> np.ndarray:
    """G(n, m)-style uniform random graph with ~``m`` distinct edges.

    Samples ``m`` endpoint pairs uniformly and canonicalises; like RMAT,
    collisions and self-loops are dropped, so the final count can be
    slightly under ``m``.
    """
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m, dtype=np.int64)
    dst = rng.integers(0, n, size=m, dtype=np.int64)
    return canonical_edges(np.stack([src, dst], axis=1))


def powerlaw_chung_lu(n: int, alpha: float, mean_degree: float | None = None,
                      seed: int = 0) -> np.ndarray:
    """Chung–Lu graph whose expected degrees follow a power law.

    Degree weights are drawn as ``w_i ~ Pareto``-style
    ``(1 - u)^(-1/(alpha-1))`` with minimum degree 1, matching the
    discrete power-law model of Clauset et al. used in §6 (Equation 6).
    Edges are then sampled proportionally to ``w_u * w_v``.

    ``mean_degree`` optionally rescales the weights so the expected
    average degree hits a target (before dedup).
    """
    if alpha <= 1.0:
        raise ValueError("power-law exponent must be > 1")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    weights = (1.0 - u) ** (-1.0 / (alpha - 1.0))
    if mean_degree is not None:
        weights *= mean_degree / weights.mean()
    total = weights.sum()
    m = int(round(total / 2.0))
    probs = weights / total
    src = rng.choice(n, size=m, p=probs)
    dst = rng.choice(n, size=m, p=probs)
    return canonical_edges(np.stack([src, dst], axis=1).astype(np.int64))


def ring_graph(n: int, offset: int = 0) -> np.ndarray:
    """Cycle on ``n`` vertices with ids ``offset .. offset+n-1``."""
    if n < 3:
        raise ValueError("a ring needs at least 3 vertices")
    ids = np.arange(offset, offset + n, dtype=np.int64)
    return canonical_edges(np.stack([ids, np.roll(ids, -1)], axis=1))


def complete_graph(n: int, offset: int = 0) -> np.ndarray:
    """Complete graph K_n with ids ``offset .. offset+n-1``."""
    if n < 2:
        raise ValueError("a complete graph needs at least 2 vertices")
    iu = np.triu_indices(n, k=1)
    src = iu[0].astype(np.int64) + offset
    dst = iu[1].astype(np.int64) + offset
    return np.stack([src, dst], axis=1)


def ring_plus_complete(n: int) -> np.ndarray:
    """The Theorem 2 tightness construction.

    Two isolated components: K_n (``n`` vertices, ``n(n-1)/2`` edges)
    plus a ring with ``n(n-1)/2`` vertices and the same number of edges.
    With ``|P| = n(n-1)/2`` partitions the replication factor approaches
    the Theorem 1 upper bound as ``n`` grows.
    """
    complete = complete_graph(n)
    ring_size = n * (n - 1) // 2
    if ring_size < 3:
        raise ValueError("need n >= 3 so the ring has >= 3 vertices")
    ring = ring_graph(ring_size, offset=n)
    return canonical_edges(np.concatenate([complete, ring], axis=0))


def grid_road_network(rows: int, cols: int, extra_fraction: float = 0.1,
                      seed: int = 0) -> np.ndarray:
    """2D lattice with a sprinkling of diagonal shortcuts.

    Road networks (Table 6) are nearly planar, low-degree, non-skewed
    graphs; a grid with ``extra_fraction`` random diagonals reproduces
    their mean degree (~2.8) and locality.  Vertex ``(r, c)`` gets id
    ``r * cols + c``.
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid must be at least 2x2")
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    horiz = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)
    vert = np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], axis=1)
    edges = [horiz, vert]

    rng = np.random.default_rng(seed)
    n_extra = int(extra_fraction * (rows - 1) * (cols - 1))
    if n_extra > 0:
        r = rng.integers(0, rows - 1, size=n_extra)
        c = rng.integers(0, cols - 1, size=n_extra)
        diag = np.stack([ids[r, c], ids[r + 1, c + 1]], axis=1)
        edges.append(diag)
    return canonical_edges(np.concatenate(edges, axis=0))
