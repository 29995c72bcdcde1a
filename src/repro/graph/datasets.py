"""Named dataset stand-ins for the paper's evaluation graphs.

The paper evaluates on seven real-world skewed graphs (Table 2: Pokec,
Flickr, LiveJournal, Orkut, Twitter, Friendster, WebUK) and three road
networks (Table 6: California, Pennsylvania, Texas).  None of those are
shippable here (billions of edges, no network access), so this module
registers *scaled-down synthetic stand-ins* that preserve the features
partitioning quality depends on:

* skewed datasets use RMAT with per-dataset density (edge factor) chosen
  to match the real graph's average degree, so "hard to partition"
  datasets (Orkut: avg degree 76) stay hard relative to "easy" ones
  (WebUK-like web graphs, which have strong locality — modelled with a
  less-skewed RMAT mix);
* relative size ordering is preserved (Pokec < Flickr < LiveJ < Orkut <
  Twitter < Friendster < WebUK);
* road networks use the perturbed-grid generator.

Every stand-in is a :class:`DatasetSpec` so benchmarks can iterate the
registry (``python -m repro list`` prints it); all are deterministic
given the registry seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_road_network, rmat_edges

__all__ = ["DatasetSpec", "DATASETS", "SKEWED_DATASETS", "ROAD_DATASETS",
           "load_dataset"]


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one named dataset stand-in.

    Attributes
    ----------
    name:
        Registry key, matching the paper's dataset name (lower-case).
    kind:
        ``"rmat"`` or ``"road"``.
    params:
        Generator keyword arguments.
    paper_vertices, paper_edges:
        The real graph's size, recorded for documentation and for the
        scale-factor note printed by the bench harness.
    skewed:
        True for the Table 2 social/web graphs, False for road networks.
    """

    name: str
    kind: str
    params: dict = field(hash=False)
    paper_vertices: int = 0
    paper_edges: int = 0
    skewed: bool = True

    def generate(self, seed: int = 0) -> np.ndarray:
        """Materialise the stand-in's canonical edge array."""
        if self.kind == "rmat":
            return rmat_edges(seed=seed, **self.params)
        if self.kind == "road":
            return grid_road_network(seed=seed, **self.params)
        raise ValueError(f"unknown dataset kind {self.kind!r}")


def _m(x: float) -> int:
    return int(x * 1_000_000)


# Skewed stand-ins.  ``scale`` fixes the vertex count (2**scale); the
# edge factor is tuned to the real graph's density.  ``a`` controls the
# degree skew: web graphs (WebUK) have strong locality => milder skew.
SKEWED_DATASETS: dict[str, DatasetSpec] = {
    "pokec": DatasetSpec(
        "pokec", "rmat", {"scale": 12, "edge_factor": 19},
        paper_vertices=_m(1.63), paper_edges=_m(30.62)),
    "flickr": DatasetSpec(
        "flickr", "rmat",
        {"scale": 12, "edge_factor": 14, "a": 0.65, "b": 0.15, "c": 0.15},
        paper_vertices=_m(2.30), paper_edges=_m(33.14)),
    "livejournal": DatasetSpec(
        "livejournal", "rmat", {"scale": 13, "edge_factor": 14},
        paper_vertices=_m(4.84), paper_edges=_m(68.47)),
    "orkut": DatasetSpec(
        "orkut", "rmat", {"scale": 12, "edge_factor": 38},
        paper_vertices=_m(3.07), paper_edges=_m(117.18)),
    "twitter": DatasetSpec(
        "twitter", "rmat", {"scale": 14, "edge_factor": 35, "a": 0.6},
        paper_vertices=_m(41.65), paper_edges=_m(1460.0)),
    "friendster": DatasetSpec(
        "friendster", "rmat", {"scale": 14, "edge_factor": 28},
        paper_vertices=_m(65.60), paper_edges=_m(1800.0)),
    "webuk": DatasetSpec(
        "webuk", "rmat", {"scale": 14, "edge_factor": 35, "a": 0.72, "b": 0.12, "c": 0.12},
        paper_vertices=_m(105.15), paper_edges=_m(3720.0)),
}

# Road-network stand-ins (Table 6).  Real graphs: CA 1.96M/2.76M,
# PA 1.08M/1.54M, TX 1.37M/1.92M — avg degree ~2.8, near-planar.
ROAD_DATASETS: dict[str, DatasetSpec] = {
    "roadnet-ca": DatasetSpec(
        "roadnet-ca", "road", {"rows": 110, "cols": 110, "extra_fraction": 0.42},
        paper_vertices=_m(1.96), paper_edges=_m(2.76), skewed=False),
    "roadnet-pa": DatasetSpec(
        "roadnet-pa", "road", {"rows": 82, "cols": 82, "extra_fraction": 0.43},
        paper_vertices=_m(1.08), paper_edges=_m(1.54), skewed=False),
    "roadnet-tx": DatasetSpec(
        "roadnet-tx", "road", {"rows": 92, "cols": 92, "extra_fraction": 0.40},
        paper_vertices=_m(1.37), paper_edges=_m(1.92), skewed=False),
}

DATASETS: dict[str, DatasetSpec] = {**SKEWED_DATASETS, **ROAD_DATASETS}


def load_dataset(name: str, seed: int = 0, as_csr: bool = True):
    """Generate a registered dataset stand-in by name.

    Returns a :class:`~repro.graph.csr.CSRGraph` (default) or the raw
    canonical edge array when ``as_csr=False``.
    """
    key = name.lower()
    if key not in DATASETS:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(DATASETS)}")
    edges = DATASETS[key].generate(seed=seed)
    return CSRGraph(edges) if as_csr else edges
