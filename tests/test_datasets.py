"""Unit tests for the dataset registry."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.datasets import (
    DATASETS,
    ROAD_DATASETS,
    SKEWED_DATASETS,
    load_dataset,
)


class TestRegistry:
    def test_all_paper_datasets_present(self):
        expected = {"pokec", "flickr", "livejournal", "orkut", "twitter",
                    "friendster", "webuk",
                    "roadnet-ca", "roadnet-pa", "roadnet-tx"}
        assert expected == set(DATASETS)

    def test_skew_flags(self):
        assert all(spec.skewed for spec in SKEWED_DATASETS.values())
        assert not any(spec.skewed for spec in ROAD_DATASETS.values())

    def test_paper_sizes_recorded(self):
        for spec in DATASETS.values():
            assert spec.paper_vertices > 0
            assert spec.paper_edges > 0

    def test_relative_size_ordering_preserved(self):
        """Stand-ins keep the paper's dataset size ordering (Table 2)."""
        sizes = {name: len(spec.generate(seed=0))
                 for name, spec in SKEWED_DATASETS.items()}
        assert sizes["pokec"] < sizes["twitter"]
        assert sizes["flickr"] < sizes["orkut"]
        assert sizes["livejournal"] < sizes["friendster"]

    def test_unknown_kind_raises(self):
        from repro.graph.datasets import DatasetSpec
        bad = DatasetSpec("x", "nope", {})
        with pytest.raises(ValueError):
            bad.generate()


class TestLoadDataset:
    def test_returns_csr_by_default(self):
        g = load_dataset("pokec")
        assert isinstance(g, CSRGraph)
        assert g.num_edges > 1000

    def test_returns_edges_when_asked(self):
        edges = load_dataset("pokec", as_csr=False)
        assert isinstance(edges, np.ndarray)

    def test_case_insensitive(self):
        a = load_dataset("Pokec", as_csr=False)
        b = load_dataset("pokec", as_csr=False)
        assert np.array_equal(a, b)

    def test_deterministic(self):
        a = load_dataset("flickr", seed=5, as_csr=False)
        b = load_dataset("flickr", seed=5, as_csr=False)
        assert np.array_equal(a, b)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_dataset("not-a-dataset")

    def test_skewed_standins_are_skewed(self):
        g = load_dataset("orkut")
        deg = g.degrees()
        assert deg.max() > 10 * deg[deg > 0].mean()

    def test_road_standins_are_flat(self):
        g = load_dataset("roadnet-ca")
        assert g.max_degree() <= 8
        assert 2.0 < 2 * g.num_edges / g.num_vertices < 5.0
