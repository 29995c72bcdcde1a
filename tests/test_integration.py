"""End-to-end integration tests: the full pipelines a user would run.

Each test exercises several packages together: generate → partition →
measure → run applications, the way the examples and benchmarks do.
"""

import numpy as np
import pytest

from repro import (
    CSRGraph,
    DistributedNE,
    NEPartitioner,
    PARTITIONER_REGISTRY,
    RandomPartitioner,
    load_dataset,
    rmat_edges,
    theorem1_upper_bound,
)
from repro.apps import pagerank, sssp, wcc
from repro.bench.extrapolation import extrapolate, fit_cost_model
from repro.bench.harness import mem_score, run_method
from repro.graph.stats import is_skewed
from tests.conftest import assert_valid_partition


class TestFullPipeline:
    def test_generate_partition_measure(self):
        """The quickstart flow, asserted."""
        graph = CSRGraph(rmat_edges(scale=10, edge_factor=8, seed=7))
        result = DistributedNE(num_partitions=8, seed=7).partition(graph)
        assert_valid_partition(result)

        covered = int(np.count_nonzero(graph.degrees()))
        bound = theorem1_upper_bound(covered, graph.num_edges, 8)
        assert result.replication_factor() <= bound

        baseline = RandomPartitioner(8, seed=7).partition(graph)
        assert result.replication_factor() < baseline.replication_factor()

    def test_dataset_to_apps(self):
        """Dataset registry -> partitioner -> all three applications."""
        graph = load_dataset("flickr")
        assert is_skewed(graph)
        part = DistributedNE(4, seed=0).partition(graph)

        src = int(graph.edges[0, 0])
        dist, s1 = sssp(part, source=src)
        assert dist[src] == 0
        labels, s2 = wcc(part)
        assert labels.min() >= 0
        ranks, s3 = pagerank(part, iterations=5)
        assert ranks.sum() == pytest.approx(1.0, abs=1e-6)
        assert s3.comm_bytes > s1.comm_bytes  # PR heaviest

    def test_every_registry_method_end_to_end(self, small_rmat):
        """All 14 methods: partition, validate, memory-model, and run
        one PageRank superstep on the result."""
        for name in PARTITIONER_REGISTRY:
            part = run_method(name, small_rmat, 4, seed=1)
            assert_valid_partition(part)
            assert mem_score(part) > 0
            ranks, _ = pagerank(part, iterations=1)
            assert np.isfinite(ranks).all(), name

    def test_weak_scaling_to_extrapolation(self):
        """Figure 10(j) protocol feeding the trillion-edge cost model."""
        rows = []
        for i, machines in enumerate((2, 4, 8)):
            scale = 9 + i
            graph = CSRGraph(rmat_edges(scale, 8, seed=0))
            result = DistributedNE(machines, seed=0).partition(graph)
            rows.append({
                "machines": machines,
                "edges": graph.num_edges,
                "elapsed_seconds": result.elapsed_seconds,
            })
        model = fit_cost_model(rows)
        target = extrapolate(model)
        assert target["predicted_seconds"] > 0
        assert target["machines"] == 256

    def test_dne_vs_sequential_ne_quality_parity(self, medium_rmat):
        """Table 4's shape: the distributed run stays within ~25% of
        the offline sequential reference on the same graph."""
        ne = NEPartitioner(16, seed=0).partition(medium_rmat)
        dne = DistributedNE(16, seed=0).partition(medium_rmat)
        assert dne.replication_factor() <= ne.replication_factor() * 1.3

    def test_partition_roundtrip_through_edges_of(self, small_rmat):
        """edges_of(p) reconstructs exactly the assigned edge sets."""
        part = DistributedNE(4, seed=0).partition(small_rmat)
        total = 0
        seen = set()
        for p in range(4):
            edges = part.edges_of(p)
            total += len(edges)
            for u, v in edges.tolist():
                assert (u, v) not in seen
                seen.add((u, v))
        assert total == small_rmat.num_edges


class TestCrossMethodConsistency:
    def test_all_methods_agree_on_app_results(self, small_rmat):
        """Application outputs are partition-independent: every method
        yields identical WCC labels."""
        reference = None
        for name in ("random", "grid", "ne", "distributed_ne", "sheep"):
            part = run_method(name, small_rmat, 4, seed=0)
            labels, _ = wcc(part)
            if reference is None:
                reference = labels
            else:
                assert np.array_equal(labels, reference), name

    def test_quality_ordering_stable_across_seeds(self, medium_rmat):
        """D.NE < Random holds for every seed (the paper reports <5%
        relative standard error over five seeds)."""
        for seed in range(3):
            dne = DistributedNE(8, seed=seed).partition(medium_rmat)
            rand = RandomPartitioner(8, seed=seed).partition(medium_rmat)
            assert dne.replication_factor() < rand.replication_factor()

    def test_rf_median_across_seeds_reasonable(self, medium_rmat):
        """Five-seed protocol from §7.2: median RF is stable."""
        rfs = [DistributedNE(8, seed=s).partition(medium_rmat)
               .replication_factor() for s in range(5)]
        med = float(np.median(rfs))
        assert max(rfs) - min(rfs) < 0.5 * med


class TestAdjacencyStaysUnbuilt:
    """Distributed NE, HDRF, DBH, the report and the run store read the
    edge array and ``degrees()`` only: the graph's CSR adjacency is
    still unbuilt after all of them.  Work the benchmark times must not
    move into an untimed reader (a metric, the store) instead of going
    away."""

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: DistributedNE(8, seed=0), id="dne-simulated"),
        pytest.param(lambda: DistributedNE(8, seed=0, backend="threads",
                                           workers=2), id="dne-threads"),
        pytest.param(lambda: DistributedNE(8, seed=0, backend="processes",
                                           workers=2), id="dne-processes"),
        pytest.param(lambda: PARTITIONER_REGISTRY["hdrf"](8, seed=0),
                     id="hdrf"),
        pytest.param(lambda: PARTITIONER_REGISTRY["dbh"](8, seed=0),
                     id="dbh")])
    def test_partition_report_and_store(self, make, tmp_path):
        from repro.metrics.report import partition_report
        from repro.serving import RunStore
        graph = CSRGraph(rmat_edges(scale=10, edge_factor=8, seed=2))
        part = make().partition(graph)
        report = partition_report(part)
        store = RunStore(str(tmp_path / "runs.db"))
        try:
            store.add_run(part, seed=0)
        finally:
            store.close()
        assert graph._adjacency is None
        # the covered vertices came from the replica CSR, and agree
        covered = int(np.count_nonzero(graph.degrees()))
        assert report.vertex_cuts == report.vertex_counts.sum() - covered
        assert graph._adjacency is None
