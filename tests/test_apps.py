"""Tests for the distributed application engine and the three apps."""

import numpy as np
import pytest

from repro.apps import DistributedGraphEngine, pagerank, sssp, wcc
from repro.core import DistributedNE
from repro.graph.csr import CSRGraph
from repro.graph.generators import ring_graph
from repro.partitioners.hashing import RandomPartitioner


@pytest.fixture
def random_part(medium_rmat):
    return RandomPartitioner(8, seed=0).partition(medium_rmat)


@pytest.fixture
def dne_part(medium_rmat):
    return DistributedNE(8, seed=0).partition(medium_rmat)


class TestEngineConstruction:
    def test_masters_are_replicas(self, random_part):
        engine = DistributedGraphEngine(random_part)
        g = random_part.graph
        indptr, parts = random_part.replicas
        degrees = g.degrees()
        for v in range(0, g.num_vertices, 13):
            if degrees[v] == 0:
                assert engine.master[v] == -1
            else:
                assert engine.master[v] in parts[indptr[v]:indptr[v + 1]]

    def test_replica_counts_match_partition(self, random_part):
        engine = DistributedGraphEngine(random_part)
        # replica count == number of partitions covering the vertex
        assert len(random_part.replicas[1]) == int(engine.replica_count.sum())

    def test_local_edges_cover_graph(self, random_part):
        engine = DistributedGraphEngine(random_part)
        total = sum(len(s) for s in engine.local_src)
        assert total == random_part.graph.num_edges


class TestSSSP:
    def test_distances_on_path(self, path4):
        part = RandomPartitioner(2, seed=0).partition(path4)
        dist, stats = sssp(part, source=0)
        assert dist.tolist() == [0, 1, 2, 3]
        assert stats.supersteps >= 3

    def test_unreachable_is_inf(self, two_triangles):
        part = RandomPartitioner(2, seed=0).partition(two_triangles)
        dist, _ = sssp(part, source=0)
        assert np.isinf(dist[3:]).all()
        assert np.isfinite(dist[:3]).all()

    def test_source_validation(self, triangle):
        part = RandomPartitioner(2, seed=0).partition(triangle)
        with pytest.raises(ValueError):
            sssp(part, source=99)

    def test_partition_invariance(self, medium_rmat):
        """Distances must not depend on the partitioning."""
        pa = RandomPartitioner(8, seed=0).partition(medium_rmat)
        pb = DistributedNE(8, seed=0).partition(medium_rmat)
        src = int(medium_rmat.edges[0, 0])
        da, _ = sssp(pa, source=src)
        db, _ = sssp(pb, source=src)
        assert np.array_equal(da, db)


class TestWCC:
    def test_two_components(self, two_triangles):
        part = RandomPartitioner(2, seed=0).partition(two_triangles)
        labels, _ = wcc(part)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_labels_are_component_minima(self, two_triangles):
        part = RandomPartitioner(2, seed=0).partition(two_triangles)
        labels, _ = wcc(part)
        assert labels[0] == 0
        assert labels[3] == 3

    def test_partition_invariance(self, medium_rmat):
        pa = RandomPartitioner(8, seed=0).partition(medium_rmat)
        pb = DistributedNE(8, seed=0).partition(medium_rmat)
        la, _ = wcc(pa)
        lb, _ = wcc(pb)
        assert np.array_equal(la, lb)


class TestPageRank:
    def test_normalised(self, random_part):
        ranks, _ = pagerank(random_part, iterations=30)
        assert ranks.sum() == pytest.approx(1.0, abs=1e-6)

    def test_ring_is_uniform(self):
        g = CSRGraph(ring_graph(32))
        part = RandomPartitioner(4, seed=0).partition(g)
        ranks, _ = pagerank(part, iterations=50)
        assert np.allclose(ranks, 1.0 / 32, atol=1e-6)

    def test_hub_ranks_highest(self, star):
        part = RandomPartitioner(2, seed=0).partition(star)
        ranks, _ = pagerank(part, iterations=30)
        assert ranks[0] == ranks.max()

    def test_iteration_validation(self, random_part):
        with pytest.raises(ValueError):
            pagerank(random_part, iterations=0)

    def test_partition_invariance(self, medium_rmat):
        pa = RandomPartitioner(8, seed=0).partition(medium_rmat)
        pb = DistributedNE(8, seed=0).partition(medium_rmat)
        ra, _ = pagerank(pa, iterations=10)
        rb, _ = pagerank(pb, iterations=10)
        assert np.allclose(ra, rb, atol=1e-9)


class TestCommunicationAccounting:
    def test_better_partition_less_traffic(self, random_part, dne_part):
        """Table 5's core result: lower RF => lower COM, on every app."""
        for app, kwargs in ((sssp, {"source": 0}),
                            (wcc, {}),
                            (pagerank, {"iterations": 5})):
            _, s_rand = app(random_part, **kwargs)
            _, s_dne = app(dne_part, **kwargs)
            assert s_dne.comm_bytes < s_rand.comm_bytes, app.__name__

    def test_pagerank_heaviest(self, random_part):
        """Workload ordering from §7.6: SSSP < WCC < PR (per-superstep
        normalised total traffic)."""
        _, s1 = sssp(random_part, source=int(random_part.graph.edges[0, 0]))
        _, s2 = wcc(random_part)
        _, s3 = pagerank(random_part, iterations=10)
        assert s1.comm_bytes < s3.comm_bytes
        assert s2.comm_bytes < s3.comm_bytes

    def test_workload_balance_finite(self, dne_part):
        _, stats = wcc(dne_part)
        wb = stats.workload_balance()
        assert 1.0 <= wb < 10.0

    def test_stats_fields(self, random_part):
        _, stats = sssp(random_part, source=0)
        assert stats.supersteps > 0
        assert stats.elapsed_seconds > 0
        assert len(stats.local_seconds) == random_part.num_partitions
