"""Tests for the per-partition quality report."""

import numpy as np
import pytest

from repro.apps.engine import DistributedGraphEngine
from repro.core import DistributedNE
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_edges
from repro.metrics import quality
from repro.metrics.report import format_report, partition_report
from repro.partitioners import base
from repro.partitioners.base import EdgePartition
from repro.partitioners.hashing import RandomPartitioner


class TestPartitionReport:
    def test_aggregates_match_partition_methods(self, medium_rmat):
        part = DistributedNE(8, seed=0).partition(medium_rmat)
        report = partition_report(part)
        assert report.replication_factor == pytest.approx(
            part.replication_factor())
        assert report.edge_balance == pytest.approx(part.edge_balance())
        assert report.vertex_balance == pytest.approx(part.vertex_balance())
        assert report.num_partitions == 8

    def test_counts_sum_correctly(self, medium_rmat):
        part = RandomPartitioner(4, seed=0).partition(medium_rmat)
        report = partition_report(part)
        assert report.edge_counts.sum() == medium_rmat.num_edges
        covered = int(np.count_nonzero(medium_rmat.degrees()))
        # total vertex placements = covered + cuts
        assert report.vertex_counts.sum() == covered + report.vertex_cuts

    def test_mirror_counts(self, medium_rmat):
        """Mirrors = total placements - one master per covered vertex."""
        part = RandomPartitioner(4, seed=0).partition(medium_rmat)
        report = partition_report(part)
        covered = int(np.count_nonzero(medium_rmat.degrees()))
        assert report.mirror_counts.sum() == \
            report.vertex_counts.sum() - covered

    def test_single_partition_no_mirrors(self, triangle):
        part = RandomPartitioner(1, seed=0).partition(triangle)
        report = partition_report(part)
        assert report.mirror_counts.tolist() == [0]
        assert report.vertex_cuts == 0

    def test_manual_example(self, path4):
        """Path split per-edge: middle vertices mirrored once each."""
        part = EdgePartition(path4, 3, np.array([0, 1, 2]), method="manual")
        report = partition_report(part)
        assert report.vertex_cuts == 2
        assert report.mirror_counts.sum() == 2
        assert report.edge_counts.tolist() == [1, 1, 1]


def _replica_case(name, num_partitions):
    """``(graph, assignment)`` of one replica-relation case."""
    if name == "empty":
        graph = CSRGraph(np.empty((0, 2), dtype=np.int64), num_vertices=5)
    elif name == "isolated":   # 30 isolated ids past the last endpoint
        edges = rmat_edges(6, 4, seed=2)
        graph = CSRGraph(edges, num_vertices=int(edges.max()) + 31)
    elif name == "tiny":       # |P| > |E|
        graph = CSRGraph(np.array([[0, 1], [1, 2], [3, 4]]))
    else:
        graph = CSRGraph(rmat_edges(8, 6, seed=5))
    rng = np.random.default_rng(num_partitions)
    return graph, rng.integers(0, num_partitions, graph.num_edges)


class TestReplicaRelation:
    """``EdgePartition.replicas`` and everything that reads it against
    a boolean ``member[v, p]`` oracle built from the edges."""

    @pytest.mark.parametrize("name, num_partitions", [
        ("rmat", 1), ("rmat", 3), ("rmat", 8), ("rmat", 64), ("rmat", 256),
        ("empty", 4), ("isolated", 8), ("isolated", 64), ("tiny", 8),
        ("tiny", 256)])
    def test_readers_match_the_membership_oracle(self, name,
                                                 num_partitions):
        graph, assignment = _replica_case(name, num_partitions)
        member = np.zeros((graph.num_vertices, num_partitions), dtype=bool)
        member[graph.edges[:, 0], assignment] = True
        member[graph.edges[:, 1], assignment] = True
        part = EdgePartition(graph, num_partitions, assignment)

        indptr, parts = part.replicas
        assert np.array_equal(np.diff(indptr), member.sum(axis=1))
        assert np.array_equal(parts, np.nonzero(member)[1])
        assert np.array_equal(part.vertex_counts(), member.sum(axis=0))
        assert np.array_equal(
            quality.partition_vertex_counts(graph, assignment,
                                            num_partitions),
            member.sum(axis=0))

        first = np.bincount(member.argmax(axis=1)[member.any(axis=1)],
                            minlength=num_partitions)
        report = partition_report(part)
        assert np.array_equal(report.mirror_counts,
                              member.sum(axis=0) - first)
        assert report.vertex_cuts == member.sum() - member.any(axis=1).sum()

        engine = DistributedGraphEngine(part, seed=1)
        assert np.array_equal(engine.replica_count, member.sum(axis=1))
        covered = member.any(axis=1)
        assert np.all(engine.master[~covered] == -1)
        assert np.all(member[np.flatnonzero(covered),
                             engine.master[covered]])
        for pid in range(num_partitions):
            assert np.array_equal(engine.covered[pid],
                                  np.flatnonzero(member[:, pid]))

    def test_assignment_is_read_only(self, small_rmat):
        part = RandomPartitioner(4, seed=0).partition(small_rmat)
        with pytest.raises(ValueError, match="read-only"):
            part.assignment[0] = 1
        with pytest.raises(AttributeError, match="read-only"):
            part.assignment = np.zeros(small_rmat.num_edges, np.int64)
        for arr in part.replicas:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_csr_is_built_once(self, small_rmat, monkeypatch):
        builds = []

        def counting(*args):
            builds.append(args)
            return quality.vertex_replica_csr(*args)
        monkeypatch.setattr(base, "vertex_replica_csr", counting)
        part = RandomPartitioner(4, seed=0).partition(small_rmat)
        first = part.replication_factor()
        assert part.replication_factor() == first
        part.vertex_balance()
        part.vertex_cut_count()
        partition_report(part)
        DistributedGraphEngine(part)
        assert len(builds) == 1


class TestFormatReport:
    def test_contains_headline_numbers(self, small_rmat):
        part = RandomPartitioner(4, seed=0).partition(small_rmat)
        text = format_report(partition_report(part))
        assert "replication factor" in text
        assert "method=random" in text
        assert "mirrors" in text

    def test_row_truncation(self, small_rmat):
        part = RandomPartitioner(8, seed=0).partition(small_rmat)
        text = format_report(partition_report(part), max_rows=3)
        assert "(5 more)" in text
