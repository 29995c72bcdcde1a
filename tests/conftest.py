"""Shared fixtures and assertion helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.checkpoint import CheckpointStore
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    complete_graph,
    grid_road_network,
    ring_graph,
    rmat_edges,
)
from repro.metrics.quality import partition_edge_counts, validate_assignment


@pytest.fixture
def triangle() -> CSRGraph:
    """K3: 3 vertices, 3 edges."""
    return CSRGraph(np.array([[0, 1], [1, 2], [0, 2]]))


@pytest.fixture
def path4() -> CSRGraph:
    """Path 0-1-2-3."""
    return CSRGraph(np.array([[0, 1], [1, 2], [2, 3]]))


@pytest.fixture
def star() -> CSRGraph:
    """Star: hub 0 with 8 leaves."""
    return CSRGraph(np.array([[0, i] for i in range(1, 9)]))


@pytest.fixture
def two_triangles() -> CSRGraph:
    """Two disconnected triangles."""
    return CSRGraph(np.array(
        [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]))


@pytest.fixture
def small_rmat() -> CSRGraph:
    """~2.5k-edge RMAT graph — the workhorse fixture."""
    return CSRGraph(rmat_edges(9, 6, seed=42))


@pytest.fixture
def medium_rmat() -> CSRGraph:
    """~6k-edge RMAT graph for integration tests."""
    return CSRGraph(rmat_edges(10, 8, seed=7))


@pytest.fixture
def ring16() -> CSRGraph:
    return CSRGraph(ring_graph(16))


@pytest.fixture
def k6() -> CSRGraph:
    return CSRGraph(complete_graph(6))


@pytest.fixture
def small_road() -> CSRGraph:
    return CSRGraph(grid_road_network(12, 12, seed=3))


def dense_membership_shapes(checkpoint_dir: str) -> set:
    """``(columns, width)`` of every allocator's dense membership array
    in the newest DNE snapshot under ``checkpoint_dir`` — how a test
    shows that a run's state really went through the padded byte
    store (|P| = 4 is 8 columns: one ``uint64`` word per row)."""
    procs = CheckpointStore(checkpoint_dir).load_latest()["procs"]
    return {(state["_member"]._mat.shape[1], state["_member"]._width)
            for pid, state in procs.items() if pid[0] == "alloc"}


def assert_valid_partition(result) -> None:
    """Every edge assigned exactly once to an in-range partition."""
    validate_assignment(result.graph, result.assignment,
                        result.num_partitions)
    assert len(result.assignment) == result.graph.num_edges
    counts = partition_edge_counts(result.assignment, result.num_partitions)
    assert counts.sum() == result.graph.num_edges


@pytest.fixture
def check_partition():
    return assert_valid_partition
