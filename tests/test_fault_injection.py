"""Failure-injection tests for the distributed protocol.

The paper's protocol relies on exactly-once delivery from MPI; these
tests probe what actually depends on that:

* **duplicate delivery** — the sync phase (Algorithm 2's
  `SyncVertexAllocations`) must be idempotent: (vertex, partition)
  pairs are set-unioned, so replayed messages change nothing.  We
  inject a duplicating cluster and assert the final partition is
  byte-identical.
* **dropped sync messages** — NOT safe: replicas diverge and two-hop
  allocation misses closures.  We assert the run still terminates with
  a *valid* (covering, disjoint) partition — the algorithm degrades in
  quality, not in safety — which is the property that matters for a
  simulator substrate.
"""

import numpy as np
import pytest

from repro.cluster.runtime import SimulatedCluster
from repro.core import DistributedNE
from repro.core.allocation import TAG_SYNC
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_edges
from repro.kernels import KERNELS
from repro.metrics.quality import validate_assignment


class DuplicatingCluster(SimulatedCluster):
    """Delivers every matching message twice (at-least-once delivery).

    Every message is a segment of a sweep — the reference kernel's
    ``send`` a sweep of one — and a replayed sweep replays every one of
    its segments.  ``injected`` counts the messages delivered a second
    time.
    """

    def __init__(self, duplicate_tag: str):
        super().__init__()
        self._duplicate_tag = duplicate_tag
        self.injected = 0

    def deliver_segments(self, tag, batch):
        super().deliver_segments(tag, batch)
        if tag == self._duplicate_tag:
            self.injected += len(batch)
            super().deliver_segments(tag, batch)


class DroppingCluster(SimulatedCluster):
    """Drops a deterministic fraction of matching messages — every
    ``drop_every``-th sweep segment, counted across sweeps.
    ``injected`` counts the messages lost."""

    def __init__(self, drop_tag: str, drop_every: int = 3):
        super().__init__()
        self._drop_tag = drop_tag
        self._drop_every = drop_every
        self._count = 0
        self.injected = 0

    def deliver_segments(self, tag, batch):
        if tag == self._drop_tag:
            position = self._count + 1 + np.arange(len(batch))
            self._count += len(batch)
            kept = np.flatnonzero(position % self._drop_every != 0)
            self.injected += len(batch) - len(kept)
            if not len(kept):
                return          # the whole sweep was lost
            if len(kept) < len(batch):
                batch = batch.select(kept)
        super().deliver_segments(tag, batch)


def _partition_on(cluster: SimulatedCluster, graph: CSRGraph, kernel: str,
                  **kwargs):
    """One ``DistributedNE(8, seed=0)`` run whose driver uses ``cluster``
    in place of the fresh ``SimulatedCluster`` it would build."""
    import repro.core.distributed_ne as mod
    original = mod.SimulatedCluster
    mod.SimulatedCluster = lambda: cluster
    try:
        return DistributedNE(8, seed=0, kernel=kernel,
                             **kwargs).partition(graph)
    finally:
        mod.SimulatedCluster = original


@pytest.fixture
def graph():
    return CSRGraph(rmat_edges(9, 6, seed=5))


# Each test walks both kernels in its body (not ``parametrize``) and
# asserts ``injected > 0`` for each: the reference sends one sweep per
# step and tag, the fused plane one per phase, and a test whose injection
# missed one of them would compare a run with itself.
class TestDuplicateDelivery:
    def test_sync_is_idempotent(self, graph):
        """At-least-once delivery of sync messages must not change the
        result — the replica-set union absorbs replays."""
        for kernel in KERNELS:
            baseline = DistributedNE(8, seed=0, kernel=kernel).partition(graph)
            cluster = DuplicatingCluster(TAG_SYNC)
            duplicated = _partition_on(cluster, graph, kernel)
            assert cluster.injected > 0, kernel
            assert np.array_equal(duplicated.assignment,
                                  baseline.assignment), kernel
            assert duplicated.iterations == baseline.iterations, kernel


class TestDroppedSync:
    def test_terminates_with_valid_partition(self, graph):
        """Dropped syncs degrade quality, never safety: the run still
        covers every edge exactly once."""
        for kernel in KERNELS:
            cluster = DroppingCluster(TAG_SYNC, drop_every=4)
            result = _partition_on(cluster, graph, kernel,
                                   max_iterations=5000)
            assert cluster.injected > 0, kernel
            validate_assignment(graph, result.assignment, 8)
            assert result.replication_factor() >= 1.0, kernel

    def test_quality_degrades_not_catastrophically(self, graph):
        for kernel in KERNELS:
            baseline = DistributedNE(8, seed=0, kernel=kernel).partition(graph)
            cluster = DroppingCluster(TAG_SYNC, drop_every=4)
            lossy = _partition_on(cluster, graph, kernel,
                                  max_iterations=5000)
            assert cluster.injected > 0, kernel
            # Lost syncs lose two-hop opportunities; RF may rise but
            # stays in the same regime (not hash-level collapse).
            assert (lossy.replication_factor()
                    < 3 * baseline.replication_factor()), kernel
