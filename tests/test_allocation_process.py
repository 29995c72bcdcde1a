"""Unit tests for the allocation process (Algorithms 2-3)."""

import numpy as np
import pytest

from repro.cluster.runtime import SimulatedCluster
from repro.core.allocation import (
    TAG_BOUNDARY,
    TAG_EDGES,
    TAG_SELECT,
    AllocationProcess,
)
from repro.core.fused import FusedDnePlane
from repro.core.hash2d import Hash2DPlacement
from repro.graph.csr import CSRGraph


class _Sink:
    """Minimal expansion-side stand-in to receive allocator output."""

    def __init__(self, cluster, partition):
        from repro.cluster.runtime import Process
        self.proc = cluster.add_process(Process(("expansion", partition)))

    def boundary(self):
        out = {}
        for _, payload in self.proc.receive(TAG_BOUNDARY):
            for v, d in payload.tolist():
                out[v] = out.get(v, 0) + d
        return out

    def edges(self):
        out = []
        for _, payload in self.proc.receive(TAG_EDGES):
            out.extend(payload.tolist())
        return out


@pytest.fixture(params=["vectorized", "python"])
def kernel(request):
    """Every allocation test runs against both kernels."""
    return request.param


def _single_proc_setup(graph, num_partitions=2, two_hop=True,
                       kernel="vectorized"):
    """One allocation process owning the whole graph:
    ``(cluster, alloc, sinks, plane)``, ``plane`` the vectorized
    kernel's plane over ``alloc`` (``None`` for the reference)."""
    cluster = SimulatedCluster()
    placement = Hash2DPlacement(1, seed=0)
    alloc = cluster.add_process(AllocationProcess(
        0, graph.edges, graph.num_vertices, np.arange(graph.num_edges),
        placement, two_hop=two_hop, kernel=kernel))
    # One process, several partitions: the vectorized kernel sizes its
    # partition width before its plane adopts it.
    alloc._ensure_partition_capacity(num_partitions - 1)
    sinks = [_Sink(cluster, p) for p in range(num_partitions)]
    plane = (FusedDnePlane([alloc], placement) if kernel == "vectorized"
             else None)
    return cluster, alloc, sinks, plane


def _step(alloc, plane, method):
    """One allocation phase of ``alloc``: through ``plane`` under the
    vectorized kernel, the reference step method otherwise."""
    if plane is None:
        getattr(alloc, method)()
    else:
        plane.run(method, [alloc.pid])


def _drive(cluster, alloc, plane, selections):
    """Send selections, run both allocator phases with barriers."""
    cluster.process(("expansion", 0)).send("alloc", TAG_SELECT,
                                           [(alloc.pid[1], selections)])
    cluster.barrier()
    _step(alloc, plane, "one_hop_and_sync")
    cluster.barrier()
    _step(alloc, plane, "two_hop_and_report")
    cluster.barrier()


class TestOneHopAllocation:
    def test_allocates_selected_vertex_edges(self, star, kernel):
        cluster, alloc, sinks, plane = _single_proc_setup(star, kernel=kernel)
        _drive(cluster, alloc, plane, [(0, 0)])  # select hub for partition 0
        assert alloc.unallocated == 0
        assert sorted(sinks[0].edges()) == list(range(8))

    def test_new_boundary_with_drest(self, path4, kernel):
        cluster, alloc, sinks, plane = _single_proc_setup(path4, kernel=kernel)
        _drive(cluster, alloc, plane, [(1, 0)])  # select middle vertex 1
        boundary = sinks[0].boundary()
        # neighbours 0 (Drest 0, omitted) and 2 (Drest 1).
        assert boundary == {2: 1}

    def test_conflict_resolved_locally(self, path4, kernel):
        """Two partitions select the two endpoints of edge (1,2): only
        one gets it; both allocations remain edge-disjoint."""
        cluster, alloc, sinks, plane = _single_proc_setup(path4, kernel=kernel)
        _drive(cluster, alloc, plane, [(1, 0), (2, 1)])
        e0 = sinks[0].edges()
        e1 = sinks[1].edges()
        assert set(e0).isdisjoint(e1)
        assert len(e0) + len(e1) == 3  # all of the path's edges

    def test_vertex_replicas_accumulate_partitions(self, star, kernel):
        cluster, alloc, sinks, plane = _single_proc_setup(star, kernel=kernel)
        _drive(cluster, alloc, plane, [(1, 0), (2, 1)])
        hub = int(np.searchsorted(alloc.local_vertices, 0))
        assert alloc.vertex_parts[hub] == {0, 1}


class TestTwoHopAllocation:
    def test_triangle_closure(self, triangle, kernel):
        """Selecting vertex 0 allocates (0,1),(0,2) one-hop and (1,2)
        two-hop."""
        cluster, alloc, sinks, plane = _single_proc_setup(triangle, kernel=kernel)
        _drive(cluster, alloc, plane, [(0, 0)])
        assert sorted(sinks[0].edges()) == [0, 1, 2]
        assert alloc.unallocated == 0

    def test_two_hop_disabled(self, triangle, kernel):
        cluster, alloc, sinks, plane = _single_proc_setup(triangle, two_hop=False, kernel=kernel)
        _drive(cluster, alloc, plane, [(0, 0)])
        assert len(sinks[0].edges()) == 2
        assert alloc.unallocated == 1

    def test_two_hop_goes_to_least_loaded(self, kernel):
        """When both endpoints share two partitions, the edge goes to
        the one with fewer local edges."""
        # Square 0-1-2-3 plus diagonal (1,3).
        g = CSRGraph(np.array([[0, 1], [1, 2], [2, 3], [0, 3], [1, 3]]))
        cluster, alloc, sinks, plane = _single_proc_setup(g, num_partitions=2, kernel=kernel)
        # Select 0 for p0 (takes (0,1),(0,3)); then 2 for p1 (takes
        # (1,2),(2,3)); now 1 and 3 both belong to {p0, p1}; the
        # diagonal (1,3) goes to the lighter partition (tie -> p0).
        _drive(cluster, alloc, plane, [(0, 0), (2, 1)])
        # canonical order: (0,1),(0,3),(1,2),(1,3),(2,3) -> diagonal eid 2
        edges = sorted(g.edges.tolist())
        assert edges[3] == [1, 3]
        owner = alloc.alloc[3]
        assert owner in (0, 1)
        assert alloc.unallocated == 0


class TestMultiProcessSync:
    def test_sync_propagates_vertex_partitions(self, kernel):
        """A vertex allocated on one process becomes visible on its
        replica processes after the sync phase."""
        g = CSRGraph(np.array([[0, 1], [1, 2], [2, 3]]))
        cluster = SimulatedCluster()
        placement = Hash2DPlacement(2, seed=0)
        homes = placement.place_edges(g.edges)
        allocs = [cluster.add_process(AllocationProcess(
            k, g.edges, g.num_vertices, np.flatnonzero(homes == k),
            placement, kernel=kernel)) for k in range(2)]
        for p in range(2):
            _Sink(cluster, p)
        plane = (FusedDnePlane(allocs, placement) if kernel == "vectorized"
                 else None)

        cluster.process(("expansion", 0)).send(
            "alloc", TAG_SELECT,
            [(proc, [(1, 0)]) for proc in placement.replica_processes(1)])
        cluster.barrier()
        for a in allocs:
            _step(a, plane, "one_hop_and_sync")
        cluster.barrier()
        for a in allocs:
            _step(a, plane, "two_hop_and_report")
        cluster.barrier()

        # Vertex 1's one-hop neighbours are 0 and 2; whichever processes
        # hold them must agree that they belong to partition 0.
        for a in allocs:
            for gv in (0, 2):
                hit = np.flatnonzero(a.local_vertices == gv)
                if len(hit) and a.rest_degree[hit[0]] >= 0:
                    lv = int(hit[0])
                    covered = a.vertex_parts[lv]
                    # vertex 2 neighbours an allocated edge -> {0}
                    if gv == 2:
                        assert covered == {0}

    def test_vectorized_width_is_fixed_by_the_first_step(self, path4):
        """The plane raises rather than grows: a partition id beyond
        the width, or a resize after a plane adopted it, is an error —
        the reference kernel grows on demand."""
        cluster, alloc, _, plane = _single_proc_setup(path4,
                                                      num_partitions=2)
        _drive(cluster, alloc, plane, [(1, 0)])
        with pytest.raises(ValueError, match="before the first step"):
            alloc._ensure_partition_capacity(5)
        cluster.process(("expansion", 0)).send("alloc", TAG_SELECT,
                                               [(alloc.pid[1], [(2, 5)])])
        with pytest.raises(ValueError, match="partition capacity"):
            plane.run("one_hop_and_sync", [alloc.pid])
        cluster, ref, _, _ = _single_proc_setup(path4, num_partitions=2,
                                                kernel="python")
        ref._ensure_partition_capacity(5)
        assert len(ref._part_loads) == 6

    def test_memory_reported(self, small_rmat, kernel):
        cluster, alloc, _, _ = _single_proc_setup(small_rmat, kernel=kernel)
        stats = cluster.stats.stats_for(alloc.pid)
        assert stats.peak_resident_bytes > 0
