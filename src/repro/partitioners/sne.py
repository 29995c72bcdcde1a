"""SNE — Streaming Neighbor Expansion (Zhang et al., KDD'17 [54]).

The bounded-memory variant of NE: the (seeded, shuffled) edge stream
is consumed into a buffer of at most ``_BUFFER_FACTOR * |E| / |P|``
edges; neighbour expansion runs *within the buffer* only.  When the
current partition fills (or the buffer runs dry of expandable edges),
the buffer is topped back up from the stream.  Quality sits between
HDRF and offline NE (Table 4), because expansion decisions see only
the buffered fragment of the graph.

``_BUFFER_FACTOR = 16`` holds several partitions' worth of edges,
matching the regime Zhang et al. evaluate (their buffer is a memory
budget independent of |P|).

Implementation notes: the buffer is a boolean visibility mask over
canonical edge ids (``ExpansionState.allowed``); refilling flips more
ids visible in stream order and updates the visible remaining degrees.

The whole stream run is one sequential program, so on the execution
backends (:mod:`repro.cluster.backends`) it is a one-process cluster
whose one superstep runs the stream: ``backend="simulated"`` runs it
inline, ``"threads"`` on a pool thread, ``"processes"`` in a worker
process with the CSR arrays mapped through shared memory (only the
assignment and the scalar stats travel back) — supervised like any
superstep, so ``step_timeout`` / ``max_retries`` / ``fault_plan``
(superstep 1 of worker 0) apply as they do to DNE.  All backends are
bit-identical on the assignment and on the reported ``state_bytes``
footprint (pinned by ``tests/test_backends.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.cluster.backends import (WorkerProgram, create_backend,
                                    validate_execution_args)
from repro.cluster.checkpoint import CheckpointStore
from repro.cluster.runtime import Process, SimulatedCluster
from repro.graph.csr import CSRGraph
from repro.kernels import validate_kernel
from repro.observability.trace import NULL_TRACER
from repro.partitioners.base import EdgePartition, Partitioner
from repro.partitioners.ne import ExpansionState, _sweep_leftovers

__all__ = ["SNEPartitioner"]

#: buffer capacity in partitions' worth of edges, ``|E| / |P|``
_BUFFER_FACTOR = 16.0


def _run_sne_stream(graph: CSRGraph, p: int, seed: int, alpha: float,
                    kernel: str, checkpoint_dir: str | None = None,
                    resume: bool = False) -> tuple[np.ndarray, dict]:
    """One full SNE stream run; pure function of (graph, parameters).

    Fully deterministic, so every execution backend — inline, pool
    thread, or shared-memory worker process, first try or supervised
    retry — computes the identical ``(assignment, extra)``.  With
    ``checkpoint_dir``
    the run snapshots its whole streaming state at every partition
    boundary; ``resume`` restarts from the newest snapshot and is
    bit-identical to the uninterrupted run.
    """
    rng = np.random.default_rng(seed)
    stream = rng.permutation(graph.num_edges)

    allowed = np.zeros(graph.num_edges, dtype=bool)
    state = ExpansionState(graph, rng, allowed=allowed, kernel=kernel)
    limit = max(1, int(np.ceil(alpha * graph.num_edges / p)))
    capacity = max(limit, int(_BUFFER_FACTOR * graph.num_edges / p))

    stream_pos = 0
    buffered = 0  # visible & unallocated edges

    def refill(current_buffered: int) -> int:
        # Bulk top-up: flip the next stream chunk visible and add
        # its endpoint degrees in one bincount pass.
        nonlocal stream_pos
        need = capacity - current_buffered
        if need <= 0 or stream_pos >= len(stream):
            return current_buffered
        chunk = stream[stream_pos:stream_pos + need]
        stream_pos += len(chunk)
        allowed[chunk] = True
        state.rest_degree += np.bincount(
            graph.edges[chunk].ravel(), minlength=graph.num_vertices)
        return current_buffered + len(chunk)

    # With a visibility mask, rest_degree starts at zero and counts
    # only buffered edges; unallocated still tracks the full graph.
    state.rest_degree[:] = 0
    state.unallocated = graph.num_edges
    buffered = refill(0)

    meta = {"partitioner": "sne", "p": p, "seed": seed, "alpha": alpha,
            "kernel": kernel, "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges}
    store = (CheckpointStore(checkpoint_dir)
             if checkpoint_dir is not None else None)
    start_pid = 0
    snapshot = store.load_latest() if (store is not None and resume) else None
    if snapshot is not None:
        CheckpointStore.check_meta(snapshot, meta)
        # Overwrite the freshly-built streaming state in place (the
        # ``allowed`` mask is shared between ``state`` and ``refill``,
        # so it must keep its identity).  Coverage/boundary need no
        # restore: snapshots are cut at partition boundaries, where
        # ``begin_partition`` wipes them anyway.
        rng.bit_generator.state = snapshot["rng_state"]
        state.assignment[:] = snapshot["assignment"]
        state.rest_degree[:] = snapshot["rest_degree"]
        state.unallocated = snapshot["unallocated"]
        state._probe_order[:] = snapshot["probe_order"]
        state._probe_pos = snapshot["probe_pos"]
        allowed[:] = snapshot["allowed"]
        stream_pos = snapshot["stream_pos"]
        buffered = snapshot["buffered"]
        start_pid = snapshot["next_pid"]

    for pid in range(start_pid, p):
        if store is not None:
            store.save(pid, {
                "meta": meta, "next_pid": pid,
                "rng_state": rng.bit_generator.state,
                "assignment": state.assignment.copy(),
                "rest_degree": state.rest_degree.copy(),
                "unallocated": state.unallocated,
                "probe_order": state._probe_order.copy(),
                "probe_pos": state._probe_pos,
                "allowed": allowed.copy(),
                "stream_pos": stream_pos,
                "buffered": buffered,
            })
        if state.unallocated == 0:
            break
        state.begin_partition()
        allocated = 0
        while allocated < limit and state.unallocated > 0:
            v = state.pop_min_boundary()
            if v is None:
                buffered = refill(buffered)
                v = state.random_seed_vertex()
                if v is None:
                    break
            before = state.unallocated
            allocated = state.expand_vertex(v, pid, limit, allocated)
            buffered -= before - state.unallocated
            if buffered < capacity // 2:
                buffered = refill(buffered)

    _sweep_leftovers(state, p)
    # Resident footprint of the streaming state (the bounded-memory
    # claim SNE exists for): per-edge assignment + visibility mask,
    # per-vertex degrees/coverage, and the probe order.  Deterministic,
    # so backend equivalence can pin it alongside the assignment.
    state_bytes = (state.assignment.nbytes + allowed.nbytes
                   + state.rest_degree.nbytes + state.in_part.nbytes
                   + state._probe_order.nbytes)
    extra = {"alpha": alpha, "buffer_capacity": capacity,
             "state_bytes": int(state_bytes)}
    return state.assignment, extra


class _SneStream(Process):
    """SNE's one process: its one step is the whole stream."""

    _STATE_EXCLUDE = Process._STATE_EXCLUDE | frozenset({"graph"})

    def __init__(self, pid, graph: CSRGraph, params: tuple):
        super().__init__(pid)
        self.graph = graph
        self.params = params

    def stream(self) -> tuple[np.ndarray, dict]:
        return _run_sne_stream(self.graph, *self.params)


@dataclass
class _SneProgram(WorkerProgram):
    """Builds the one-process SNE cluster from the stream parameters."""

    params: tuple

    def build(self, owned_pids, graph, arrays: dict) -> dict:
        return {pid: _SneStream(pid, graph, self.params)
                for pid in owned_pids}


class SNEPartitioner(Partitioner):
    """Streaming NE with a bounded in-memory edge buffer."""

    name = "sne"

    def __init__(self, num_partitions: int, seed: int = 0,
                 alpha: float = 1.1, kernel: str = "vectorized",
                 backend: str = "simulated", workers: int | None = None,
                 checkpoint_dir: str | None = None, resume: bool = False,
                 step_timeout: float | None = None, max_retries: int = 0,
                 fault_plan=None, tracer=None):
        super().__init__(num_partitions, seed)
        if alpha < 1.0:
            raise ValueError("imbalance factor alpha must be >= 1.0")
        self.alpha = alpha
        self.kernel = validate_kernel(kernel)
        validate_execution_args(backend, workers, step_timeout, max_retries,
                                fault_plan, checkpoint_dir, resume)
        self.backend = backend
        self.workers = workers
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.step_timeout = step_timeout
        self.max_retries = max_retries
        self.fault_plan = fault_plan
        self.tracer = tracer

    def _partition(self, graph: CSRGraph) -> EdgePartition:
        tracer = self.tracer if self.tracer is not None else NULL_TRACER
        program = _SneProgram((self.num_partitions, self.seed, self.alpha,
                               self.kernel, self.checkpoint_dir,
                               self.resume))
        pid = ("sne", 0)
        t0 = time.perf_counter() if tracer.enabled else 0.0
        backend = create_backend(self.backend, self.workers,
                                 self.step_timeout, self.max_retries,
                                 self.fault_plan)
        try:
            backend.start(SimulatedCluster(), program, [pid], graph)
            assignment, extra = backend.run_superstep(
                [(pid, "stream", ())])[pid].value
        finally:
            backend.close()
        if tracer.enabled:
            # One span for the whole run (one superstep of one process
            # on every backend, so the structure is backend-independent
            # by construction); backend identity rides in a metadata
            # event, like the DNE driver's.
            tracer.metadata("backend", {"name": self.backend})
            tracer.span("run:sne", cat="run",
                        seconds=time.perf_counter() - t0,
                        args={"method": self.name, "kernel": self.kernel,
                              "partitions": self.num_partitions})
        extra["backend"] = self.backend
        return EdgePartition(graph, self.num_partitions, assignment,
                             method=self.name, extra=extra)
