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

SNE is Table 4's *sequential* streaming baseline: one stream, one
process, run in-process like NE.  What it shares with Distributed NE
is the on-disk checkpoint plane — with ``checkpoint_dir`` the stream
snapshots its whole state at every partition boundary, and ``resume``
restarts bit-identically from the newest snapshot.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.checkpoint import CheckpointStore
from repro.graph.csr import CSRGraph
from repro.kernels import validate_kernel
from repro.partitioners.base import (EdgePartition, Partitioner,
                                     fill_least_loaded)
from repro.partitioners.ne import ExpansionState

__all__ = ["SNEPartitioner"]

#: buffer capacity in partitions' worth of edges, ``|E| / |P|``
_BUFFER_FACTOR = 16.0

#: layout version of SNE's snapshots, checked on resume like the rest
#: of ``meta``: bump it when the saved keys change
_CHECKPOINT_FORMAT = 1


def _run_sne_stream(graph: CSRGraph, p: int, seed: int, alpha: float,
                    kernel: str, checkpoint_dir: str | None,
                    resume: bool) -> tuple[np.ndarray, dict]:
    """One full SNE stream run; pure function of (graph, parameters).

    With ``checkpoint_dir`` the run snapshots its whole streaming state
    at every partition boundary; ``resume`` restarts from the newest
    snapshot and is bit-identical to the uninterrupted run.
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

    meta = {"partitioner": "sne", "format": _CHECKPOINT_FORMAT, "p": p,
            "seed": seed, "alpha": alpha, "kernel": kernel,
            "num_vertices": graph.num_vertices,
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

    fill_least_loaded(state.assignment, p)
    # Resident footprint of the streaming state (the bounded-memory
    # claim SNE exists for): per-edge assignment + visibility mask,
    # per-vertex degrees/coverage, and the probe order.
    state_bytes = (state.assignment.nbytes + allowed.nbytes
                   + state.rest_degree.nbytes + state.in_part.nbytes
                   + state._probe_order.nbytes)
    extra = {"alpha": alpha, "buffer_capacity": capacity,
             "state_bytes": int(state_bytes)}
    return state.assignment, extra


class SNEPartitioner(Partitioner):
    """Streaming NE with a bounded in-memory edge buffer."""

    name = "sne"

    def __init__(self, num_partitions: int, seed: int = 0,
                 alpha: float = 1.1, kernel: str = "vectorized",
                 checkpoint_dir: str | None = None, resume: bool = False):
        super().__init__(num_partitions, seed)
        if alpha < 1.0:
            raise ValueError("imbalance factor alpha must be >= 1.0")
        if resume and checkpoint_dir is None:
            raise ValueError("resume requires checkpoint_dir")
        self.alpha = alpha
        self.kernel = validate_kernel(kernel)
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume

    def _partition(self, graph: CSRGraph) -> EdgePartition:
        assignment, extra = _run_sne_stream(
            graph, self.num_partitions, self.seed, self.alpha, self.kernel,
            self.checkpoint_dir, self.resume)
        return EdgePartition(graph, self.num_partitions, assignment,
                             method=self.name, extra=extra)
