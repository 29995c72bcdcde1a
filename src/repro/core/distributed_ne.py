"""Distributed NE — the paper's primary contribution, end to end.

:class:`DistributedNE` wires ``|P|`` expansion processes and ``|P|``
allocation processes into a :class:`~repro.cluster.runtime.SimulatedCluster`
and drives the iteration loop of Figure 4:

=====  ==================================================================
Step   Action
=====  ==================================================================
1      every live expansion process selects its ``k = ceil(λ|B|)``
       minimum-Drest boundary vertices (or one random seed) and
       multicasts ⟨v, p⟩ to v's replica allocation processes
2      barrier — allocators receive the selections
3      allocators run one-hop allocation and send replica syncs
4      barrier — allocators merge syncs, run two-hop allocation,
       compute local Drest, send new boundary + new edges to expanders
5      barrier — expanders fold results in; AllGatherSum of |E_p|
       decides termination (size limit or all edges allocated)
=====  ==================================================================

One outer pass of steps 1–5 is one *iteration* (the unit Figure 6
counts; it costs three global barriers).  Defaults follow §7.1:
``alpha = 1.1``, ``lam = 0.1``.

The run never leaves edges behind: the loop exits only when every edge
is allocated (as proved in §3 at least one partition stays below cap
until the graph drains; a final safety sweep covers the pathological
case of a partition-capped tail, assigning leftovers to the
least-loaded partitions).  A partition over its size cap stops
expanding, and no edge reaches it afterwards — measured on RMAT scale
13 at |P| = 64 and 256, 0 edges: all of a partition's overshoot lands
in the iteration that crosses the cap.

Execution backends
------------------
The phase loop is expressed as *supersteps* against an execution
backend (:mod:`repro.cluster.backends`), entered one way:
``backend.start`` takes a :class:`DneWorkerProgram`, the pids
(allocators, then expanders) and the program's arrays (the canonical
edge array, home-grouped edge ids, each allocator's local-vertex ids
and remaining degrees), and builds the processes where they run —
in-process for ``backend="simulated"`` (default; inline, in
deterministic order) and ``"threads"`` (a thread pool over the
GIL-releasing NumPy kernels), inside worker processes over
shared-memory copies for ``"processes"`` (only message payloads — one
``SegmentBatch`` per emission sweep under the vectorized kernel —
cross the parent boundary).  Per phase, the driver submits one step
per process.  All three produce bit-identical assignments and
accounting totals — the backend only changes *where* the arithmetic
happens, pinned by ``tests/test_backends.py``.

Two kernels, one dispatch rule
------------------------------
``kernel="python"`` runs the reference step methods one process at a
time; ``kernel="vectorized"`` runs every mail-carrying phase through a
:class:`~repro.core.fused.FusedDnePlane` — every scheduler (the
in-process backends, each worker of the processes backend) builds one
over the processes it owns iff the kernel is vectorized.  There is no
third arm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from repro.cluster.backends import (WorkerProgram, create_backend,
                                    validate_execution_args)
from repro.cluster.checkpoint import CheckpointMismatch, CheckpointStore
from repro.cluster.runtime import SimulatedCluster
from repro.core.allocation import (TAG_BOUNDARY, TAG_EDGES, TAG_SELECT,
                                   TAG_SYNC, AllocationProcess)
from repro.core.expansion import ExpansionProcess, SharedSeedSource
from repro.core.fused import FusedDnePlane
from repro.core.hash2d import Hash1DPlacement, Hash2DPlacement
from repro.graph.csr import CSRGraph
from repro.kernels import validate_kernel
from repro.observability.metrics import get_registry
from repro.observability.trace import NULL_TRACER
from repro.partitioners.base import (EdgePartition, Partitioner,
                                     fill_least_loaded)

__all__ = ["DistributedNE", "DneWorkerProgram"]

#: layout version of DNE's snapshots, checked on resume like the rest
#: of ``meta``: bump it when the payload's layout changes (a
#: ``_LoopState`` field added or dropped is also caught by name)
_CHECKPOINT_FORMAT = 1


@dataclass
class DneWorkerProgram(WorkerProgram):
    """Builds a share of the DNE cluster.

    :meth:`arrays` is everything :meth:`build` reads besides the
    program's own fields (|V| among them): the canonical edge array
    ``edges`` — the only graph array a machine reads, no adjacency —
    the edge ids grouped by home allocator (the initial distribution),
    and per allocator its local-vertex ids ``lv<k>`` and remaining
    degrees ``rd<k>``.  ``build`` constructs
    the owned allocation/expansion processes (each worker of the
    processes backend recomputes its local adjacency in parallel),
    points every allocator's local-vertex and remaining-degree arrays
    at the shared ones — one copy, written by its owner, read by every
    expander's seed scans — and gives its expanders a
    :class:`~repro.core.expansion.SharedSeedSource` over all of them.
    """

    num_partitions: int
    placement: object
    two_hop: bool
    kernel: str
    lam: float
    seed: int
    seed_strategy: str
    limit: int
    num_vertices: int

    def arrays(self, edges: np.ndarray) -> dict:
        """The named arrays :meth:`build` reads, over the canonical
        ``edges``; the ``rd<k>`` are filled by the allocator that owns
        them, at build time."""
        p = self.num_partitions
        homes = self.placement.place_edges(edges) \
            if len(edges) else np.empty(0, dtype=np.int64)
        # One stable grouping pass instead of |P| O(E) flatnonzero
        # scans: slice k of eids_by_home is exactly
        # np.flatnonzero(homes == k) (stable sort keeps edge ids
        # ascending within a home).
        eids_by_home = np.argsort(homes, kind="stable").astype(
            np.int64, copy=False)
        eids_ptr = np.zeros(p + 1, dtype=np.int64)
        np.cumsum(np.bincount(homes, minlength=p), out=eids_ptr[1:])
        arrays = {"edges": edges, "eids_by_home": eids_by_home,
                  "eids_ptr": eids_ptr}
        # A home's sorted distinct endpoints, by marking them on one
        # reused per-vertex mask: half the time of a sort per home at
        # |P| = 8, where the homes are largest.
        seen = np.zeros(self.num_vertices, dtype=bool)
        for k in range(p):
            seen[edges[eids_by_home[eids_ptr[k]:eids_ptr[k + 1]]]] = True
            lv = arrays[f"lv{k}"] = np.flatnonzero(seen)
            seen[lv] = False
            arrays[f"rd{k}"] = np.zeros(len(lv), dtype=np.int32)
        return arrays

    def build(self, owned_pids, arrays: dict) -> dict:
        edges = arrays["edges"]
        eids_by_home, eids_ptr = arrays["eids_by_home"], arrays["eids_ptr"]
        parts = range(self.num_partitions)
        seed_source = SharedSeedSource([arrays[f"lv{k}"] for k in parts],
                                       [arrays[f"rd{k}"] for k in parts])
        procs = {}
        for role, k in owned_pids:
            if role == "alloc":
                proc = AllocationProcess(
                    k, edges, self.num_vertices,
                    eids_by_home[eids_ptr[k]:eids_ptr[k + 1]],
                    self.placement, two_hop=self.two_hop, kernel=self.kernel)
                # Same contents (the home's sorted endpoint ids), one copy.
                proc.local_vertices = arrays[f"lv{k}"]
                shared_rd = arrays[f"rd{k}"]
                shared_rd[:] = proc.rest_degree
                proc.rest_degree = shared_rd
            else:
                proc = ExpansionProcess(
                    k, self.num_partitions, self.limit, len(edges),
                    self.lam, self.seed, self.placement,
                    seed_strategy=self.seed_strategy, kernel=self.kernel,
                    seed_source=seed_source)
            procs[role, k] = proc
        return procs

    def build_plane(self, procs: dict):
        if self.kernel != "vectorized":
            return None
        return FusedDnePlane(list(procs.values()), self.placement)


@dataclass
class _LoopState:
    """The driver's loop variables — and, saved whole, the checkpoint's
    ``loop`` entry: a field added here joins the snapshot by
    construction (the resume bit-identity rule of
    :mod:`repro.cluster.checkpoint`)."""

    prev_sel_ops: dict
    prev_alloc_ops: dict
    #: expanders whose selection step would be ``return 0``
    finished_prev: dict
    iterations: int = 0
    # Simulated *parallel* phase times: per iteration, the slowest
    # process defines the phase cost (the cluster's wall clock).
    parallel_selection: float = 0.0
    parallel_allocation: float = 0.0
    # Modeled phase costs (deterministic, kernel-independent): per
    # iteration the slowest process's op count defines the phase —
    # selection ops are multicast ⟨vertex, replica⟩ pairs, allocation
    # ops are adjacency slots touched (the Theorem 3 units).
    model_selection: int = 0
    model_allocation: int = 0
    history: list = field(default_factory=list)


class DistributedNE(Partitioner):
    """Parallel-expansion edge partitioner (Hanai et al., VLDB 2019).

    Parameters
    ----------
    num_partitions:
        ``|P|`` — also the number of simulated machines (the paper
        deploys one expansion + one allocation process per machine).
    seed:
        Seed for seed-vertex selection and hash placement.
    alpha:
        Imbalance factor of Equation 2 (paper default 1.1).
    lam:
        Multi-expansion factor λ of Algorithm 4 (paper default 0.1).
        ``lam -> 0`` degenerates to single-vertex expansion
        (Algorithm 1); ``lam = 1`` flushes the whole boundary each
        iteration.
    two_hop:
        Enable the two-hop (Condition 5) allocation phase.  Disabling
        it is the ablation for the greedy's "free edges" rule.
    placement:
        ``"2d"`` (paper) or ``"1d"`` initial edge distribution.
    seed_strategy:
        ``"random"`` (paper) or ``"min_degree"`` seed-vertex choice.
    max_iterations:
        Safety valve for pathological inputs: stop after this many
        iterations (at least 1); ``None`` = unbounded.
    collect_history:
        When True, record a per-iteration trace (allocated edges,
        boundary sizes, live partitions, vertices selected) into
        ``extra["history"]`` — the raw series behind Figure 6-style
        plots.
    kernel:
        ``"vectorized"`` (default) runs the allocation *and* selection
        phases as the flat-array kernels of
        :class:`~repro.core.fused.FusedDnePlane`: every
        selection/one-hop/two-hop/update superstep is one segmented
        kernel call over all the scheduler's processes (machine id as
        a data axis) instead of ``|P|`` small ones — batched one/two-hop
        allocation (loads-delta batching for the two-hop tie-break),
        one segmented boundary store, enumerated multicast fan-out —
        and every emission sweep is one ``SegmentBatch`` from kernel to
        mailbox to the next phase's input, which is what breaks the
        |P| ≫ 64 dispatch-overhead crossover.  ``"python"`` runs the
        per-slot/per-pair reference loops, one step per process, one
        message per destination.  Both produce bit-identical
        assignments, counters, message traffic and memory totals
        (pinned by the kernel equivalence tests).
        At ``num_partitions > 64`` the vectorized replica membership
        switches to the packed uint64-bitset backend
        (``extra["membership"]``), still bit-identical.
    backend:
        Execution backend for the per-partition supersteps:
        ``"simulated"`` (default, inline deterministic scheduler),
        ``"threads"`` (thread pool) or ``"processes"``
        (shared-memory worker processes).  Orthogonal to ``kernel``;
        all three backends are bit-identical on assignments and
        accounting totals.
    workers:
        Worker count for the parallel backends (default 4; ignored by
        ``"simulated"``).
    checkpoint_dir:
        Directory for superstep-granular checkpoints (any backend).
        At every ``checkpoint_every``-th iteration boundary — a point
        where all mailboxes are provably empty — the driver snapshots
        every process's mutable state, the accounting totals, the
        superstep ledger, and its own loop variables to an atomic
        on-disk store (:class:`~repro.cluster.checkpoint.CheckpointStore`).
    checkpoint_every:
        Checkpoint cadence in iterations (default 1).
    resume:
        Restart from the newest snapshot in ``checkpoint_dir`` (fresh
        start when the store is empty).  The snapshot's ``meta`` must
        match this run's configuration (graph shape, seed, kernel,
        |P|, ...) or the resume fails loudly; a resumed run is
        bit-identical to the uninterrupted one (pinned by
        ``tests/test_faults.py``).  Resuming on a *different backend*
        than the one that wrote the snapshot is supported — state
        blobs are backend-neutral.
    step_timeout:
        (``backend="processes"`` only) seconds to wait for any worker
        reply before surfacing a
        :class:`~repro.cluster.backends.base.WorkerStepError`; ``None``
        waits forever.
    max_retries:
        (``backend="processes"`` only) respawn-and-retry budget per
        superstep: failed/hung workers are rebuilt from their last
        snapshot and the step re-run, recovering bit-identically.
    fault_plan:
        (``backend="processes"`` only) a
        :class:`~repro.cluster.backends.faults.FaultPlan` injecting
        deterministic worker faults — the test harness for the above.
    tracer:
        A :class:`~repro.observability.trace.Tracer` collecting
        per-phase and per-superstep spans (``None``, the default, is
        the shared no-op).  Strictly observational: tracing on vs off
        is bit-identical on assignments and every accounting total,
        and span *structure* is identical across backends — both
        pinned by ``tests/test_observability.py``.
    """

    name = "distributed_ne"

    def __init__(self, num_partitions: int, seed: int = 0,
                 alpha: float = 1.1, lam: float = 0.1,
                 two_hop: bool = True, placement: str = "2d",
                 seed_strategy: str = "random",
                 max_iterations: int | None = None,
                 collect_history: bool = False,
                 kernel: str = "vectorized",
                 backend: str = "simulated",
                 workers: int | None = None,
                 checkpoint_dir: str | None = None,
                 checkpoint_every: int = 1,
                 resume: bool = False,
                 step_timeout: float | None = None,
                 max_retries: int = 0,
                 fault_plan=None,
                 tracer=None):
        super().__init__(num_partitions, seed)
        if alpha < 1.0:
            raise ValueError("imbalance factor alpha must be >= 1.0")
        if not 0.0 < lam <= 1.0:
            raise ValueError("expansion factor lam must be in (0, 1]")
        if placement not in ("2d", "1d"):
            raise ValueError("placement must be '2d' or '1d'")
        if seed_strategy not in ("random", "min_degree"):
            raise ValueError("seed_strategy must be 'random' or 'min_degree'")
        if max_iterations is not None and max_iterations < 1:
            raise ValueError("max_iterations must be >= 1 (or None)")
        self.alpha = alpha
        self.lam = lam
        self.two_hop = two_hop
        self.placement_kind = placement
        self.seed_strategy = seed_strategy
        self.max_iterations = max_iterations
        self.collect_history = collect_history
        validate_kernel(kernel)
        self.kernel = kernel
        validate_execution_args(backend, workers, step_timeout, max_retries,
                                fault_plan, checkpoint_dir, resume)
        self.backend = backend
        self.workers = workers
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.resume = resume
        self.step_timeout = step_timeout
        self.max_retries = max_retries
        self.fault_plan = fault_plan
        self.tracer = tracer

    # ------------------------------------------------------------------
    def _partition(self, graph: CSRGraph) -> EdgePartition:
        p = self.num_partitions
        cluster = SimulatedCluster()

        if self.placement_kind == "2d":
            placement = Hash2DPlacement(p, seed=self.seed)
        else:
            placement = Hash1DPlacement(p, seed=self.seed)

        alloc_pids = [("alloc", k) for k in range(p)]
        exp_pids = [("expansion", k) for k in range(p)]
        limit = max(1, int(np.ceil(self.alpha * graph.num_edges / p)))

        # Initial distribution + process construction (excluded from
        # the paper's elapsed time; we time it separately).
        t0 = time.perf_counter()
        program = DneWorkerProgram(
            p, placement, self.two_hop, self.kernel, self.lam,
            self.seed, self.seed_strategy, limit, graph.num_vertices)
        arrays = program.arrays(graph.edges)
        # Checkpoint identity: everything that must agree before a
        # snapshot's state blobs can be poured back into this run.
        # The backend is deliberately absent — blobs are backend-
        # neutral, so a processes-backend run may resume simulated.
        meta = {"partitioner": self.name, "format": _CHECKPOINT_FORMAT,
                "p": p, "seed": self.seed,
                "kernel": self.kernel, "placement": self.placement_kind,
                "alpha": self.alpha, "lam": self.lam,
                "two_hop": self.two_hop,
                "seed_strategy": self.seed_strategy,
                "num_vertices": graph.num_vertices,
                "num_edges": graph.num_edges}
        store = (CheckpointStore(self.checkpoint_dir)
                 if self.checkpoint_dir is not None else None)
        resume_snapshot = store.load_latest() if self.resume else None
        backend = create_backend(self.backend, self.workers,
                                 self.step_timeout, self.max_retries,
                                 self.fault_plan)
        tracer = self.tracer if self.tracer is not None else NULL_TRACER
        backend.tracer = tracer
        if tracer.enabled:
            # Backend identity travels as a metadata event, never as a
            # span arg — span structure must be backend-independent.
            tracer.metadata("backend", {"name": self.backend})
        t_run = time.perf_counter()

        try:
            backend.start(cluster, program, alloc_pids + exp_pids, arrays)
            load_seconds = time.perf_counter() - t0

            # Empty-mailbox short-circuit: a step whose entire input —
            # the mail delivered at the last barrier — is absent is
            # submitted with ``method=None`` (gather-only) on every
            # backend.  The reference step would be a no-op: send sites
            # never emit empty payloads, so `cluster.mail_slots` on the
            # parent mailboxes — one query per tag — is exactly "these
            # steps have work"; skipped steps emit nothing and report
            # nothing, keeping totals identical.
            loop = _LoopState(prev_sel_ops=dict.fromkeys(exp_pids, 0),
                              prev_alloc_ops=dict.fromkeys(alloc_pids, 0),
                              finished_prev=dict.fromkeys(exp_pids, False))
            if resume_snapshot is not None:
                CheckpointStore.check_meta(resume_snapshot, meta)
                # Pour the saved per-process state back through the
                # backend (in-place for shm-backed arrays), swap in the
                # saved accounting, and re-enter the loop exactly where
                # the snapshot left it.  Checkpoints are cut at
                # iteration boundaries, so every mailbox is empty.
                backend.apply_all(
                    "restore_state",
                    {pid: (state,)
                     for pid, state in resume_snapshot["procs"].items()})
                cluster.stats = resume_snapshot["stats"]
                backend.steps_executed, backend.steps_skipped = \
                    resume_snapshot["ledger"]
                loop = _restore_loop(resume_snapshot["loop"])
            while True:
                loop.iterations += 1
                # Step 1: selection + multicast (a finished process's
                # step is `return 0`; skip it).
                sel = backend.run_superstep(
                    [(pid, None if loop.finished_prev[pid]
                      else "select_and_multicast", ())
                     for pid in exp_pids],
                    gather=("selection_ops",),
                    phase=("selection", loop.iterations))
                sent = sum(r.value or 0 for r in sel.values())
                loop.parallel_selection += max(r.seconds for r in sel.values())
                sel_ops = {pid: sel[pid].gathered["selection_ops"]
                           for pid in exp_pids}
                loop.model_selection += max(
                    sel_ops[pid] - loop.prev_sel_ops[pid]
                    for pid in exp_pids)
                loop.prev_sel_ops = sel_ops
                cluster.barrier()  # Step 2

                selected = cluster.mail_slots("alloc", TAG_SELECT)
                one_ran = {pid: pid[1] in selected for pid in alloc_pids}
                one = backend.run_superstep(  # Step 3
                    [(pid, "one_hop_and_sync" if one_ran[pid] else None, ())
                     for pid in alloc_pids],
                    phase=("one_hop", loop.iterations))
                slowest = max(r.seconds for r in one.values())
                cluster.barrier()
                # Two-hop must run whenever one-hop did (it flushes the
                # one-hop outboxes and reports memory) or sync mail
                # arrived; with neither it would only re-report
                # unchanged residents.
                synced = cluster.mail_slots("alloc", TAG_SYNC)
                two = backend.run_superstep(  # Step 4
                    [(pid, "two_hop_and_report"
                      if one_ran[pid] or pid[1] in synced else None, ())
                     for pid in alloc_pids],
                    gather=("ops_one_hop", "ops_two_hop"),
                    phase=("two_hop", loop.iterations))
                slowest = max(slowest,
                              max(r.seconds for r in two.values()))
                loop.parallel_allocation += slowest
                alloc_ops = {
                    pid: (two[pid].gathered["ops_one_hop"]
                          + two[pid].gathered["ops_two_hop"])
                    for pid in alloc_pids}
                loop.model_allocation += max(
                    alloc_ops[pid] - loop.prev_alloc_ops[pid]
                    for pid in alloc_pids)
                loop.prev_alloc_ops = alloc_ops
                cluster.barrier()          # Step 5

                folded = (cluster.mail_slots("expansion", TAG_BOUNDARY)
                          | cluster.mail_slots("expansion", TAG_EDGES))
                upd = backend.run_superstep(
                    [(pid, "update_state" if pid[1] in folded else None, ())
                     for pid in exp_pids],
                    gather=("edge_count",),
                    phase=("update_state", loop.iterations))
                global_allocated = int(cluster.all_gather_sum(
                    {pid: upd[pid].gathered["edge_count"]
                     for pid in exp_pids}))
                term_gather = (("finished", "boundary_size")
                               if self.collect_history else ("finished",))
                term = backend.run_superstep(
                    [(pid, "check_termination", (global_allocated,))
                     for pid in exp_pids],
                    gather=term_gather,
                    phase=("check_termination", loop.iterations))
                loop.finished_prev = {pid: term[pid].gathered["finished"]
                                      for pid in exp_pids}

                if self.collect_history:
                    loop.history.append({
                        "iteration": loop.iterations,
                        "allocated_edges": global_allocated,
                        "vertices_selected": sent,
                        "boundary_total": sum(
                            term[pid].gathered["boundary_size"]
                            for pid in exp_pids),
                        "live_partitions": sum(
                            not term[pid].gathered["finished"]
                            for pid in exp_pids),
                    })

                if global_allocated >= graph.num_edges:
                    break
                if sent == 0 and all(term[pid].gathered["finished"]
                                     for pid in exp_pids):
                    break  # capped tail: leftovers handled by the sweep
                if sent == 0 and not folded:
                    # Edges left, a partition live, yet nothing selected
                    # and nothing allocated: no state moved, so every
                    # later iteration would repeat this one.  A correct
                    # run cannot get here (a live expander always finds
                    # a seed while an edge is left); lost mail can.
                    raise RuntimeError(
                        f"distributed_ne stalled in iteration "
                        f"{loop.iterations}: no vertex selected and no "
                        f"edge allocated, with "
                        f"{graph.num_edges - global_allocated} of "
                        f"{graph.num_edges} edges unallocated")
                hit_valve = (self.max_iterations is not None
                             and loop.iterations >= self.max_iterations)
                if store is not None and (
                        hit_valve
                        or loop.iterations % self.checkpoint_every == 0):
                    # Iteration boundary: mailboxes empty, fused-plane
                    # transients drained — the whole run is exactly the
                    # per-process state plus the loop variables.
                    store.save(loop.iterations, {
                        "meta": meta,
                        "procs": backend.call_all(alloc_pids + exp_pids,
                                                  "checkpoint_state"),
                        "stats": cluster.stats,
                        "ledger": (backend.steps_executed,
                                   backend.steps_skipped),
                        "loop": vars(loop),
                    })
                if hit_valve:
                    break

            collected = backend.call_all(exp_pids, "collected_edge_ids")
            assignment = self._collect_assignment(graph, collected)

            exp_stats = backend.gather(
                exp_pids, ("random_seed_requests", "remote_seed_requests"))
            alloc_stats = backend.gather(
                alloc_pids, ("ops_one_hop", "ops_two_hop",
                             "membership_kind"))
        finally:
            backend.close()
            cluster.close()

        if tracer.enabled:
            tracer.span("run:distributed_ne", cat="run",
                        seconds=time.perf_counter() - t_run,
                        args={"method": self.name, "kernel": self.kernel,
                              "partitions": p, "iterations": loop.iterations,
                              "executed": backend.steps_executed,
                              "skipped": backend.steps_skipped})
        registry = get_registry()
        if registry.enabled:
            cluster.stats.record_metrics(registry)

        stats = cluster.stats.summary()
        extra = {
            "alpha": self.alpha,
            "kernel": self.kernel,
            "backend": self.backend,
            "membership": alloc_stats[alloc_pids[0]]["membership_kind"],
            "lambda": self.lam,
            "two_hop": self.two_hop,
            "placement": self.placement_kind,
            "load_seconds": load_seconds,
            # Share of the simulated parallel wall clock spent in the
            # vertex-selection phase (the quantity §7.4 reports growing
            # from <1% at 4 machines to 30.3% at 256): per iteration the
            # slowest process defines each phase's cost.
            "parallel_selection_seconds": loop.parallel_selection,
            "parallel_allocation_seconds": loop.parallel_allocation,
            "selection_share": _share(loop.parallel_selection,
                                      loop.parallel_allocation),
            # Deterministic cost-model share (per-iteration maxima of
            # multicast pairs vs adjacency slots): the noise-free form
            # of the §7.4 trend, identical under both kernels.
            "model_selection_ops": loop.model_selection,
            "model_allocation_ops": loop.model_allocation,
            "selection_share_model": _share(loop.model_selection,
                                            loop.model_allocation),
            "random_seed_requests": sum(
                exp_stats[pid]["random_seed_requests"] for pid in exp_pids),
            "remote_seed_requests": sum(
                exp_stats[pid]["remote_seed_requests"] for pid in exp_pids),
            # Theorem 3 inputs: adjacency slots touched per phase,
            # summed over allocation processes.
            "ops_one_hop": sum(alloc_stats[pid]["ops_one_hop"]
                               for pid in alloc_pids),
            "ops_two_hop": sum(alloc_stats[pid]["ops_two_hop"]
                               for pid in alloc_pids),
            # Superstep dispatch bookkeeping: driver-side skip decisions
            # are backend-independent, so these match across backends.
            "steps_executed": backend.steps_executed,
            "steps_skipped": backend.steps_skipped,
            "cluster": stats,
            "mem_score": (cluster.stats.mem_score(graph.num_edges)
                          if graph.num_edges else float("nan")),
        }
        if self.collect_history:
            extra["history"] = loop.history
        return EdgePartition(graph, p, assignment, method=self.name,
                             iterations=loop.iterations, extra=extra)

    # ------------------------------------------------------------------
    def _collect_assignment(self, graph, collected: dict) -> np.ndarray:
        """Merge the per-expander collected edge ids into one assignment.

        Every allocated edge was shipped to exactly one expansion
        process; any unallocated leftovers (only possible via the
        max_iterations valve or an all-capped tail) are swept to the
        least-loaded partitions to keep the result a true partition.
        """
        assignment = np.full(graph.num_edges, -1, dtype=np.int64)
        for k in range(self.num_partitions):
            assignment[collected[("expansion", k)]] = k
        fill_least_loaded(assignment, self.num_partitions)
        return assignment


def _restore_loop(saved: dict) -> _LoopState:
    """The saved loop variables as a :class:`_LoopState`; a snapshot
    whose field names differ from this build's raises
    :class:`~repro.cluster.checkpoint.CheckpointMismatch` naming each
    unknown or missing field."""
    known = {f.name for f in fields(_LoopState)}
    if set(saved) != known:
        raise CheckpointMismatch(
            {f"loop.{name}": ("present" if name in saved else "missing",
                              "present" if name in known else "missing")
             for name in set(saved) ^ known})
    return _LoopState(**saved)


def _share(part: float, rest: float) -> float:
    """``part``'s share of ``part + rest`` (0 when both are 0)."""
    return part / (part + rest) if part + rest > 0 else 0.0
