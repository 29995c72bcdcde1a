"""Command-line interface.

Mirrors the workflow of the paper's released tool: partition a graph
from a file or a registered dataset, inspect a saved partition, list
available methods/datasets, or run one of the evaluation experiments.

Examples::

    python -m repro list
    python -m repro partition --dataset pokec --method distributed_ne \
        --partitions 16 --out pokec.part.npz --store runs.sqlite
    python -m repro partition --edges my_graph.tsv --method ne -p 8
    python -m repro inspect pokec.part.npz
    python -m repro serve --store runs.sqlite --port 8080
    python -m repro store import runs.sqlite "benchmarks/results/*.json"
    python -m repro experiment fig6 --dataset pokec
    python -m repro bench perf --scales 12 14 17 --out BENCH_kernels.json

The CLI is a thin shell over the library; everything it does is also
available programmatically (see README quickstart).

Flag scoping: options that only apply to some methods live in their
own argument groups under ``partition`` (execution backend for
``distributed_ne``/``sne``; checkpoint/fault-tolerance flags likewise,
with ``--step-timeout``/``--max-retries`` further requiring
``--backend processes``) and appear under no other subcommand.  The
CLI validates the combination before running and exits 2 with a
specific message on a mismatch.
"""

from __future__ import annotations

import argparse
import inspect
import logging
import sys

import numpy as np

from repro.bench import experiments as experiment_drivers
from repro.bench.harness import format_table
from repro.cluster.backends import BACKENDS
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASETS, load_dataset
from repro.graph.edgelist import load_edges_tsv
from repro.kernels import KERNELS
from repro.partitioners import PARTITIONER_REGISTRY
from repro.partitioners.io import load_partition, save_partition

__all__ = ["main", "build_parser"]

_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")

#: all CLI diagnostics flow through the ``repro.*`` logger namespace;
#: command *output* (tables, metrics, stored-run ids) stays on stdout
_log = logging.getLogger("repro.cli")


def _configure_logging(level_name: str) -> None:
    """Route ``repro.*`` diagnostics to stderr at the requested level.

    The handler is attached once to the namespace root (``repro``) and
    propagation stays on, so embedding applications and pytest's
    ``caplog`` see the records too.  Default WARNING keeps tier-1
    output byte-identical to the pre-logging CLI.
    """
    logger = logging.getLogger("repro")
    logger.setLevel(getattr(logging, level_name))
    if not logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)

#: experiment name -> (driver, kwargs builder)
_EXPERIMENTS = {
    "fig6": lambda args: experiment_drivers.fig6_lambda_sweep(
        load_dataset(args.dataset), num_partitions=args.partitions),
    "table1": lambda args: experiment_drivers.table1_bounds(),
    "theorem2": lambda args: experiment_drivers.theorem2_tightness(),
    "fig8": lambda args: experiment_drivers.fig8_replication_factor(
        datasets=(args.dataset,), partition_counts=(args.partitions,)),
    "fig9": lambda args: experiment_drivers.fig9_memory(
        datasets=(args.dataset,), num_partitions=args.partitions),
    "fig10j": lambda args: experiment_drivers.fig10j_weak_scaling(),
    "table4": lambda args: experiment_drivers.table4_sequential_comparison(
        datasets=(args.dataset,), num_partitions=args.partitions),
    "table5": lambda args: experiment_drivers.table5_applications(
        datasets=(args.dataset,), num_partitions=args.partitions),
    "table6": lambda args: experiment_drivers.table6_road_networks(
        num_partitions=args.partitions),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed NE reproduction: partition graphs and "
                    "rerun the paper's experiments.")
    parser.add_argument("--log-level", choices=_LOG_LEVELS,
                        default="WARNING",
                        help="diagnostic verbosity on stderr for the "
                             "repro.* loggers (default WARNING; command "
                             "output on stdout is unaffected)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list methods and datasets")

    p_part = sub.add_parser(
        "partition", help="partition a graph",
        epilog="The execution-backend and fault-tolerance groups only "
               "apply to the methods named in their titles; other "
               "methods reject those flags with exit code 2.")
    source = p_part.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", help="registered dataset stand-in")
    source.add_argument("--edges", help="TSV edge-list file (src\\tdst)")
    p_part.add_argument("--method", default="distributed_ne",
                        choices=sorted(PARTITIONER_REGISTRY))
    p_part.add_argument("--partitions", "-p", type=int, default=16)
    p_part.add_argument("--seed", type=int, default=0)
    p_part.add_argument("--kernel", choices=KERNELS, default=None,
                        help="implementation to run for methods with a "
                             "kernel= flag (default: the method's own "
                             "default, i.e. vectorized)")
    p_part.add_argument("--out", help="write result to this .npz path")
    p_part.add_argument("--store", metavar="DB",
                        help="also record the run (assignment arrays, "
                             "replica sets, metrics) in this SQLite "
                             "run store, servable via `repro serve`")
    p_part.add_argument("--store-label", default=None,
                        help="label for the stored run (default: the "
                             "dataset or edges path)")

    g_backend = p_part.add_argument_group(
        "execution backend (distributed_ne, sne only)",
        "Who runs the per-partition supersteps.  Other methods have "
        "no backend= flag and reject these.")
    g_backend.add_argument("--backend", choices=BACKENDS, default=None,
                           help="simulated scheduler (default), thread "
                                "pool, or shared-memory worker "
                                "processes")
    g_backend.add_argument("--workers", type=int, default=None,
                           help="worker count for the threads/processes "
                                "backends (default 4)")

    g_fault = p_part.add_argument_group(
        "checkpointing and fault tolerance (distributed_ne, sne only)",
        "Superstep-granular checkpoint/resume on any backend; worker "
        "supervision (--step-timeout/--max-retries) additionally "
        "requires --backend processes.")
    g_fault.add_argument("--checkpoint-dir", default=None,
                         help="directory for superstep-granular "
                              "checkpoints")
    g_fault.add_argument("--checkpoint-every", type=int, default=None,
                         help="checkpoint cadence in iterations "
                              "(distributed_ne; default 1)")
    g_fault.add_argument("--resume", action="store_true",
                         help="resume from the newest checkpoint in "
                              "--checkpoint-dir (bit-identical to the "
                              "uninterrupted run)")
    g_fault.add_argument("--step-timeout", type=float, default=None,
                         help="seconds before a worker reply counts as "
                              "hung (requires --backend processes)")
    g_fault.add_argument("--max-retries", type=int, default=None,
                         help="respawn-and-retry budget for failed/"
                              "hung workers (requires --backend "
                              "processes)")

    g_obs = p_part.add_argument_group(
        "observability (methods with a tracer= flag)",
        "Strictly observational: tracing on vs off is bit-identical "
        "on assignments and accounting totals.")
    g_obs.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write per-phase/per-superstep spans as "
                            "Chrome trace-event JSON (loadable in "
                            "Perfetto / chrome://tracing; summarize "
                            "with `repro trace summarize FILE`)")

    p_inspect = sub.add_parser("inspect",
                               help="print metrics of a saved partition")
    p_inspect.add_argument("path")

    p_serve = sub.add_parser(
        "serve", help="serve a run store over async HTTP (docs/API.md)")
    p_serve.add_argument("--store", required=True, metavar="DB",
                         help="SQLite run store written by `repro "
                              "partition --store` or `repro store "
                              "import`")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument("--hot-vertices", type=int, default=4096,
                         help="capacity of the hot-vertex LRU read "
                              "cache (default 4096)")

    p_store = sub.add_parser(
        "store", help="inspect or backfill a run store")
    store_sub = p_store.add_subparsers(dest="store_command",
                                       required=True)
    p_import = store_sub.add_parser(
        "import", help="import benchmarks/results/*.json experiment "
                       "rows as metrics-only runs")
    p_import.add_argument("db", help="run store path (created if absent)")
    p_import.add_argument("patterns", nargs="+",
                          help="JSON files or globs to import")
    p_list = store_sub.add_parser("list", help="list stored runs")
    p_list.add_argument("db")
    p_list.add_argument("--limit", type=int, default=50)
    p_list.add_argument("--offset", type=int, default=0)

    p_exp = sub.add_parser("experiment", help="run an evaluation driver")
    p_exp.add_argument("name", choices=sorted(_EXPERIMENTS))
    p_exp.add_argument("--dataset", default="pokec")
    p_exp.add_argument("--partitions", "-p", type=int, default=16)

    p_bench = sub.add_parser(
        "bench", help="performance benchmarks of the library itself")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_perf = bench_sub.add_parser(
        "perf", help="time vectorized vs reference kernels on RMAT graphs")
    p_perf.add_argument("--scales", type=int, nargs="+", default=[12, 14, 17],
                        metavar="LOG2_EDGES",
                        help="log2 target edge counts (default: 12 14 17)")
    p_perf.add_argument("--seed", type=int, default=0)
    p_perf.add_argument("--out", default="BENCH_kernels.json",
                        help="JSON output path ('-' to skip writing)")

    p_trace = sub.add_parser(
        "trace", help="work with Chrome trace-event files from "
                      "--trace-out")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_summarize = trace_sub.add_parser(
        "summarize", help="print a per-phase time/ops table for a trace")
    p_summarize.add_argument("path", help="trace JSON from --trace-out or "
                                          "GET /api/runs/{id}/trace")

    p_app = sub.add_parser(
        "app", help="run a graph application on a saved partition")
    p_app.add_argument("name", choices=["sssp", "wcc", "pagerank"])
    p_app.add_argument("path", help="partition file from `repro partition`")
    p_app.add_argument("--source", type=int, default=0,
                       help="SSSP source vertex")
    p_app.add_argument("--iterations", type=int, default=20,
                       help="PageRank iterations")

    return parser


def _cmd_list(args) -> int:
    print("partitioners:")
    for name in sorted(PARTITIONER_REGISTRY):
        print(f"  {name}")
    print("datasets:")
    for name, spec in sorted(DATASETS.items()):
        kind = "skewed" if spec.skewed else "road"
        print(f"  {name:14s} ({kind}; paper size "
              f"{spec.paper_vertices:,} vertices / "
              f"{spec.paper_edges:,} edges)")
    return 0


def _cmd_partition(args) -> int:
    if args.dataset:
        graph = load_dataset(args.dataset, seed=args.seed)
        label = args.dataset
    else:
        graph = CSRGraph(load_edges_tsv(args.edges))
        label = args.edges
    _log.info("%s: %d vertices, %d edges", label, graph.num_vertices,
              graph.num_edges)

    cls = PARTITIONER_REGISTRY[args.method]
    params = inspect.signature(cls.__init__).parameters
    kwargs = {}
    if args.kernel is not None:
        if "kernel" not in params:
            _log.error("method %r has no kernel= flag", args.method)
            return 2
        kwargs["kernel"] = args.kernel
    if args.workers is not None and args.backend not in ("threads",
                                                         "processes"):
        _log.error("--workers requires --backend threads|processes")
        return 2
    if args.backend is not None:
        if "backend" not in params:
            _log.error("method %r has no backend= flag", args.method)
            return 2
        kwargs["backend"] = args.backend
        if args.workers is not None:
            kwargs["workers"] = args.workers
    if args.resume and args.checkpoint_dir is None:
        _log.error("--resume requires --checkpoint-dir")
        return 2
    if args.checkpoint_every is not None and args.checkpoint_dir is None:
        _log.error("--checkpoint-every requires --checkpoint-dir")
        return 2
    if args.checkpoint_dir is not None:
        if "checkpoint_dir" not in params:
            _log.error("method %r has no checkpoint_dir= flag", args.method)
            return 2
        kwargs["checkpoint_dir"] = args.checkpoint_dir
        kwargs["resume"] = args.resume
        if args.checkpoint_every is not None:
            if "checkpoint_every" not in params:
                _log.error("method %r has no checkpoint_every= flag",
                           args.method)
                return 2
            kwargs["checkpoint_every"] = args.checkpoint_every
    if args.step_timeout is not None or args.max_retries is not None:
        if args.backend != "processes":
            _log.error("--step-timeout/--max-retries require "
                       "--backend processes")
            return 2
        if args.step_timeout is not None:
            kwargs["step_timeout"] = args.step_timeout
        if args.max_retries is not None:
            kwargs["max_retries"] = args.max_retries
    tracer = None
    if args.trace_out is not None:
        if "tracer" not in params:
            _log.error("method %r has no tracer= flag", args.method)
            return 2
        from repro.observability import Tracer
        tracer = Tracer()
        kwargs["tracer"] = tracer
    try:
        partitioner = cls(args.partitions, seed=args.seed, **kwargs)
    except ValueError as exc:  # out-of-range argument value
        _log.error("%s", exc)
        return 2
    result = partitioner.partition(graph)
    print(f"method={result.method} partitions={args.partitions}")
    if args.kernel is not None:
        print(f"  kernel             : {args.kernel}")
    if args.backend is not None:
        print(f"  backend            : {args.backend}"
              + (f" ({args.workers} workers)" if args.workers else ""))
    print(f"  replication factor : {result.replication_factor():.3f}")
    print(f"  edge balance       : {result.edge_balance():.3f}")
    print(f"  vertex balance     : {result.vertex_balance():.3f}")
    print(f"  elapsed            : {result.elapsed_seconds:.2f}s")
    if result.iterations:
        print(f"  iterations         : {result.iterations}")

    if tracer is not None:
        tracer.write(args.trace_out)
        print(f"  trace              : {args.trace_out} "
              f"({len(tracer)} events)")
    if args.out:
        save_partition(args.out, result)
        print(f"  saved to           : {args.out}")
    if args.store:
        from repro.serving import RunStore
        with RunStore(args.store) as store:
            run_id = store.add_run(result, seed=args.seed,
                                   label=args.store_label or label)
        print(f"  stored as run      : {run_id} (in {args.store})")
    return 0


def _cmd_serve(args) -> int:
    from repro.serving import RunStore, ServingAPI, serve
    store = RunStore(args.store)
    api = ServingAPI(store, hot_vertices=args.hot_vertices)
    print(f"serving {args.store} ({store.run_count()} runs) on "
          f"http://{args.host}:{args.port}/api — Ctrl-C to stop")
    serve(api, host=args.host, port=args.port)
    return 0


def _cmd_store(args) -> int:
    from repro.serving import RunStore, import_results
    with RunStore(args.db) as store:
        if args.store_command == "import":
            run_ids = import_results(store, args.patterns)
            print(f"imported {len(run_ids)} runs into {args.db} "
                  f"({store.run_count()} total)")
            return 0
        rows = store.list_runs(limit=args.limit, offset=args.offset)
        if not rows:
            print("no runs")
            return 1
        headers = ["run_id", "label", "method", "num_partitions",
                   "num_edges", "status", "created_utc"]
        print(format_table(
            headers, [[row.get(h, "") for h in headers] for row in rows],
            title=f"runs in {args.db}"))
        return 0


def _cmd_inspect(args) -> int:
    from repro.metrics.report import format_report, partition_report
    result = load_partition(args.path)
    print(f"{args.path}:")
    print(format_report(partition_report(result)))
    return 0


def _cmd_experiment(args) -> int:
    rows = _EXPERIMENTS[args.name](args)
    if not rows:
        print("no rows")
        return 1
    if isinstance(rows, dict):
        rows = [rows]
    headers = list(rows[0].keys())
    print(format_table(headers,
                       [[row.get(h, "") for h in headers] for row in rows],
                       title=f"experiment: {args.name}"))
    return 0


def _cmd_bench(args) -> int:
    from repro.bench.perf import run_perf
    out = None if args.out == "-" else args.out
    doc = run_perf(edge_scales=tuple(args.scales), out=out, seed=args.seed)
    headers = ["kernel", "edge_scale", "edges", "python_seconds",
               "vectorized_seconds", "speedup", "vectorized_spread",
               "rate", "rate_unit"]
    print(format_table(
        headers,
        [[row.get(h, "") for h in headers] for row in doc["kernels"]],
        title="kernel microbenchmarks (vectorized vs python reference, "
              "min of repeats)"))
    if out:
        print(f"written to {out}")
    return 0


def _cmd_trace(args) -> int:
    from repro.observability import load_trace, summarize
    try:
        rows = summarize(load_trace(args.path))
    except (OSError, ValueError) as exc:
        _log.error("cannot read trace %s: %s", args.path, exc)
        return 2
    if not rows:
        print("no spans")
        return 1
    headers = ["cat", "name", "count", "total_ms", "executed", "skipped"]
    print(format_table(
        headers, [[row.get(h, "") for h in headers] for row in rows],
        title=f"trace: {args.path}"))
    return 0


def _cmd_app(args) -> int:
    from repro.apps import pagerank, sssp, wcc
    part = load_partition(args.path)
    if args.name == "sssp":
        values, stats = sssp(part, source=args.source)
        finite = values[np.isfinite(values)] if len(values) else values
        print(f"sssp from {args.source}: reached {len(finite)} vertices, "
              f"eccentricity {int(finite.max()) if len(finite) else 0}")
    elif args.name == "wcc":
        labels, stats = wcc(part)
        print(f"wcc: {len(set(labels.tolist()))} components")
    else:
        ranks, stats = pagerank(part, iterations=args.iterations)
        top = int(ranks.argmax())
        print(f"pagerank: top vertex {top} (rank {ranks[top]:.2e})")
    print(f"  supersteps        : {stats.supersteps}")
    print(f"  communication     : {stats.comm_bytes:,} bytes")
    print(f"  workload balance  : {stats.workload_balance():.3f}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args.log_level)
    handlers = {
        "list": _cmd_list,
        "partition": _cmd_partition,
        "inspect": _cmd_inspect,
        "serve": _cmd_serve,
        "store": _cmd_store,
        "experiment": _cmd_experiment,
        "bench": _cmd_bench,
        "trace": _cmd_trace,
        "app": _cmd_app,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`) — exit quietly.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
