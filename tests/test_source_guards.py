"""Guards on the sources and on the committed kernel trajectory.

``np.unique`` on int64 hashes and then sorts (and ``return_index`` /
``return_inverse`` add a stable argsort): inside the per-iteration
kernels that was a fifth of a run.  The plane dedups through
``repro.graph.csr.sorted_unique`` / ``first_occurrence`` instead; this
guard keeps a stray ``np.unique(`` from coming back unnoticed.

Row-wise ``np.unique(..., axis=0)`` is worse: a structured-dtype
comparison sort that holds the GIL — 0.4 s per 500k rows, and the
half-second stall every reader of a serving process saw while a job
thread loaded its graph.  Nothing under ``src/repro/graph/`` may call
it; ``canonical_edges`` sorts packed keys instead.

Earn-your-keep (ROADMAP north star: "every second implementation must
earn its keep by measurement or go") is executable too: no vectorized
arm in the committed ``BENCH_kernels.json`` loses to its python
reference, and the selector knobs deleted for losing — a user-set
membership layout, ``kernel=`` on Sheep and Oblivious — stay deleted.

One microbench method: ``bench/perf.py`` reads the clock only inside
``measure`` / ``_timed``, and every committed row carries the repeats,
medians, spreads and rate that method records — the speedup it is
judged on is a ratio of minimums, not one un-warmed pair.

One dispatch rule (PR 18): under ``src/repro/cluster/backends/`` only
``run_steps`` calls the fused plane and only ``run_steps`` arms or
disarms an outbox, so the fused-vs-per-process rule cannot be written
a second time beside it.

Selection and update are segment kernels (PR 19): the per-process
array queue is gone — its name appears nowhere under ``src/``, the
heapq reference aside — and the DNE driver asks the cluster which
slots have mail once per tag (``mail_slots``), never once per process.

One message plane: every message is a segment of a ``SegmentBatch``
sweep, the reference kernel's ``send`` one sweep per step and tag.  The
eager plane beside it — its per-pid mailbox, in-flight queue,
per-message payload sizer and per-process mail probe — is named nowhere
under ``src/``, and outbox replay knows exactly the ``segments``,
``resident`` and ``rpc`` entry kinds.

One edge-stream walker: HDRF and FENNEL's vectorized kernel is
``walk_edge_stream``; the chunked window driver it replaced
(``EdgeStreamScorer``, ``run_chunked_stream``, ``block_tail_hints``)
and the membership ``get_bit`` / ``set_bit`` its tail walkers used
are named nowhere under ``src/``.  Nor is the prefix-commit driver
the exact label walks replaced (``run_chunked_fixpoint``, its
``_MIN_WINDOW`` and Ginger's ``_GingerRoundScorer``).

One way onto a backend: ``ExecutionBackend.start`` with a
``WorkerProgram`` is the only lifecycle entry — no ``attach`` beside
it, no whole-graph ``run_graph_task`` offload and no fault-plan axis
for one — and shared memory is the processes backend's business alone:
no partitioner builds an arena or asks which backend it runs on.  One
program runs there: Distributed NE is the only ``WorkerProgram`` and
the only caller of ``create_backend`` (SNE, a sequential baseline, runs
in-process like NE, importing nothing from the plane), and since DNE's
machines read the canonical edge array alone, nothing under
``cluster/backends/`` names a CSR adjacency array, the lifecycle
(``start`` / ``build``) takes no graph, and the graph arena's packers
stay deleted.

One HTTP server: ``src/repro/serving/`` imports no ``asyncio`` and no
``ThreadPoolExecutor`` — the stdlib ``ThreadingHTTPServer`` bounds
every framing input, and a second socket layer beside it would not.

One replica representation: the vertex→partition relation is stored
once, as the checksummed replica CSR blobs.  The row-wise ``replicas``
table (≈ 70k ``executemany`` rows per run, two thirds of ``add_run``)
was dropped by migration 2; no SQL string under ``src/repro/serving/``
outside the shipped ``MIGRATIONS`` entries reads or writes it.

One replica relation: ``metrics/quality.py::vertex_replica_csr`` is the
only definition of the (vertex, partition) dedup, ``EdgePartition``
builds it once, and the report, the run store and the GAS engine read
that copy — none of them calls ``sorted_unique`` or ``np.unique``.

One 32-bit copy of DNE's working set: the fused plane adopts the
allocators' int32 local CSR instead of keeping int64 copies beside it
(≈ 70 bytes per edge at |P| = 8), so its constructor and the adoption
helpers it calls make no ``astype(np.int64)`` copy.

One way into the vectorized DNE kernel: a scheduler's
``FusedDnePlane``.  No process builds a one-machine plane of its own
(``_own_plane`` is named nowhere under ``src/repro``), the reference
steps in ``core/allocation.py`` / ``core/expansion.py`` neither import
``repro.core.fused`` nor name the plane, and only
``DneWorkerProgram.build_plane`` and the microbenchmarks construct one.

Nothing only tests reach: every public ``def`` or ``class`` under
``src/repro`` is named somewhere outside ``tests/`` (code or an exact
string constant, so a step dispatched by name counts; ``__all__`` and
prose do not), but for a short allowlist of stdlib hooks and test
oracles.  And the baselines run at the paper's fixed settings: the
registry's constructor options are a pinned table, so a knob only a
test sets cannot come back unnoticed.
"""

import ast
import inspect
import json
import re
from pathlib import Path

import pytest

import repro.core  # noqa: F401  (registers distributed_ne)
from repro.cluster.backends import (ExecutionBackend, ProcessesBackend,
                                   ThreadsBackend, WorkerProgram)
from repro.partitioners import (PARTITIONER_REGISTRY, ObliviousPartitioner,
                                SheepPartitioner)

_ROOT = Path(__file__).parent.parent
_SRC = _ROOT / "src" / "repro"
_CORE = _SRC / "core"


def _np_unique_calls(source: str, with_axis: bool = False) -> list[int]:
    """Line numbers of ``np.unique(...)`` / ``numpy.unique(...)`` calls;
    ``with_axis`` keeps only those passing ``axis=``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and (not with_axis
                 or any(kw.arg == "axis" for kw in node.keywords))]


def test_guard_sees_a_call_and_ignores_prose():
    source = ('"""mentions np.unique(x, axis=0) in a docstring"""\n'
              "import numpy as np\n"
              "x = np.unique([1])  # call\n"
              "y = numpy.unique([[2]], axis=0)\n")
    assert _np_unique_calls(source) == [3, 4]
    assert _np_unique_calls(source, with_axis=True) == [4]


@pytest.mark.parametrize("name", ["fused.py", "expansion.py",
                                  "distributed_ne.py"])
def test_dne_kernels_do_not_call_np_unique(name):
    assert _np_unique_calls((_CORE / name).read_text()) == []


@pytest.mark.parametrize(
    "path", sorted((_SRC / "graph").glob("*.py")), ids=lambda p: p.name)
def test_graph_front_end_does_not_call_row_wise_np_unique(path):
    assert _np_unique_calls(path.read_text(), with_axis=True) == []


_MEASURED_FIELDS = ("python_median_seconds", "vectorized_median_seconds",
                    "python_spread", "vectorized_spread", "rate")


def test_no_committed_vectorized_arm_loses_to_its_reference():
    """Rows without a ``baseline`` key time a vectorized arm against
    its ``kernel="python"`` reference; below 1.0x (on minimums over at
    least three repeats, median and spread recorded) the arm is slower
    than the code it was written to replace."""
    rows = json.loads((_ROOT / "BENCH_kernels.json").read_text())["kernels"]
    judged = [row for row in rows if "baseline" not in row]
    unmeasured = [(row["kernel"], row["edge_scale"]) for row in judged
                  if row.get("repeats", 0) < 3
                  or any(field not in row for field in _MEASURED_FIELDS)]
    assert not unmeasured, (
        f"rows not timed by `measure` (>= 3 repeats, medians, spreads, "
        f"rate): {unmeasured} — regenerate with `repro bench perf`")
    losing = [(row["kernel"], row["edge_scale"], row["speedup"])
              for row in judged if row["speedup"] < 1.0]
    assert not losing, (
        f"vectorized arms slower than their reference: {losing} — "
        "delete the losing arm or make it win; do not add an exemption")


def _clock_reads(tree: ast.AST, skip=()) -> list[int]:
    """Line numbers naming ``perf_counter`` (call, attribute or import),
    skipping the bodies of the functions named in ``skip``."""
    if isinstance(tree, ast.FunctionDef) and tree.name in skip:
        return []
    here = (isinstance(tree, ast.Attribute) and tree.attr == "perf_counter") \
        or (isinstance(tree, ast.Name) and tree.id == "perf_counter") \
        or (isinstance(tree, ast.ImportFrom)
            and any(a.name == "perf_counter" for a in tree.names))
    return ([tree.lineno] if here else []) + [
        line for child in ast.iter_child_nodes(tree)
        for line in _clock_reads(child, skip)]


def test_microbench_reads_the_clock_only_in_measure():
    """One timing method: every ``bench_*`` in ``bench/perf.py`` times
    through ``_timed`` and every row through ``measure``, so a bare
    ``perf_counter`` pair cannot come back beside them."""
    allowed = ("measure", "_timed")
    probe = ast.parse("from time import perf_counter\n"
                      "def _timed(call):\n"
                      "    return time.perf_counter()\n")
    assert (_clock_reads(probe), _clock_reads(probe, allowed)) == ([1, 3], [1])
    tree = ast.parse((_SRC / "bench" / "perf.py").read_text())
    assert _clock_reads(tree), "the microbench no longer reads a clock"
    assert _clock_reads(tree, allowed) == [], (
        "perf_counter outside `measure` / `_timed`: time through them")


def _init_parameters(source: str) -> list[tuple[int, str]]:
    """``(lineno, name)`` of every parameter of every ``__init__``."""
    return [(node.lineno, arg.arg)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name == "__init__"
            for arg in (node.args.posonlyargs + node.args.args
                        + node.args.kwonlyargs)]


def test_no_constructor_takes_a_membership_selector():
    """|P| alone picks dense vs packed membership (each wins on its
    side of 64); tests that need the other layout inject the object."""
    assert _init_parameters(
        "class A:\n"
        "    def __init__(self, n, *, membership='auto'): ...\n"
    ) == [(2, "self"), (2, "n"), (2, "membership")]
    taking = [(str(path.relative_to(_SRC)), lineno)
              for path in sorted(_SRC.rglob("*.py"))
              for lineno, name in _init_parameters(path.read_text())
              if name == "membership"]
    assert taking == []


@pytest.mark.parametrize("cls", [SheepPartitioner, ObliviousPartitioner],
                         ids=lambda c: c.name)
def test_single_implementation_baselines_take_no_kernel(cls):
    assert "kernel" not in inspect.signature(cls.__init__).parameters


def _functions_where(source: str, matches) -> list[str]:
    """Names of the functions holding a node ``matches`` accepts (a
    nested function's nodes count for its enclosing functions too)."""
    return [func.name for func in ast.walk(ast.parse(source))
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(matches(node) for node in ast.walk(func))]


def _is_plane_run_call(node) -> bool:
    """``plane.run(...)`` / ``self._plane.run(...)`` and the like."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "run"):
        return False
    owner = node.func.value
    name = owner.id if isinstance(owner, ast.Name) else \
        owner.attr if isinstance(owner, ast.Attribute) else None
    return name in ("plane", "_plane")


def _is_outbox_assignment(node) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) \
        else []
    return any(isinstance(t, ast.Attribute) and t.attr == "_outbox"
               for target in targets for t in ast.walk(target))


def test_dispatch_guards_see_both_shapes():
    source = ("def a(self):\n"
              "    self._plane.run('m', [])\n"
              "    proc._outbox = None\n"
              "def b(plane, p):\n"
              "    def inner():\n"
              "        x = p._outbox = []\n"
              "    return plane.run\n"
              "def c(pool):\n"
              "    pool.run()\n")
    assert _functions_where(source, _is_plane_run_call) == ["a"]
    assert _functions_where(source, _is_outbox_assignment) == [
        "a", "b", "inner"]


@pytest.mark.parametrize("matches", [_is_plane_run_call,
                                     _is_outbox_assignment],
                         ids=["plane.run call", "_outbox assignment"])
def test_dispatch_lives_in_run_steps_only(matches):
    found = [(path.name, name)
             for path in sorted((_SRC / "cluster" / "backends").glob("*.py"))
             for name in _functions_where(path.read_text(), matches)]
    assert found == [("base.py", "run_steps")], (
        f"{found}: dispatch lives in `run_steps`; extend it, do not add "
        "a second copy")


def test_per_process_array_queue_stays_deleted():
    """One vectorized boundary: the segmented store.  A second array
    queue beside it would be a second implementation to keep in
    lockstep; the reference is ``HeapqBoundaryQueue``."""
    pattern = re.compile(r"(?<!Heapq)BoundaryQueue")
    assert pattern.findall("a BoundaryQueue, not HeapqBoundaryQueue") \
        == ["BoundaryQueue"]
    found = [(str(path.relative_to(_SRC)), lineno)
             for path in sorted(_SRC.rglob("*.py"))
             for lineno, line in enumerate(path.read_text().splitlines(), 1)
             if pattern.search(line)]
    assert found == []


def test_one_edge_stream_walker():
    """HDRF and FENNEL share one vectorized kernel, the load-level walk
    (``walk_edge_stream``); Spinner, XtraPuLP and ``metis_like`` share
    the exact label walk (``walk_labels``) and Ginger walks its groups
    the same way.  The chunked window drivers (edge stream and
    fixpoint), their scorers, window constant and tail hints, and the
    scalar membership bit ops only the tail walkers called stay
    deleted."""
    pattern = re.compile(r"\b(EdgeStreamScorer|run_chunked_stream"
                         r"|block_tail_hints|run_chunked_fixpoint"
                         r"|_GingerRoundScorer|_MIN_WINDOW)\b"
                         r"|\b(get_bit|set_bit)\(")
    assert [m.group(0) for m in pattern.finditer(
        "run_chunked_stream(s); m.set_bit(v, p); run_chunked_fixpoint; "
        "_GingerRoundScorer(g); x._MIN_WINDOW; walk_labels(a); "
        "run_chunked_fixpoints; MIN_WINDOW; offset_bit(x)")] == [
        "run_chunked_stream", "set_bit(", "run_chunked_fixpoint",
        "_GingerRoundScorer", "_MIN_WINDOW"]
    found = [(str(path.relative_to(_SRC)), lineno)
             for path in sorted(_SRC.rglob("*.py"))
             for lineno, line in enumerate(path.read_text().splitlines(), 1)
             if pattern.search(line)]
    assert found == []


def _method_calls(source: str, name: str) -> list[int]:
    """Line numbers of ``<anything>.name(...)`` calls."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == name]


def test_dne_driver_asks_for_mail_once_per_tag():
    assert _method_calls('"""mail_slots(r, t) in prose"""\n'
                         "x = cluster.mail_slots(role, tag)\n",
                         "mail_slots") == [2]
    driver = (_CORE / "distributed_ne.py").read_text()
    assert len(_method_calls(driver, "mail_slots")) == 4


def _names(source: str) -> list[tuple[int, str]]:
    """``(lineno, name)`` of every function defined and every name,
    attribute or import used — code, never prose."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.Name):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, alias.name.rsplit(".", 1)[-1])
                      for alias in node.names]
    return found


def _outbox_kinds(source: str) -> set:
    """The string constants ``kind`` is compared with inside
    ``apply_outbox`` — the outbox entry kinds replay handles."""
    (function,) = [node for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "apply_outbox"]
    return {other.value for node in ast.walk(function)
            if isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Name) and node.left.id == "kind"
            for other in node.comparators if isinstance(other, ast.Constant)}


def test_outbox_kind_guard_sees_the_comparisons():
    source = ('"""kind == \'prose\'"""\n'
              "def apply_outbox(cluster, pid, outbox):\n"
              "    for entry in outbox:\n"
              "        kind = entry[0]\n"
              "        if kind == 'a':\n"
              "            pass\n"
              "        elif kind == \"b\" or other == 'c':\n"
              "            pass\n")
    assert _outbox_kinds(source) == {"a", "b"}


def test_outbox_replays_sweeps_residents_and_rpcs_only():
    """One message plane: a step's messages reach the parent as
    ``segments`` entries (``send`` builds a sweep); no
    per-message entry kind sits beside them."""
    base = (_SRC / "cluster" / "backends" / "base.py").read_text()
    assert _outbox_kinds(base) == {"segments", "resident", "rpc"}


@pytest.mark.parametrize("name", ["_delivered", "_in_flight",
                                  "payload_nbytes", "has_mail"])
def test_one_message_plane(name):
    """The eager plane's per-pid mailbox, its in-flight queue, its
    per-message payload sizer and its per-process mail probe stay
    deleted: every message is a segment of a sweep."""
    assert _uses(sorted(_SRC.rglob("*.py")), name) == []


def _defined(source: str) -> set:
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_name_guards_see_code_not_prose():
    source = ('"""ShmArena.attach in prose"""\n'
              "from x import ShmArena\n"
              "def attach(self):\n"
              "    return mod.graph_to_arrays(ProcessesBackend)\n")
    assert sorted(_names(source)) == [
        (2, "ShmArena"), (3, "attach"), (4, "ProcessesBackend"),
        (4, "graph_to_arrays"), (4, "mod")]
    assert _defined(source) == {"attach"}


@pytest.mark.parametrize("name", ["attach", "run_graph_task", "take_task"])
def test_one_lifecycle_entry(name):
    """``start`` is the only way onto a backend; the second and third
    paths (caller-built processes, whole-graph offload and its fault
    axis) stay deleted."""
    found = [str(path.relative_to(_SRC)) for path in sorted(_SRC.rglob("*.py"))
             if name in _defined(path.read_text())]
    assert found == []


def _uses(paths, name) -> list[tuple[str, int]]:
    return [(str(path.relative_to(_SRC)), lineno) for path in paths
            for lineno, used in _names(path.read_text()) if used == name]


@pytest.mark.parametrize("name", ["ShmArena"])
def test_shared_memory_stays_inside_the_backends(name):
    """The processes backend packs a program's arrays into shared
    memory itself; nothing else builds an arena."""
    backends = _SRC / "cluster" / "backends"
    outside = [path for path in sorted(_SRC.rglob("*.py"))
               if backends not in path.parents]
    assert _uses(outside, name) == []


def _program_sites(source: str) -> list[int]:
    """Line numbers of ``WorkerProgram`` subclasses and
    ``create_backend(...)`` calls."""
    def named(node, name):
        return (isinstance(node, ast.Name) and node.id == name) or (
            isinstance(node, ast.Attribute) and node.attr == name)
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.ClassDef)
            and any(named(base, "WorkerProgram") for base in node.bases))
        or (isinstance(node, ast.Call) and named(node.func,
                                                 "create_backend")))


def test_program_guard_sees_subclasses_and_calls():
    source = ('"""class P(WorkerProgram) in prose"""\n'
              "class P(backends.WorkerProgram):\n"
              "    def run(self):\n"
              "        return create_backend('simulated')\n"
              "def create_backend():\n"
              "    pass\n")
    assert _program_sites(source) == [2, 4]


def test_distributed_ne_is_the_only_program():
    """Only DNE puts a program on the execution plane; a sequential
    baseline runs in-process."""
    found = sorted({str(path.relative_to(_SRC).as_posix())
                    for path in sorted(_SRC.rglob("*.py"))
                    if _program_sites(path.read_text())})
    assert found == ["core/distributed_ne.py"]


@pytest.mark.parametrize("name", ["indptr", "indices", "edge_ids"])
def test_backends_name_no_adjacency_array(name):
    """A worker maps what its program's ``arrays`` name — for DNE the
    edge array — never the graph's CSR adjacency."""
    assert _uses(sorted((_SRC / "cluster" / "backends").glob("*.py")),
                 name) == []


@pytest.mark.parametrize("name", ["graph_to_arrays", "graph_from_views",
                                  "from_csr_arrays"])
def test_graph_arena_stays_deleted(name):
    """No worker rebuilds a ``CSRGraph`` out of shared memory: the
    graph packer, its view-side inverse and the CSR-from-arrays
    constructor they needed are named nowhere under ``src/repro``."""
    assert _uses(sorted(_SRC.rglob("*.py")), name) == []


@pytest.mark.parametrize("owner, method, params", [
    (ExecutionBackend, "start", ("cluster", "program", "pids", "arrays")),
    (ThreadsBackend, "start", ("cluster", "program", "pids", "arrays")),
    (ProcessesBackend, "start", ("cluster", "program", "pids", "arrays")),
    (WorkerProgram, "build", ("owned_pids", "arrays")),
], ids=["ExecutionBackend.start", "ThreadsBackend.start",
        "ProcessesBackend.start", "WorkerProgram.build"])
def test_lifecycle_takes_no_graph(owner, method, params):
    """A program reaches its workers through the arrays it names alone;
    the lifecycle has no graph argument to hand a second copy along."""
    signature = inspect.signature(getattr(owner, method))
    assert tuple(signature.parameters)[1:] == params


def _backend_imports(source: str) -> list[int]:
    """Line numbers of imports from ``repro.cluster.backends``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.startswith("repro.cluster.backends"))
            or (isinstance(node, ast.Import)
                and any(alias.name.startswith("repro.cluster.backends")
                        for alias in node.names))]


def test_backend_import_guard_sees_both_forms():
    source = ('"""from repro.cluster.backends import x"""\n'
              "import repro.cluster.backends.shm\n"
              "from repro.cluster.backends import create_backend\n"
              "from repro.cluster.checkpoint import CheckpointStore\n")
    assert _backend_imports(source) == [2, 3]


def test_sequential_partitioners_import_no_backend():
    """The baselines under ``partitioners/`` — SNE among them — run
    in-process; none imports the execution plane."""
    found = [(str(path.relative_to(_SRC).as_posix()), lineno)
             for path in sorted((_SRC / "partitioners").rglob("*.py"))
             for lineno in _backend_imports(path.read_text())]
    assert found == []


def test_partitioners_do_not_name_the_processes_backend():
    """A partitioner hands every backend the same program; none
    branches on which one it got."""
    paths = [path for package in ("core", "partitioners")
             for path in sorted((_SRC / package).rglob("*.py"))]
    assert _uses(paths, "ProcessesBackend") == []


@pytest.mark.parametrize("name", ["asyncio", "ThreadPoolExecutor"])
def test_serving_has_one_http_server(name):
    assert _uses(sorted((_SRC / "serving").glob("*.py")), name) == []


_REPLICAS_SQL = re.compile(r"\b(?:INTO|FROM|UPDATE|JOIN)\s+replicas\b")


def _replicas_sql(source: str) -> list[int]:
    """Line numbers of string literals naming the ``replicas`` table in
    SQL, outside the ``MIGRATIONS`` history."""
    tree = ast.parse(source)
    history = {id(node) for top in tree.body
               if isinstance(top, ast.Assign) and "MIGRATIONS" in [
                   getattr(t, "id", None) for t in top.targets]
               or isinstance(top, ast.AnnAssign)
               and getattr(top.target, "id", None) == "MIGRATIONS"
               for node in ast.walk(top)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in history and _REPLICAS_SQL.search(node.value)]


def test_replicas_guard_sees_sql_not_history():
    source = ('MIGRATIONS: tuple = ((1, "CREATE TABLE replicas (v);"),\n'
              '              (2, "INSERT INTO replicas SELECT 1"))\n'
              'conn.execute("SELECT vertex FROM "\n'
              '             "replicas WHERE run_id = ?")\n'
              'conn.executemany("INSERT INTO replicas VALUES (?)", rows)\n'
              '"""the replicas listing reads from the replica CSR"""\n')
    assert _replicas_sql(source) == [3, 5]


def test_one_replica_representation():
    found = [(str(path.relative_to(_SRC)), lineno)
             for path in sorted((_SRC / "serving").glob("*.py"))
             for lineno in _replicas_sql(path.read_text())]
    assert found == []


def _dedup_calls(source: str) -> list[int]:
    """Line numbers of ``np.unique(...)`` and ``sorted_unique(...)``
    calls (bare or through a module attribute)."""
    return sorted(_np_unique_calls(source) + [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "sorted_unique"
             or getattr(node.func, "attr", None) == "sorted_unique")])


def test_replica_guards_see_code_and_ignore_prose():
    source = ('"""sorted_unique(keys) and np.unique(x) in prose"""\n'
              "from repro.graph.csr import sorted_unique\n"
              "keys = sorted_unique(v * p + parts)  # sorted_unique(\n"
              "ids = csr.sorted_unique(v)\n"
              "u = np.unique(v)\n"
              "def vertex_replica_csr(edges): ...\n")
    assert _dedup_calls(source) == [3, 4, 5]
    assert _defined(source) == {"vertex_replica_csr"}


def test_vertex_replica_csr_is_defined_once():
    """One home for the (vertex, partition) dedup behind Equation 1,
    the vertex balance, the report's mirrors, the store's lookup CSR and
    the GAS engine's masters: ``metrics/quality.py``."""
    found = [str(path.relative_to(_SRC)) for path in sorted(_SRC.rglob("*.py"))
             if "vertex_replica_csr" in _defined(path.read_text())]
    assert found == ["metrics/quality.py"]


@pytest.mark.parametrize("name", ["metrics/report.py", "serving/store.py",
                                  "apps/engine.py"])
def test_replica_readers_do_not_deduplicate(name):
    """The report, the run store and the GAS engine read
    ``EdgePartition.replicas``; none rebuilds the relation."""
    assert _dedup_calls((_SRC / name).read_text()) == []


def _int64_casts(source: str, names: set) -> list[tuple[str, int]]:
    """``(function, line)`` of every ``.astype(np.int64)`` /
    ``.astype("int64")`` call inside the functions ``names`` (a method
    as ``Class.method``)."""
    def is_int64(node):
        return ((isinstance(node, ast.Attribute) and node.attr == "int64")
                or (isinstance(node, ast.Constant)
                    and node.value in ("int64", "i8", "<i8")))

    found = []
    tree = ast.parse(source)
    scopes = [(f"{cls.name}.{fn.name}", fn) for cls in tree.body
              if isinstance(cls, ast.ClassDef) for fn in cls.body
              if isinstance(fn, ast.FunctionDef)]
    scopes += [(fn.name, fn) for fn in tree.body
               if isinstance(fn, ast.FunctionDef)]
    for name, fn in scopes:
        if name in names:
            found += [(name, node.lineno) for node in ast.walk(fn)
                      if isinstance(node, ast.Call)
                      and getattr(node.func, "attr", None) == "astype"
                      and node.args and is_int64(node.args[0])]
    return found


_ADOPTION = {"FusedDnePlane.__init__", "_fuse_int32", "_adopt_int32"}


def test_int64_cast_guard_sees_casts_in_scope_only():
    source = ('def _fuse_int32(parts):\n'
              '    """parts[i].astype(np.int64) in prose"""\n'
              '    return [p.astype(np.int64) for p in parts]\n'
              'class FusedDnePlane:\n'
              '    def __init__(self, allocs):\n'
              '        self._adj_eid = allocs[0]._adj_eid.astype("int64")\n'
              '        self._ok = allocs[0]._adj_eid.astype(np.int32)\n'
              '    def _run_two_hop(self, pids):\n'
              '        return self._eids.astype(np.int64)\n')
    assert sorted(_int64_casts(source, _ADOPTION)) == [
        ("FusedDnePlane.__init__", 6), ("_fuse_int32", 3)]


def test_plane_constructor_adopts_without_int64_copies():
    """The plane's fused adjacency is the allocators' int32 local CSR,
    adopted; widening it to int64 in the constructor would bring the
    second copy back."""
    source = (_CORE / "fused.py").read_text()
    assert _defined(source) >= {"_fuse_int32", "_adopt_int32"}
    assert _int64_casts(source, _ADOPTION) == []


def _imported_modules(source: str) -> set:
    """Every module an ``import`` names, ``from pkg import mod`` as
    ``pkg.mod`` too."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}"
                         for alias in node.names)
    return found


def _call_sites(source: str, name: str) -> list[str]:
    """The top-level scopes — ``function``, ``Class.method``, ``Class``
    for the rest of a class body, ``<module>`` — that call ``name(...)``
    (a nested function's calls count for its enclosing scope)."""
    def calls(scope):
        return any(isinstance(node, ast.Call)
                   and name in (getattr(node.func, "id", None),
                                getattr(node.func, "attr", None))
                   for node in ast.walk(scope))

    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                method = isinstance(item, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                if calls(item):
                    found.append(f"{node.name}.{item.name}" if method
                                 else node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if calls(node):
                found.append(node.name)
        elif calls(node):
            found.append("<module>")
    return found


def test_plane_guards_see_code_not_prose():
    source = ('"""import repro.core.fused; FusedDnePlane(x) in prose"""\n'
              "from repro.core import fused\n"
              "import repro.core.expansion as exp\n"
              "class Program:\n"
              "    def build_plane(self, procs):\n"
              "        return fused.FusedDnePlane(procs, None)\n"
              "    def build(self):\n"
              "        return 'FusedDnePlane(procs)'\n"
              "def bench(procs):\n"
              "    def step():\n"
              "        return FusedDnePlane(procs, None)\n"
              "plane = FusedDnePlane([], None)\n")
    assert _imported_modules(source) == {
        "repro.core", "repro.core.fused", "repro.core.expansion"}
    assert _call_sites(source, "FusedDnePlane") == [
        "Program.build_plane", "bench", "<module>"]


def test_own_plane_stays_deleted():
    """No process builds a one-machine plane of its own: a vectorized
    process's step methods raise, and its phases run through the plane
    its scheduler (or a harness) builds."""
    assert _uses(sorted(_SRC.rglob("*.py")), "_own_plane") == []


@pytest.mark.parametrize("name", ["allocation.py", "expansion.py"])
def test_reference_steps_do_not_reach_the_plane(name):
    """The reference kernel's modules hold no way into the vectorized
    one: they import nothing from ``repro.core.fused`` and name no
    ``FusedDnePlane``."""
    source = (_CORE / name).read_text()
    assert "repro.core.fused" not in _imported_modules(source)
    assert [lineno for lineno, used in _names(source)
            if used == "FusedDnePlane"] == []


def test_only_the_program_and_the_microbench_build_a_plane():
    """Under ``src/repro`` a ``FusedDnePlane`` is built by
    ``DneWorkerProgram.build_plane`` — once per scheduler — and by the
    microbenchmarks' harnesses in ``bench/perf.py``, nowhere else."""
    found = {(path.relative_to(_SRC).as_posix(), site)
             for path in sorted(_SRC.rglob("*.py"))
             for site in _call_sites(path.read_text(), "FusedDnePlane")}
    assert {(path, site) for path, site in found
            if path != "bench/perf.py"} == {
        ("core/distributed_ne.py", "DneWorkerProgram.build_plane")}
    assert any(path == "bench/perf.py" for path, _ in found)


def _public_defs(source: str) -> list[tuple[str, int]]:
    """``(qualified name, lineno)`` of every public function, method
    and class — its own name free of a leading underscore."""
    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not node.name.startswith("_"):
                    found.append((prefix + node.name, node.lineno))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.")

    visit(ast.parse(source).body, "")
    return found


def _references(source: str) -> set:
    """Every name a module uses: names, attributes, imports, and string
    constants that are exactly a name — never ``__all__``, never a
    definition's own name, never prose inside a longer string."""
    tree = ast.parse(source)
    exported = {id(node) for stmt in ast.walk(tree)
                if isinstance(stmt, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in stmt.targets)
                for node in ast.walk(stmt.value)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in exported):
            found.add(node.value)
    return found


def test_reference_scan_sees_code_not_exports_or_prose():
    source = ('"""helper is named in prose"""\n'
              '__all__ = ["exported"]\n'
              'class Box:\n'
              '    def _private(self): ...\n'
              '    def stepped(self): ...\n'
              'def exported(): ...\n'
              'run("stepped", "a longer string naming exported")\n'
              'obj.attr\n'
              'from pkg.mod import thing\n')
    assert _public_defs(source) == [("Box", 3), ("Box.stepped", 5),
                                    ("exported", 6)]
    assert _references(source) == {"__all__", "run", "stepped", "obj",
                                   "attr", "thing"}


#: Public names only tests reach, kept on purpose.  Stdlib hooks the
#: HTTP server classes override (``http.server`` / ``socketserver``
#: call them); oracles a test compares the program against; and the
#: fault harness's vocabulary for tests.
_TEST_ONLY_ALLOWED = {
    "serving/api.py::_Handler.log_message",        # stdlib override
    "serving/api.py::_Server.process_request",     # stdlib override
    "serving/api.py::_Server.handle_error",        # stdlib override
    "core/hash2d.py::Hash2DPlacement.replica_membership",
    "core/hash2d.py::Hash1DPlacement.replica_membership",
    "observability/trace.py::Tracer.structure",
    "observability/trace.py::NullTracer.structure",
    "cluster/backends/faults.py::FaultPlan.raise_error",
    "cluster/backends/faults.py::FaultPlan.seeded_delays",
    "core/allocation.py::AllocationProcess.vertex_parts",
    "serving/store.py::RunStore.schema_version",
}


def test_every_public_name_is_reached_outside_tests():
    """A public function, method or class that only tests call is
    deleted with its tests, not kept for them."""
    outside = sorted(_ROOT.glob("*.py")) + [
        path for top in ("src", "benchmarks", "examples")
        for path in sorted((_ROOT / top).rglob("*.py"))]
    used = set().union(*(_references(path.read_text())
                         for path in outside))
    unreached = sorted(
        f"{path.relative_to(_SRC).as_posix()}::{qualname}"
        for path in sorted(_SRC.rglob("*.py"))
        for qualname, _ in _public_defs(path.read_text())
        if qualname.rsplit(".", 1)[-1] not in used)
    assert [name for name in unreached
            if name not in _TEST_ONLY_ALLOWED] == []
    assert sorted(_TEST_ONLY_ALLOWED - set(unreached)) == [], \
        "allowlisted names now reached outside tests: drop them"


#: Every registry class's constructor options after ``num_partitions``
#: and ``seed``.  The baselines run at one fixed setting each (§7.1);
#: DNE keeps Eq. 2's ``alpha``, Fig. 6's ``lam``, its ablations and the
#: execution / checkpoint options the CLI, serving jobs and the gate set;
#: SNE, sequential, keeps only its on-disk checkpoint/resume.
_REGISTRY_OPTIONS = {
    "random": (), "grid": (), "dbh": (), "hybrid": (), "oblivious": (),
    "sheep": (), "spinner": (), "metis_like": (), "xtrapulp": (),
    "fennel": ("kernel",), "hdrf": ("kernel",),
    "hybrid_ginger": ("kernel",),
    "ne": ("alpha", "kernel"),
    "sne": ("alpha", "kernel", "checkpoint_dir", "resume"),
    "distributed_ne": ("alpha", "lam", "two_hop", "placement",
                       "seed_strategy", "max_iterations", "collect_history",
                       "kernel", "backend", "workers", "checkpoint_dir",
                       "checkpoint_every", "resume", "step_timeout",
                       "max_retries", "fault_plan", "tracer"),
}


def test_registry_constructor_options_are_pinned():
    options = {name: tuple(inspect.signature(cls.__init__).parameters)[3:]
               for name, cls in PARTITIONER_REGISTRY.items()}
    assert all(tuple(inspect.signature(cls.__init__).parameters)[:3]
               == ("self", "num_partitions", "seed")
               for cls in PARTITIONER_REGISTRY.values())
    assert options == _REGISTRY_OPTIONS
    assert sum(map(len, options.values())) == 26

