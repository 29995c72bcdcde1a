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

One edge-stream walker: HDRF and FENNEL's vectorized kernel is
``walk_edge_stream``; the chunked window driver it replaced
(``EdgeStreamScorer``, ``run_chunked_stream``, ``block_tail_hints``)
and the membership ``get_bit`` / ``set_bit`` its tail walkers used
are named nowhere under ``src/``.

One way onto a backend: ``ExecutionBackend.start`` with a
``WorkerProgram`` is the only lifecycle entry — no ``attach`` beside
it, no whole-graph ``run_graph_task`` offload and no fault-plan axis
for one — and shared memory is the processes backend's business alone:
no partitioner builds an arena or asks which backend it runs on.

One HTTP server: ``src/repro/serving/`` imports no ``asyncio`` and no
``ThreadPoolExecutor`` — the stdlib ``ThreadingHTTPServer`` bounds
every framing input, and a second socket layer beside it would not.

One replica representation: the vertex→partition relation is stored
once, as the checksummed replica CSR blobs.  The row-wise ``replicas``
table (≈ 70k ``executemany`` rows per run, two thirds of ``add_run``)
was dropped by migration 2; no SQL string under ``src/repro/serving/``
outside the shipped ``MIGRATIONS`` entries reads or writes it.
"""

import ast
import inspect
import json
import re
from pathlib import Path

import pytest

from repro.partitioners import ObliviousPartitioner, SheepPartitioner

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
    (``walk_edge_stream``).  The chunked window driver, its scorer base
    and tail hints, and the scalar membership bit ops only its tail
    walkers called stay deleted."""
    pattern = re.compile(r"\b(EdgeStreamScorer|run_chunked_stream"
                         r"|block_tail_hints)\b|\b(get_bit|set_bit)\(")
    assert [m.group(0) for m in pattern.finditer(
        "run_chunked_stream(s); m.set_bit(v, p); run_chunked_fixpoint; "
        "offset_bit(x)")] == ["run_chunked_stream", "set_bit("]
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
    assert _method_calls('"""has_mail(p, t) in prose"""\n'
                         "x = cluster.has_mail(pid, tag)\n",
                         "has_mail") == [2]
    driver = (_CORE / "distributed_ne.py").read_text()
    assert _method_calls(driver, "has_mail") == []
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


@pytest.mark.parametrize("name", ["ShmArena", "graph_to_arrays"])
def test_shared_memory_stays_inside_the_backends(name):
    """The processes backend packs the graph and a program's arrays
    into shared memory itself; nothing else builds an arena."""
    backends = _SRC / "cluster" / "backends"
    outside = [path for path in sorted(_SRC.rglob("*.py"))
               if backends not in path.parents]
    assert _uses(outside, name) == []


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
