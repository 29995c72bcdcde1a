"""Tier-1 smoke test of the gate benchmark (``--smoke`` sizes).

Checks the benchmark against its own contract — every workload and
metric that ``BENCHMARK.json`` names is emitted under that name, nothing
fails, and a run leaves no file behind — not the numbers, which at
these sizes mean nothing.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def tree_state() -> dict:
    """(size, mtime) of every file of the checkout a run could dirty."""
    skip = {".git", ".pytest_cache", "__pycache__", ".hypothesis",
            ".benchmarks"}
    state = {}
    for folder, dirs, files in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d not in skip]
        for name in files:
            path = os.path.join(folder, name)
            stat = os.stat(path)
            state[path] = (stat.st_size, stat.st_mtime_ns)
    return state


def test_contract_is_well_formed():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(contract) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_smoke_run_emits_every_metric_and_leaves_no_file(tmp_path):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in contract["workloads"]]
    before = tree_state()
    # two halves side by side: eight child processes are start-up bound
    halves = [names[: len(names) // 2], names[len(names) // 2:]]
    procs = [subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--out", str(tmp_path / f"smoke{i}.json"),
         "--trace-dir", str(tmp_path / "traces")]
        + [arg for name in half for arg in ("--workload", name)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        for i, half in enumerate(halves)]
    for proc in procs:
        output, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, output[-3000:]
    assert tree_state() == before

    results = {}
    for i in range(len(halves)):
        (one,) = json.loads((tmp_path / f"smoke{i}.json").read_text())["sets"]
        results.update(one)
    assert set(results) == set(names)
    for workload, passes in results.items():
        for kind in ("end_to_end", "per_layer"):
            result = passes[kind]
            assert result["failed"] == 0, (workload, result["problems"])
            assert result["attempted"] >= 1
            assert list(result["metrics"]) == [m["name"]
                                               for m in contract[kind]]
            assert all(isinstance(v, (int, float))
                       for v in result["metrics"].values())
        assert all(v > 0 for v in passes["end_to_end"]["metrics"].values())
        trace = json.loads(
            (tmp_path / "traces" / f"{workload}.trace.json").read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert "bench:graph.csr_build" in names
        if workload != "serve_hdrf":
            assert {"bench:core.partition", "run:distributed_ne",
                    "phase:two_hop"} <= names
