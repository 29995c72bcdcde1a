#!/usr/bin/env python3
"""The repo's gate benchmark: one command, four workloads.

::

    python benchmarks/e2e/run.py                       # everything
    python benchmarks/e2e/run.py --workload road_p64 --seed 2
    python benchmarks/e2e/run.py --selfcheck --out two_sets.json
    python benchmarks/e2e/run.py compare OLD.json NEW.json
    python benchmarks/e2e/run.py --workload rmat_p8 --seed 1 \\
        --seconds 20 --trace 0                         # one gate run

Each workload runs in a fresh single-threaded child process
(``workloads.py``).  Metric names, units, directions and regression
bounds are read from the ``BENCHMARK.json`` at the root of the
checkout, so that file is the one place they are defined.  With one
``--workload`` and an explicit ``--trace`` the last line of stdout is
the gate's result object.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK_ROOT = ROOT / ".bench_e2e"
LOAD_WARNING = 0.5


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def fingerprint() -> dict:
    import numpy
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model or platform.processor(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "load_1min": os.getloadavg()[0]}


def run_child(workload: str, seed: int, seconds: float, trace: int,
              contract: dict, smoke: bool, trace_dir: str | None) -> dict:
    """One workload, one pass, in a fresh process; returns its result
    with the metrics the contract names for that pass."""
    spec = {"workload": workload, "seed": seed, "seconds": seconds,
            "nominal_seconds": contract["run_seconds"], "trace": trace,
            "smoke": smoke, "work_root": str(WORK_ROOT),
            "layer_metrics": [m["name"] for m in contract["per_layer"]],
            "trace_dir": os.path.abspath(trace_dir) if trace_dir else None}
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    WORK_ROOT.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"workload {workload} (trace {trace}) exited "
                         f"with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    wanted = contract["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise SystemExit(f"workload {workload} did not emit {missing}")
    result["metrics"] = {m["name"]: result["metrics"][m["name"]]
                         for m in wanted}
    return result


def gate_line(result: dict, contract: dict) -> str:
    """The result object the gate reads from the last line of stdout."""
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()}})


def print_result(result: dict, contract: dict) -> None:
    kind = "per_layer" if result["trace"] else "end_to_end"
    print(f"\n== {result['workload']}  seed {result['seed']}  {kind}  "
          f"attempted_ops {result['attempted']}  "
          f"failed_ops {result['failed']}")
    for problem in result["problems"]:
        print(f"   FAILED: {problem}")
    for meta in contract[kind]:
        name = meta["name"]
        line = (f"   {name:34s} {result['metrics'][name]:>16.6g} "
                f"{meta['unit']:8s} {meta['better']:6s}")
        if "bound" in meta:
            line += (f" bound {meta['bound']:.0%}"
                     f"  n={result['samples'].get(name, 1)}")
        print(line)


def run_set(args, contract: dict, workloads: list) -> dict:
    """Every requested workload and pass once: ``{workload: {pass:
    result}}``."""
    passes = [args.trace] if args.trace is not None else [0, 1]
    out: dict = {}
    for workload in workloads:
        for trace in passes:
            result = run_child(workload, args.seed, args.seconds, trace,
                               contract, args.smoke, args.trace_dir)
            print_result(result, contract)
            out.setdefault(workload, {})[
                "per_layer" if trace else "end_to_end"] = result
    return out


# ----------------------------------------------------------------------
# comparing two result files
# ----------------------------------------------------------------------
def summarise(doc: dict, workload: str, name: str):
    """Median and relative spread of one end-to-end metric over the
    sets a result file recorded (spread 0 when it holds one set)."""
    values = [s[workload]["end_to_end"]["metrics"][name]
              for s in doc["sets"] if "end_to_end" in s.get(workload, {})]
    if not values:
        return None
    mid = statistics.median(values)
    return mid, (max(values) - min(values)) / abs(mid) if mid else 0.0


def worsening(old: float, new: float, better: str) -> float:
    """Relative change in the bad direction (negative = improved)."""
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def failed_share(doc: dict, workload: str) -> float:
    runs = [r for s in doc["sets"] for r in s.get(workload, {}).values()]
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(old: dict, new: dict, contract: dict) -> int:
    """One row per workload × metric; non-zero on a regression or a
    higher failed share.  A pair whose recorded spread exceeds the
    bound cannot be resolved by these two files and is marked so."""
    bad = 0
    print(f"{'workload':12s} {'metric':22s} {'old':>12s} {'new':>12s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        for meta in contract["end_to_end"]:
            a = summarise(old, workload, meta["name"])
            b = summarise(new, workload, meta["name"])
            if a is None or b is None:
                continue
            worse = worsening(a[0], b[0], meta["better"])
            if max(a[1], b[1]) > meta["bound"]:
                verdict = f"unresolved (spread {max(a[1], b[1]):.1%})"
            elif worse > meta["bound"]:
                verdict, bad = "REGRESSION", bad + 1
            else:
                verdict = "ok"
            print(f"{workload:12s} {meta['name']:22s} {a[0]:12.5g} "
                  f"{b[0]:12.5g} {worse:+9.1%} {meta['bound']:6.0%}  "
                  f"{verdict}")
        shares = failed_share(old, workload), failed_share(new, workload)
        if shares[1] > shares[0]:
            print(f"{workload:12s} failed share rose "
                  f"{shares[0]:.4%} -> {shares[1]:.4%}  REGRESSION")
            bad += 1
    return 1 if bad else 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    contract = load_contract()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare OLD.json NEW.json")
        docs = []
        for path in argv[1:]:
            with open(path, encoding="utf-8") as fh:
                docs.append(json.load(fh))
        return compare(docs[0], docs[1], contract)

    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 = end-to-end pass only, 1 = traced "
                             "per-layer pass only (default: both)")
    parser.add_argument("--out", help="write every result as JSON")
    parser.add_argument("--trace-dir",
                        help="keep the Chrome traces of the traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the tier-1 smoke test)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two sets back to back must agree within "
                             "every end-to-end bound")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("benchmarks/e2e: no src/repro in this checkout — nothing "
              "to measure", file=sys.stderr)
        return 2

    env = fingerprint()
    print("environment:", json.dumps(env))
    if env["load_1min"] > LOAD_WARNING:
        print(f"WARNING: 1-min load average {env['load_1min']:.2f} > "
              f"{LOAD_WARNING}: timings will be noisy", file=sys.stderr)
    workloads = args.workload or names
    sets = [run_set(args, contract, workloads)
            for _ in range(2 if args.selfcheck else 1)]
    doc = {"fingerprint": env, "seed": args.seed, "seconds": args.seconds,
           "smoke": args.smoke, "sets": sets}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    status = 0
    if args.selfcheck:
        print("\nselfcheck: second set against the first")
        status = compare({**doc, "sets": sets[:1]},
                         {**doc, "sets": sets[1:]}, contract)
    results = [r for s in sets for w in s.values() for r in w.values()]
    if any(r["failed"] for r in results):
        status = 1
    if args.trace is not None and len(workloads) == 1 and len(sets) == 1:
        print(gate_line(results[0], contract))
        return 0  # the gate reads failures from the result object
    return status


if __name__ == "__main__":
    sys.exit(main())
