"""Benchmark harness: experiment drivers and table formatters.

* :mod:`repro.bench.harness` — uniform method runner, memory model,
  table/series formatting.
* :mod:`repro.bench.experiments` — one driver per paper figure/table
  (the index is ``repro experiment``'s table, ``cli._EXPERIMENTS``).
* :mod:`repro.bench.perf` — kernel microbenchmarks (vectorized vs
  reference) behind ``repro bench perf`` / ``BENCH_kernels.json``.
"""

from repro.bench.harness import (
    PERFORMANCE_METHODS,
    QUALITY_METHODS,
    TABLE5_METHODS,
    TABLE6_METHODS,
    format_series,
    format_table,
    mem_score,
    method_memory_bytes,
    run_method,
)
from repro.bench import experiments
from repro.bench.perf import run_perf

__all__ = [
    "run_perf",
    "run_method",
    "mem_score",
    "method_memory_bytes",
    "format_table",
    "format_series",
    "QUALITY_METHODS",
    "PERFORMANCE_METHODS",
    "TABLE5_METHODS",
    "TABLE6_METHODS",
    "experiments",
]
