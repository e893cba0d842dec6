"""repro.bench — the performance-trajectory harness.

Registered, named workloads (:mod:`~repro.bench.workloads`) covering
the per-kernel layers the whole-study ``perfbench/`` does not time —
the Tucker kernels, D-M2TD at several worker counts and venues, the
block store, and the serving concurrency ladder — are measured by a
:class:`BenchmarkRunner` (warmup + repeated timed iterations, median +
IQR wall/CPU time, tracemalloc peak memory, metrics-registry deltas)
into schema-versioned ``BENCH_<suite>.json`` artifacts
(:mod:`~repro.bench.schema`), which :mod:`~repro.bench.compare` turns
into per-workload improved/regressed/unchanged verdicts with an
IQR-derived noise threshold.

CLI: ``python -m repro.bench run | compare | report`` (see
``docs/benchmarks.md``).
"""

from .compare import (
    Verdict,
    compare_paths,
    compare_records,
    format_verdicts,
    has_regressions,
    noise_threshold,
)
from .harness import BenchmarkRunner, TimingStats, WorkloadResult, percentile
from .schema import (
    SCHEMA,
    bench_filename,
    environment_fingerprint,
    load_document,
    make_document,
    validate_document,
    write_document,
)
from .workloads import (
    BENCH_RANK,
    BENCH_RESOLUTION,
    BENCH_SEED,
    FULL,
    QUICK,
    WORKLOADS,
    PreparedWorkload,
    SizeSpec,
    Workload,
    get_workloads,
    size_for,
    suites,
    workload,
)

__all__ = [
    "BENCH_RANK",
    "BENCH_RESOLUTION",
    "BENCH_SEED",
    "BenchmarkRunner",
    "FULL",
    "PreparedWorkload",
    "QUICK",
    "SCHEMA",
    "SizeSpec",
    "TimingStats",
    "Verdict",
    "WORKLOADS",
    "Workload",
    "WorkloadResult",
    "bench_filename",
    "compare_paths",
    "compare_records",
    "environment_fingerprint",
    "format_verdicts",
    "get_workloads",
    "has_regressions",
    "load_document",
    "make_document",
    "noise_threshold",
    "percentile",
    "size_for",
    "suites",
    "validate_document",
    "workload",
    "write_document",
]
