"""Benchmark harness: builds evaluation environments and aggregates runs.

`benchmarks/` (pytest-benchmark) uses this package to regenerate every
table and figure of the paper's Sec. V; the harness owns the default
experimental setup (Table I parameters, the scaled dataset, the disk cost
model) and the query-set execution protocol (warm-up + measured queries).
"""

from repro.bench.harness import (
    BENCH_DATASET,
    BENCH_DISK,
    DEFAULTS,
    QUERIES_PER_SET,
    WARMUP_QUERIES,
    Environment,
    QuerySetStats,
    TableIDefaults,
    build_environment,
    run_queries,
    run_query_set,
)
from repro.bench.codec_compare import (
    CodecRun,
    codec_compare_sweep,
    emit_codec_compare,
)
from repro.bench.kernel_compare import (
    KernelRun,
    emit_kernel_compare,
    kernel_compare_sweep,
)
from repro.bench.reporting import emit_table, results_dir

__all__ = [
    "BENCH_DATASET",
    "BENCH_DISK",
    "DEFAULTS",
    "QUERIES_PER_SET",
    "WARMUP_QUERIES",
    "Environment",
    "QuerySetStats",
    "TableIDefaults",
    "build_environment",
    "run_queries",
    "run_query_set",
    "CodecRun",
    "codec_compare_sweep",
    "emit_codec_compare",
    "KernelRun",
    "emit_kernel_compare",
    "kernel_compare_sweep",
    "emit_table",
    "results_dir",
]
