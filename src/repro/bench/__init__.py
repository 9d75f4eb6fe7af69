"""Benchmark harness: workloads, tables, recording helpers."""

from repro.bench.harness import (
    is_error_row,
    iter_result_rows,
    load_artifact,
    record_result,
    result_row,
    save_artifact,
)
from repro.bench.tables import format_table, print_table
from repro.bench.workloads import (
    BENCH_DELTA,
    BENCH_EPSILON,
    SCALING_CLIQUES,
    SCALING_CLIQUES_LARGE,
    bench_params,
    hard_workload,
    mixed_workload,
    workload_classification,
)

__all__ = [
    "BENCH_DELTA",
    "BENCH_EPSILON",
    "SCALING_CLIQUES",
    "SCALING_CLIQUES_LARGE",
    "bench_params",
    "format_table",
    "hard_workload",
    "is_error_row",
    "iter_result_rows",
    "load_artifact",
    "mixed_workload",
    "print_table",
    "record_result",
    "result_row",
    "save_artifact",
    "workload_classification",
]
