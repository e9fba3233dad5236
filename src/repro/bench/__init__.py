"""Benchmark harness: workloads, timing/memory measurement, experiments."""

from repro.bench.harness import (
    EngineSummary,
    FIG6_ENGINES,
    QueryRecord,
    run_dataset_point,
    run_workload,
)
from repro.bench.memory import format_bytes, measure_peak_memory
from repro.bench.reporting import format_table, orders_of_magnitude, speedup
from repro.bench.workloads import (
    Workload,
    build_workload,
    range_has_core,
    sample_query_ranges,
)

__all__ = [
    "EngineSummary",
    "FIG6_ENGINES",
    "QueryRecord",
    "Workload",
    "build_workload",
    "format_bytes",
    "format_table",
    "measure_peak_memory",
    "orders_of_magnitude",
    "range_has_core",
    "run_dataset_point",
    "run_workload",
    "sample_query_ranges",
    "speedup",
]
