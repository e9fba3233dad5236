"""repro — temporal k-core enumeration.

A complete, pure-Python reproduction of *"Accelerating K-Core Computation
in Temporal Graphs"* (EDBT 2026): the CoreTime / edge-core-window-skyline
pipeline and the result-size-optimal Enum algorithm, together with the
OTCD state-of-the-art baseline, a brute-force oracle, historical k-core
queries, synthetic stand-ins for the paper's fourteen datasets, and a
benchmark harness that regenerates every figure and table of the
evaluation section.

Quickstart::

    from repro import TemporalGraph, TimeRangeCoreQuery

    graph = TemporalGraph([("a", "b", 1), ("b", "c", 1), ("a", "c", 2)])
    result = TimeRangeCoreQuery(graph, k=2, time_range=(1, 2)).run()
    for core in result:
        print(core.tti, core.edge_triples(graph))
"""

from repro.core import (
    CoreIndex,
    CoreIndexRegistry,
    StreamingCoreService,
    CoreTimeResult,
    EdgeCoreSkyline,
    ENGINES,
    EnumerationResult,
    TemporalKCore,
    TimeRangeCoreQuery,
    VertexCoreTimeIndex,
    build_core_indexes,
    compute_core_times,
    compute_core_times_multi,
    compute_vertex_core_times,
    enumerate_temporal_kcores,
    enumerate_temporal_kcores_base,
)
from repro.baselines import enumerate_bruteforce, enumerate_otcd, PHCIndex
from repro.errors import (
    BenchmarkError,
    DatasetError,
    EmptyGraphError,
    GraphFormatError,
    InvalidParameterError,
    KernelBuildError,
    ReproError,
    StoreCorruptionError,
    StoreError,
)
from repro.graph import TemporalEdge, TemporalGraph
from repro.store import IndexStore

__version__ = "1.0.0"

__all__ = [
    "BenchmarkError",
    "CoreIndex",
    "CoreIndexRegistry",
    "CoreTimeResult",
    "DatasetError",
    "EdgeCoreSkyline",
    "ENGINES",
    "EmptyGraphError",
    "EnumerationResult",
    "GraphFormatError",
    "IndexStore",
    "InvalidParameterError",
    "KernelBuildError",
    "PHCIndex",
    "ReproError",
    "StoreCorruptionError",
    "StoreError",
    "StreamingCoreService",
    "TemporalEdge",
    "TemporalGraph",
    "TemporalKCore",
    "TimeRangeCoreQuery",
    "VertexCoreTimeIndex",
    "build_core_indexes",
    "compute_core_times",
    "compute_core_times_multi",
    "compute_vertex_core_times",
    "enumerate_bruteforce",
    "enumerate_otcd",
    "enumerate_temporal_kcores",
    "enumerate_temporal_kcores_base",
    "__version__",
]
