"""The paper's primary contribution: core times, skylines, enumeration."""

from repro.core.coretime import (
    CoreTimeResult,
    VertexCoreTimeIndex,
    compute_core_times,
    compute_vertex_core_times,
    core_time_by_rescan,
)
from repro.core.enumbase import enumerate_temporal_kcores_base
from repro.core.enumerate import enumerate_temporal_kcores
from repro.core.enumerate_ref import enumerate_temporal_kcores_ref
from repro.core.index import (
    CoreIndex,
    CoreIndexRegistry,
    DEFAULT_REGISTRY,
    get_core_index,
)
from repro.core.linkedlist import WindowList
from repro.core.maintenance import StreamingCoreService
from repro.core.multik import build_core_indexes, compute_core_times_multi
from repro.core.query import ENGINES, TimeRangeCoreQuery
from repro.core.results import EnumerationResult, TemporalKCore
from repro.core.vertex_sets import (
    distinct_vertex_sets,
    enumerate_vertex_sets,
    vertex_set_compression,
)
from repro.core.windows import ActiveWindow, EdgeCoreSkyline, build_active_windows

__all__ = [
    "ActiveWindow",
    "CoreIndex",
    "CoreIndexRegistry",
    "DEFAULT_REGISTRY",
    "CoreTimeResult",
    "EdgeCoreSkyline",
    "ENGINES",
    "EnumerationResult",
    "StreamingCoreService",
    "TemporalKCore",
    "TimeRangeCoreQuery",
    "VertexCoreTimeIndex",
    "WindowList",
    "build_active_windows",
    "build_core_indexes",
    "compute_core_times",
    "compute_core_times_multi",
    "compute_vertex_core_times",
    "core_time_by_rescan",
    "distinct_vertex_sets",
    "enumerate_temporal_kcores",
    "enumerate_temporal_kcores_base",
    "enumerate_temporal_kcores_ref",
    "enumerate_vertex_sets",
    "get_core_index",
    "vertex_set_compression",
]
