"""The query planner — normalise serving traffic into a `QueryPlan`.

Every serving entry point (single queries through
:class:`~repro.core.query.TimeRangeCoreQuery`, the fixed-``k`` and
mixed batch runners, the daemon, the CLI) describes its work as :class:`QueryRequest` values and hands
them to :func:`plan_queries`.  Planning is pure — no index is built,
no window enumerated — and does three things:

1. **Group** requests by ``(graph, k)``: requests of one group share a
   skyline, so their window prep is one vectorised cut.
2. **Dedupe and merge the counting requests** (no sink, or a bare
   :class:`~repro.serve.sinks.CountSink`): identical ranges collapse
   onto one covering window; contained ranges ride along for free;
   overlapping ranges are merged into one covering window when the
   overlap is worth it (:data:`DEFAULT_MIN_OVERLAP` — merging windows
   that barely touch would pay for boundary-straddling cores nobody
   asked for).  Each covering window is counted **once** by the
   executor, for every request it serves: a core of the covering walk
   belongs to request ``[ts, te]`` exactly when its TTI is contained
   in ``[ts, te]`` (Definition 3 puts cores and TTIs in bijection, so
   sub-range answers are TTI filters — the same fact that lets one
   full-span index serve arbitrary ranges).  A request whose sink
   receives the cores gets a covering window of its own: Enum is
   result-size optimal (Theorem 3), so its walk already costs about
   its own output, and sharing it would save at most a constant.
3. **Tag the engine** of every group: ``index`` (cut the shared
   :class:`~repro.core.index.CoreIndex` skyline, the default) or
   ``direct`` (run Algorithm 2 over each covering window, the paper's
   per-query pipeline).

The resulting :class:`QueryPlan` is inert data; hand it to
:func:`repro.serve.executor.execute_plan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import InvalidParameterError
from repro.graph.temporal_graph import TemporalGraph
from repro.obs.metrics import get_registry, timing_enabled
from repro.obs.timing import now
from repro.obs.trace import NULL_TRACE, Trace
from repro.serve.sinks import CountSink, ResultSink

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.index import CoreIndex

#: Engine names a plan group can carry.
PLAN_ENGINES = ("index", "direct")

# Planner instruments on the process metrics registry.  The counters
# mirror the per-plan ``stats`` dict cumulatively; the histogram times
# whole planning passes (skipped when timing is disabled).
_PLAN_SECONDS = get_registry().histogram(
    "repro_plan_seconds", "Query-planning latency per batch"
)
_PLAN_REQUESTS = get_registry().counter(
    "repro_plan_requests_total", "Requests planned"
)
_PLAN_WINDOWS = get_registry().counter(
    "repro_plan_windows_total", "Covering windows emitted by the planner"
)
_PLAN_DEDUPED = get_registry().counter(
    "repro_plan_deduped_total", "Requests answered by an identical range"
)
_PLAN_MERGED = get_registry().counter(
    "repro_plan_merged_total", "Distinct ranges folded into a shared window"
)

#: Minimum overlap fraction (of the smaller window) for merging two
#: overlapping-but-not-nested ranges into one covering window.
DEFAULT_MIN_OVERLAP = 0.5


@dataclass(frozen=True)
class QueryRequest:
    """One range query: ``(graph, k, [ts, te])`` plus its delivery sink.

    ``sink`` is optional — without one the request only counts, into a
    :class:`~repro.serve.sinks.CountSink` the executor creates.
    Validated eagerly so a malformed request fails at plan time, not
    midway through executing a batch.
    """

    graph: TemporalGraph
    k: int
    ts: int
    te: int
    sink: ResultSink | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {self.k}")
        self.graph.check_window(self.ts, self.te)

    @property
    def time_range(self) -> tuple[int, int]:
        return (self.ts, self.te)

    @property
    def counts(self) -> bool:
        """Whether the request only counts: it may share a covering window."""
        return self.sink is None or type(self.sink) is CountSink


@dataclass
class CoveringWindow:
    """One window the executor enumerates, serving one or more requests.

    ``requests`` are indices into the plan's request list; every
    request range is contained in ``[ts, te]`` and is credited with the
    walk's cores whose TTIs its range contains.  Only counting requests
    share a window.
    """

    ts: int
    te: int
    requests: list[int]

    @property
    def is_shared(self) -> bool:
        return len(self.requests) > 1


@dataclass
class PlanGroup:
    """All covering windows of one ``(graph, k)``, plus the engine choice.

    ``index`` may carry a pre-resolved :class:`CoreIndex` (pinned by
    the caller — e.g. ``CoreIndex.query`` planning for itself); the
    executor then uses it directly instead of consulting a registry.
    """

    graph: TemporalGraph
    k: int
    engine: str
    windows: list[CoveringWindow] = field(default_factory=list)
    index: "CoreIndex | None" = None


@dataclass
class QueryPlan:
    """The executable shape of a batch of requests.

    ``stats`` records what planning saved among the counting
    requests: ``deduped`` identical ranges, ``merged`` ranges answered
    from a shared covering window, and the final window count versus
    the request count.  ``trace``
    carries the per-query span tree the executor should continue
    recording into (:data:`~repro.obs.trace.NULL_TRACE` when tracing
    is off).
    """

    requests: list[QueryRequest]
    groups: list[PlanGroup]
    stats: dict[str, int] = field(default_factory=dict)
    trace: Trace = NULL_TRACE

    @property
    def num_windows(self) -> int:
        return sum(len(group.windows) for group in self.groups)


def _merge_ranges(
    ranges: list[tuple[tuple[int, int], list[int]]]
) -> list[CoveringWindow]:
    """Merge deduped ranges (sorted by ``(ts, -te)``) into covering windows.

    Containment always merges (the contained range adds no new work);
    plain overlap merges when it spans at least
    :data:`DEFAULT_MIN_OVERLAP` of the smaller range.
    """
    windows: list[CoveringWindow] = []
    for (ts, te), request_ids in ranges:
        if windows:
            current = windows[-1]
            if te <= current.te:  # contained (ranges sorted by ts)
                current.requests.extend(request_ids)
                continue
            overlap = current.te - ts + 1
            smaller = min(current.te - current.ts, te - ts) + 1
            if overlap > 0 and overlap >= DEFAULT_MIN_OVERLAP * smaller:
                current.te = te
                current.requests.extend(request_ids)
                continue
        windows.append(CoveringWindow(ts, te, list(request_ids)))
    return windows


def plan_for_index(
    index: "CoreIndex",
    ranges: list[tuple[int, int]],
    *,
    sinks: "list[ResultSink | None] | None" = None,
    trace: Trace | None = None,
) -> QueryPlan:
    """Plan a batch of ranges pinned to an already-resolved index.

    The shape behind :meth:`CoreIndex.query_batch
    <repro.core.index.CoreIndex.query_batch>`: the usual dedup/merge
    planning, with every group carrying ``index`` so the executor never
    consults a registry.  ``sinks`` optionally supplies one delivery
    sink per range (parallel to ``ranges``).
    """
    if sinks is not None and len(sinks) != len(ranges):
        raise InvalidParameterError(
            f"sinks has {len(sinks)} entries for {len(ranges)} ranges"
        )
    requests = [
        QueryRequest(
            index.graph,
            index.k,
            ts,
            te,
            sink=sinks[position] if sinks is not None else None,
        )
        for position, (ts, te) in enumerate(ranges)
    ]
    plan = plan_queries(requests, trace=trace)
    for group in plan.groups:
        group.index = index
    return plan


def plan_queries(
    requests: "list[QueryRequest]",
    *,
    engine: str = "index",
    trace: Trace | None = None,
) -> QueryPlan:
    """Normalise ``requests`` into a :class:`QueryPlan`.

    ``engine`` (``"index"`` or ``"direct"``) is the engine of every
    group.

    ``trace``, when given, records the pass as a ``plan`` span and is
    carried on the returned plan for the executor to continue;
    planning also feeds the process registry's ``repro_plan_*``
    instruments either way.
    """
    if engine not in PLAN_ENGINES:
        raise InvalidParameterError(
            f"unknown plan engine {engine!r}; choose one of {PLAN_ENGINES}"
        )
    trace = trace if trace is not None else NULL_TRACE
    timed = timing_enabled()
    started = now() if timed else 0.0
    with trace.span("plan", requests=len(requests), engine=engine) as span:
        plan = _plan(requests, engine)
        span.set(
            windows=plan.stats["windows"],
            deduped=plan.stats["deduped"],
            merged=plan.stats["merged"],
        )
    plan.trace = trace
    _PLAN_REQUESTS.inc(plan.stats["requests"])
    _PLAN_WINDOWS.inc(plan.stats["windows"])
    _PLAN_DEDUPED.inc(plan.stats["deduped"])
    _PLAN_MERGED.inc(plan.stats["merged"])
    if timed:
        _PLAN_SECONDS.observe(now() - started)
    return plan


def _plan(requests: "list[QueryRequest]", engine: str) -> QueryPlan:
    # Group by (graph identity, k), preserving first-seen order.
    grouped: dict[tuple[int, int], list[int]] = {}
    graphs: dict[int, TemporalGraph] = {}
    for position, request in enumerate(requests):
        graphs[id(request.graph)] = request.graph
        grouped.setdefault((id(request.graph), request.k), []).append(position)

    deduped = 0
    merged = 0
    groups: list[PlanGroup] = []
    for (gid, k), positions in grouped.items():
        # Dedupe identical counting ranges; each emitting request walks alone.
        by_range: dict[tuple[int, int], list[int]] = {}
        own: list[CoveringWindow] = []
        for position in positions:
            request = requests[position]
            if request.counts:
                by_range.setdefault(request.time_range, []).append(position)
            else:
                own.append(CoveringWindow(request.ts, request.te, [position]))
        deduped += len(positions) - len(own) - len(by_range)
        ordered = sorted(by_range.items(), key=lambda item: (item[0][0], -item[0][1]))
        windows = _merge_ranges(ordered)
        merged += len(by_range) - len(windows)
        groups.append(PlanGroup(graphs[gid], k, engine, windows + own))

    return QueryPlan(
        list(requests),
        groups,
        stats={
            "requests": len(requests),
            "groups": len(groups),
            "windows": sum(len(g.windows) for g in groups),
            "deduped": deduped,
            "merged": merged,
        },
    )
