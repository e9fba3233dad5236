"""The plan executor — run a :class:`~repro.serve.planner.QueryPlan`.

Execution walks the plan group by group:

* an ``index`` group resolves its shared
  :class:`~repro.core.index.CoreIndex` (pinned on the group, else
  through the registry, which loads or builds it) and cuts its
  covering windows: each is a :class:`~repro.core.windows.SkylineCut`.
  The counting windows' start-order positions come from one vectorised
  lookup in the per-start offsets of the skyline's start-ordered
  columns; every window carries the id range of the graph's edges
  stamped inside it, whose flat run an emitting walk reads;
* a ``direct`` group runs Algorithm 2 over each covering window and
  hands over the full-span cut of the freshly computed skyline;
* every covering window is enumerated **once** by the columnar core
  (:func:`~repro.serve.columnar.run_columnar_walk`), which reads a
  counting sink's cut straight from the skyline's columns (activation
  included) and materialises the ``(eid, start, end, active)`` slice
  of the flat edge run only for a sink that receives the cores, so an
  emitting-only read derives nothing from the skyline.  Only counting
  requests share a window (the planner gives every other request one
  of its own); a shared window's walk is counted by a slice router,
  whose target ranges the compiled counting walk credits in C, two
  lookups per target and visit, so a contended batch never re-enters
  Python per request.

Results come back as one :class:`~repro.core.results.EnumerationResult`
per request, in request order; a request without a sink is counted
into a fresh :class:`~repro.serve.sinks.CountSink`, and the returned
result reflects its sink's counters.  :func:`execute_batch` is the
mixed ``(graph, k, range)`` batch in one call: prefetch every graph's
``k`` values, plan, execute.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.results import EnumerationResult
from repro.core.windows import SkylineCut, edge_run
from repro.errors import InvalidParameterError
from repro.obs.metrics import get_registry, timing_enabled
from repro.obs.timing import Deadline, now
from repro.serve.columnar import run_columnar_walk
from repro.serve.planner import PlanGroup, QueryPlan, QueryRequest, plan_queries
from repro.serve.sinks import CountSink, ResultSink

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.index import CoreIndexRegistry
    from repro.graph.temporal_graph import TemporalGraph
    from repro.obs.trace import Trace

# Executor instruments on the process metrics registry.  Latency
# histograms observe only when timing is enabled; the router counters
# accumulate locally per walk and flush once at finish.
_EXECUTE_SECONDS = get_registry().histogram(
    "repro_execute_seconds", "Plan execution latency per batch"
)
_ENUMERATE_SECONDS = get_registry().histogram(
    "repro_enumerate_seconds", "Columnar walk latency per covering window"
)
_SINK_FLUSH_SECONDS = get_registry().histogram(
    "repro_sink_flush_seconds", "Sink finish/flush latency per covering window"
)
_WINDOWS_EXECUTED = get_registry().counter(
    "repro_execute_windows_total",
    "Covering windows enumerated, by sharing mode",
    ("mode",),
)
_ROUTER_TARGETS = get_registry().counter(
    "repro_router_targets_total", "Requests counted by slice routers"
)
_ROUTER_BATCHES = get_registry().counter(
    "repro_router_batches_total", "Start times counted by slice routers"
)


class _SliceRouter(ResultSink):
    """Count one covering walk for every request it serves.

    Targets are ``(ts, te, sink)`` with a bare :class:`CountSink` each,
    held as one pair of flat interval arrays sorted by ``ts``.  The
    compiled counting walk (:meth:`counting_targets`) credits a target,
    at every visited start time ``t`` with ``ts <= t <= te``, with the
    cores ending by ``te`` — exactly the target range's own answer: a
    covering window's cores restricted to a contained range are the
    range's cores (TTI containment, see the planner notes).
    :meth:`finish` writes the per-target totals into the sinks once.
    """

    def __init__(self, targets: list[tuple[int, int, ResultSink]]):
        super().__init__()
        order = sorted(range(len(targets)), key=lambda i: targets[i][0])
        self._ts = np.array([targets[i][0] for i in order], dtype=np.int64)
        self._te = np.array([targets[i][1] for i in order], dtype=np.int64)
        self._sinks = [targets[i][2] for i in order]
        self._num = np.zeros(len(targets), dtype=np.int64)
        self._edges = np.zeros(len(targets), dtype=np.int64)
        self._batches = 0  # flushed to the metrics registry at finish

    def counting_targets(self):
        return self._ts, self._te, self._num, self._edges

    def add_counted(self, batches: int, num_results: int, total_edges: int) -> None:
        super().add_counted(batches, num_results, total_edges)
        self._batches += batches

    def finish(self, completed: bool) -> None:
        super().finish(completed)
        for sink, num, edges in zip(self._sinks, self._num.tolist(), self._edges.tolist()):
            sink.num_results += num
            sink.total_edges += edges
            sink.finish(completed)
        _ROUTER_TARGETS.inc(len(self._sinks))
        _ROUTER_BATCHES.inc(self._batches)


def _group_cuts(
    group: PlanGroup,
    counting: list[bool],
    *,
    registry: "CoreIndexRegistry | None",
    deadline: Deadline | None = None,
):
    """Yield ``(window, cut)`` for every covering window of ``group``.

    ``cut`` is the window's :class:`~repro.core.windows.SkylineCut` of
    the group's index skyline, or the full span of a ``direct``
    window's fresh skyline; only the windows flagged in ``counting``
    (one flag per window) get start-order positions.  Window
    preparation is where the executor's *other* costs live — a cold
    index resolve (possibly a build), or a full Algorithm-2 run per
    ``direct`` window.  An expired (or cancelled) ``deadline`` therefore
    short-circuits *before* each window's prep: the window is yielded
    with ``cut=None`` and the
    caller marks its requests ``completed=False`` without enumerating.
    Without this, a deadline abort would keep paying per-window prep
    for every remaining window — prompt cancellation (the daemon's
    client-disconnect path) needs the skip here, not just inside the
    walk.
    """
    expired = deadline.expired if deadline is not None else (lambda: False)
    if group.engine == "index":
        if expired():
            for window in group.windows:
                yield window, None
            return
        index = group.index
        if index is None:
            from repro.core.index import get_core_index

            index = get_core_index(group.graph, group.k, registry=registry)
        skyline = index.ecs
        span_lo, span_hi = skyline.span
        for window in group.windows:
            if window.ts < span_lo or window.te > span_hi:
                raise InvalidParameterError(
                    f"[{window.ts}, {window.te}] is not inside the computed "
                    f"span [{span_lo}, {span_hi}]"
                )
        counted = [window for window, flag in zip(group.windows, counting) if flag]
        positions = iter(())
        if counted:
            los, his = skyline.start_cuts(
                [window.ts for window in counted], [window.te for window in counted]
            )
            positions = zip(los.tolist(), his.tolist())
        for window, flag in zip(group.windows, counting):
            lo, hi = next(positions) if flag else (None, None)
            if expired():
                yield window, None
                continue
            edges = edge_run(index.graph, window.ts, window.te)
            yield window, SkylineCut(skyline, lo, hi, window.ts, window.te, edges)
    elif group.engine == "direct":
        from repro.core.coretime import compute_core_times

        for window, flag in zip(group.windows, counting):
            if expired():
                yield window, None
                continue
            skyline = compute_core_times(
                group.graph, group.k, window.ts, window.te
            ).ecs
            assert skyline is not None
            yield window, skyline.cut(window.ts, window.te, group.graph, counting=flag)
    else:  # pragma: no cover - the planner validates engines
        raise InvalidParameterError(f"plan group has unknown engine {group.engine!r}")


def execute_plan(
    plan: QueryPlan,
    *,
    registry: "CoreIndexRegistry | None" = None,
    deadline: Deadline | None = None,
) -> list[EnumerationResult]:
    """Run ``plan``; one :class:`EnumerationResult` per request, in order.

    A request without a sink is counted into a fresh
    :class:`CountSink`.  ``registry`` resolves the
    shared indexes of ``index`` groups (falling back to the process-wide
    default registry).  ``deadline`` is shared by every
    walk: on expiry the remaining windows abort immediately and their
    requests come back with ``completed=False`` and whatever was
    delivered before the abort.

    Execution records into the plan's trace (an ``execute`` span
    wrapping one ``enumerate`` and ``sink_flush`` span per covering
    window) and into the process metrics registry (the
    ``repro_execute_*`` / ``repro_enumerate_seconds`` /
    ``repro_sink_flush_seconds`` instruments).
    """
    trace = plan.trace
    timed = timing_enabled()
    started = now() if timed else 0.0
    sinks: list[ResultSink] = [
        CountSink() if request.sink is None else request.sink
        for request in plan.requests
    ]
    with trace.span("execute", windows=plan.num_windows):
        for group in plan.groups:
            targets: list[ResultSink] = [
                _SliceRouter(
                    [
                        (plan.requests[rid].ts, plan.requests[rid].te, sinks[rid])
                        for rid in window.requests
                    ]
                )
                if window.is_shared
                else sinks[window.requests[0]]
                for window in group.windows
            ]
            counting = [target.counting_targets() is not None for target in targets]
            cuts = _group_cuts(group, counting, registry=registry, deadline=deadline)
            for (window, cut), target in zip(cuts, targets):
                if cut is None:
                    # Deadline expired (or the request was cancelled)
                    # before this window's prep — skip the walk entirely,
                    # the sink just learns it did not complete.
                    _WINDOWS_EXECUTED.labels("skipped").inc()
                    target.finish(False)
                    continue
                _WINDOWS_EXECUTED.labels(
                    "shared" if window.is_shared else "single"
                ).inc()
                with trace.span(
                    "enumerate",
                    ts=window.ts,
                    te=window.te,
                    requests=len(window.requests),
                ):
                    walk_started = now() if timed else 0.0
                    completed = run_columnar_walk(cut, target, deadline=deadline)
                    if timed:
                        _ENUMERATE_SECONDS.observe(now() - walk_started)
                with trace.span("sink_flush", requests=len(window.requests)):
                    flush_started = now() if timed else 0.0
                    target.finish(completed)
                    if timed:
                        _SINK_FLUSH_SECONDS.observe(now() - flush_started)
        results = [
            sink.result("enum", request.k, request.time_range)
            for request, sink in zip(plan.requests, sinks)
        ]
    if timed:
        _EXECUTE_SECONDS.observe(now() - started)
    return results


def execute_batch(
    requests: list[QueryRequest],
    *,
    registry: "CoreIndexRegistry | None" = None,
    trace: "Trace | None" = None,
) -> tuple[QueryPlan, list[EnumerationResult]]:
    """Answer a mixed ``(graph, k, range)`` batch; ``(plan, results)``.

    Each graph's distinct ``k`` values are resolved first, in one
    :meth:`~repro.core.index.CoreIndexRegistry.get_many` call per graph
    (registry cache, then the registry's store, then **one** shared
    multi-``k`` build for whatever is still missing — never one
    Algorithm-2 run per ``k``).  The requests are then planned on the
    ``index`` engine and executed from the warm registry; results come
    back in request order (count-only unless a request brings its own
    sink).
    """
    from repro.core.index import DEFAULT_REGISTRY

    target = registry if registry is not None else DEFAULT_REGISTRY
    ks_by_graph: dict[int, tuple["TemporalGraph", list[int]]] = {}
    for request in requests:
        graph, ks = ks_by_graph.setdefault(id(request.graph), (request.graph, []))
        if request.k not in ks:
            ks.append(request.k)
    for graph, ks in ks_by_graph.values():
        target.get_many(graph, ks)
    plan = plan_queries(requests, trace=trace)
    return plan, execute_plan(plan, registry=target)
