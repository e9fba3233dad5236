"""The high-level query façade — the library's front door.

:class:`TimeRangeCoreQuery` wraps the full pipeline (Algorithm 2 + 5) and
the alternative engines behind one object with validated parameters:

>>> from repro import TemporalGraph, TimeRangeCoreQuery
>>> g = TemporalGraph([("a", "b", 1), ("b", "c", 1), ("a", "c", 2)])
>>> result = TimeRangeCoreQuery(g, k=2, time_range=(1, 2)).run()
>>> result.num_results
1
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.baselines.bruteforce import enumerate_bruteforce
from repro.baselines.otcd import enumerate_otcd
from repro.core.coretime import CoreTimeResult, compute_core_times
from repro.core.enumbase import enumerate_temporal_kcores_base
from repro.core.index import CoreIndexRegistry, DEFAULT_REGISTRY
from repro.core.results import EnumerationResult
from repro.errors import InvalidParameterError
from repro.graph.temporal_graph import TemporalGraph
from repro.obs.timing import Deadline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.serve.sinks import ResultSink

#: Engines selectable by name.  ``enum`` is the paper's final algorithm;
#: ``index`` answers from a shared full-span CoreIndex (built once per
#: ``(graph, k)`` and cached in an LRU registry), which is the serving
#: path for repeated queries against the same graph.
ENGINES = ("enum", "enumbase", "otcd", "otcd-nopruning", "bruteforce", "index")


@dataclass
class TimeRangeCoreQuery:
    """A time-range k-core query over a temporal graph.

    Parameters
    ----------
    graph:
        The temporal graph (timestamps normalised to ``1..tmax``).
        Graphs are immutable once constructed, so a query object never
        observes its graph changing underneath it.
    k:
        Minimum distinct-neighbour degree of the cores (``>= 1``).
    time_range:
        Query range ``(Ts, Te)`` in normalised timestamps; defaults to
        the graph's full span.  Validated on construction
        (:class:`~repro.errors.InvalidParameterError` on a window
        outside ``1..tmax`` or with ``Ts > Te``).
    engine:
        One of :data:`ENGINES`.  ``enum`` recomputes per query (the
        paper's pipeline); ``index`` serves from a shared full-span
        :class:`~repro.core.index.CoreIndex` and is the right choice for
        repeated queries against one graph.
    collect:
        Materialise cores (default) or stream counters only.
    timeout:
        Optional per-query soft deadline in seconds; on expiry the result
        is returned partially filled with ``completed=False``.  For
        ``engine="index"`` the deadline governs the enumeration only: a
        cold-cache index build runs to completion (a partial index would
        be useless to later queries), so the first query against a
        ``(graph, k)`` can overshoot the deadline by the build time.
    registry:
        Index registry consulted by ``engine="index"``; defaults to the
        process-wide :data:`repro.core.index.DEFAULT_REGISTRY`.  Ignored
        by the other engines.  Attach an
        :class:`~repro.store.index_store.IndexStore` to the registry to
        make cold queries open persisted indexes instead of computing.

    Thread-safety: instances are cheap value objects — build one per
    query rather than sharing one across threads.  Concurrent ``run()``
    calls are safe when they go through ``engine="index"`` (the registry
    locks internally) or operate on distinct graphs; the direct engines
    share nothing but the immutable graph.
    """

    graph: TemporalGraph
    k: int
    time_range: tuple[int, int] | None = None
    engine: str = "enum"
    collect: bool = True
    timeout: float | None = None
    registry: CoreIndexRegistry | None = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise InvalidParameterError(
                f"unknown engine {self.engine!r}; choose one of {ENGINES}"
            )
        if self.k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {self.k}")
        if self.time_range is None:
            self.time_range = (1, self.graph.tmax)
        self.graph.check_window(*self.time_range)

    # ------------------------------------------------------------------

    def run(self, *, sink: "ResultSink | None" = None) -> EnumerationResult:
        """Execute the query and return the enumeration result.

        Safe to call repeatedly; each call answers with the configured
        engine (``engine="index"`` reuses the registry-cached index, so
        only the first call on a cold ``(graph, k)`` pays a build).

        The serving engines (``enum`` and ``index``) plan the query
        through :mod:`repro.serve` — ``enum`` as a direct-compute plan
        (Algorithm 2 over the range, the paper's pipeline), ``index``
        as an index-cut plan against the registry — and accept an
        optional delivery ``sink`` (:mod:`repro.serve.sinks`): NDJSON
        streaming or counting.  The baseline engines ignore ``sink``.
        """
        ts, te = self.time_range
        deadline = Deadline(self.timeout) if self.timeout is not None else None
        if self.engine in ("enum", "index"):
            from repro.serve.executor import execute_plan
            from repro.serve.planner import QueryRequest, plan_queries
            from repro.serve.sinks import MaterializingSink

            if sink is None and self.collect:
                sink = MaterializingSink()
            plan = plan_queries(
                [QueryRequest(self.graph, self.k, ts, te, sink=sink)],
                engine="direct" if self.engine == "enum" else "index",
            )
            registry = self.registry if self.registry is not None else DEFAULT_REGISTRY
            return execute_plan(plan, registry=registry, deadline=deadline)[0]
        if self.engine == "enumbase":
            return enumerate_temporal_kcores_base(
                self.graph, self.k, ts, te, collect=self.collect, deadline=deadline
            )
        if self.engine == "otcd":
            return enumerate_otcd(
                self.graph, self.k, ts, te, collect=self.collect, deadline=deadline
            )
        if self.engine == "otcd-nopruning":
            return enumerate_otcd(
                self.graph,
                self.k,
                ts,
                te,
                use_pruning=False,
                collect=self.collect,
                deadline=deadline,
            )
        return enumerate_bruteforce(
            self.graph, self.k, ts, te, collect=self.collect, deadline=deadline
        )

    def core_times(self) -> CoreTimeResult:
        """The VCT index and edge skyline for this query's range.

        Always computed fresh over ``time_range`` (no registry/index
        involvement) — the inspection hook for the paper's Tables I/II.
        """
        ts, te = self.time_range
        return compute_core_times(self.graph, self.k, ts, te)
