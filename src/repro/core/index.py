"""A reusable core index: build VCT + ECS once, answer many query ranges.

The paper computes the skyline per query.  In an index-serving deployment
(the PHC-index spirit of [13]) one wants to precompute over the whole
time span and answer arbitrary sub-ranges.  Minimal core windows are
intrinsic to the graph, so the skyline of a sub-range is a filter of the
whole-span skyline: the serving path cuts it as a
:class:`~repro.core.windows.SkylineCut` (two offsets into the
skyline's start order), and the walk re-derives activation times.
This module packages that pattern — :class:`CoreIndex` for one
``(graph, k)``, :class:`CoreIndexRegistry` for an LRU-bounded pool of
them serving many graphs and ``k`` values.

Persistence lives in :mod:`repro.store`: the binary index store
(mmap-able flat arrays, fingerprint staleness checks) is the index's one
persisted form, and a registry with a store attached loads from and
commits to it.  :meth:`CoreIndex.dump_skyline`
writes a human-readable text listing of the skyline for inspection;
nothing reads it back.
"""

from __future__ import annotations

import logging
import os
import threading
from collections import OrderedDict
from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.core.coretime import CoreTimeResult, VertexCoreTimeIndex, compute_core_times
from repro.core.results import EnumerationResult
from repro.core.windows import EdgeCoreSkyline
from repro.errors import InvalidParameterError, StoreError
from repro.graph.temporal_graph import TemporalGraph
from repro.obs.metrics import MetricsRegistry, get_registry, next_instance
from repro.obs.timing import Deadline, now
from repro.obs.trace import NULL_TRACE, Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.serve.sinks import ResultSink
    from repro.store.index_store import IndexStore

log = logging.getLogger("repro.core.index")


def _build_seconds_histogram():
    """Index build-time histogram on the process registry.

    Labelled with the built ``k`` — one value for a :class:`CoreIndex`
    build, a comma-joined list for a shared multi-``k`` build.
    """
    return get_registry().histogram(
        "repro_index_build_seconds",
        "Core-index (VCT+ECS) build time per build (one k or a shared multi-k scan)",
        ("k",),
    )


class CoreIndex:
    """Prebuilt VCT + ECS for one ``k`` over the graph's full span."""

    def __init__(self, graph: TemporalGraph, k: int):
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        self.graph = graph
        self.k = k
        started = now()
        result: CoreTimeResult = compute_core_times(graph, k)
        _build_seconds_histogram().labels(str(k)).observe(now() - started)
        assert result.ecs is not None
        self.vct: VertexCoreTimeIndex = result.vct
        self.ecs: EdgeCoreSkyline = result.ecs

    @classmethod
    def from_core_times(
        cls,
        graph: TemporalGraph,
        k: int,
        result: CoreTimeResult,
    ) -> "CoreIndex":
        """Wrap an already-computed full-span result as an index.

        Used by the shared-scan multi-``k`` builder
        (:func:`repro.core.multik.build_core_indexes`), the incremental
        fold and the store codec, which produce VCT/ECS without going
        through this class's constructor.  The result must carry a
        skyline.
        """
        if result.ecs is None:
            raise InvalidParameterError(
                "a CoreIndex needs the skyline; compute with with_skyline=True"
            )
        index = cls.__new__(cls)
        index.graph = graph
        index.k = k
        index.vct = result.vct
        index.ecs = result.ecs
        return index

    def query(
        self,
        ts: int,
        te: int,
        *,
        collect: bool = True,
        sink: "ResultSink | None" = None,
        deadline: Deadline | None = None,
    ) -> EnumerationResult:
        """All distinct temporal k-cores of ``[ts, te]`` from the index.

        Equivalent to a fresh per-range run (validated by the test
        suite), but skips the core-time computation entirely: the query
        is planned as a single-request :class:`~repro.serve.planner
        .QueryPlan` pinned to this index, and the executor cuts the
        full-span skyline down to the range by two ``searchsorted``
        calls over a start-sorted permutation cached on the skyline —
        no restricted skyline is materialised and no per-edge scan
        runs.  ``sink`` optionally redirects delivery (NDJSON or
        counters — see :mod:`repro.serve.sinks`).
        """
        return self.query_batch(
            [(ts, te)], collect=collect, sinks=[sink], deadline=deadline
        )[0]

    def query_batch(
        self,
        ranges: "Iterable[tuple[int, int]]",
        *,
        collect: bool = False,
        sinks: "list[ResultSink | None] | None" = None,
        deadline: Deadline | None = None,
        trace: Trace | None = None,
    ) -> list[EnumerationResult]:
        """Answer many ranges from the shared index in one planned pass.

        The batch serving primitive: the ranges are planned against
        this index (identical counting ranges deduped, overlapping ones
        merged and counted once, each answer read off the shared walk
        by TTI containment) and the executor locates every covering
        window's cut with a single ``searchsorted`` pair over the
        cached sorted skyline view.  Results come back in input order;
        ``collect`` defaults to ``False`` (count only), matching batch
        traffic; ``collect=True`` gives every range without a sink a
        :class:`~repro.serve.sinks.MaterializingSink`, and so a walk of
        its own.  ``sinks``, when given, carries one optional
        per-range delivery sink.  ``trace``, when given, records a span
        tree for the batch — ``query_batch`` wrapping ``plan`` and
        ``execute`` (see :mod:`repro.obs.trace`).
        """
        from repro.serve.executor import execute_plan
        from repro.serve.planner import plan_for_index
        from repro.serve.sinks import MaterializingSink

        ranges = list(ranges)
        if not ranges:
            return []
        if collect:
            sinks = [
                MaterializingSink() if sink is None else sink
                for sink in (sinks if sinks is not None else [None] * len(ranges))
            ]
        trace = trace if trace is not None else NULL_TRACE
        with trace.span("query_batch", requests=len(ranges), k=self.k):
            plan = plan_for_index(self, ranges, sinks=sinks, trace=trace)
            return execute_plan(plan, deadline=deadline)

    def historical_core(self, ts: int, te: int) -> set[int]:
        """Single-window (historical) k-core members, index-only.

        One vectorised ``searchsorted`` sweep over the flat VCT arrays
        (:meth:`VertexCoreTimeIndex.core_members`) — no per-vertex loop.
        """
        self.graph.check_window(ts, te)
        return set(self.vct.core_members(ts, te).tolist())

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def dump_skyline(self, path: str | os.PathLike[str]) -> None:
        """Write the skyline as text: ``eid: t1,t2 t1,t2 ...``.

        One line per edge that has windows, under a ``# ecs k=.. span=..
        edges=..`` header.
        """
        lo, hi = self.ecs.span
        with open(os.fspath(path), "w", encoding="utf-8") as handle:
            handle.write(
                f"# ecs k={self.k} span={lo},{hi} edges={self.ecs.num_edges}\n"
            )
            for eid in range(self.ecs.num_edges):
                windows = self.ecs.windows_of(eid)
                if windows:
                    rendered = " ".join(f"{t1},{t2}" for t1, t2 in windows)
                    handle.write(f"{eid}: {rendered}\n")


class CoreIndexRegistry:
    """An LRU cache of :class:`CoreIndex` instances keyed on ``(graph, k)``.

    The serving path of :class:`~repro.core.query.TimeRangeCoreQuery`
    (``engine="index"``) and the batch runner go through a registry so
    that repeated queries against the same graph and ``k`` build the
    index once and answer sub-ranges from it.  Graphs are keyed by
    identity (they are immutable but not hashable by value); each cache
    entry pins its graph, so an ``id()`` can never be observed for two
    different live graphs.

    Every miss is resolved by :meth:`get_many` in one step for all the
    ``k`` values it lacks.  Without a store they are computed in **one**
    shared decremental scan.  With an attached
    :class:`~repro.store.index_store.IndexStore` the miss runs
    :meth:`IndexStore.build_all
    <repro.store.index_store.IndexStore.build_all>`: stored entries are
    opened (matched by content fingerprint), the rest are built in one
    shared scan and land in one store commit before they are served —
    so an index built here survives the process however it ends.  A
    store write that fails (labels the store rejects, I/O errors) does
    not fail the lookup: the indexes already built are served and
    cached all the same, unpersisted.  :meth:`stats` exposes per-``k``
    ``store_hits_by_k`` / ``multik_builds_by_k`` counters so a warm
    deployment can assert it never recomputes.

    Invalidation: graphs are immutable, so cached indexes never go
    stale in-process — entries only leave by LRU eviction,
    :meth:`supersede` or :meth:`clear`.  Store entries are
    fingerprint-checked on load, so a store rebuilt against different
    data simply stops matching.

    Thread-safe: all cache operations hold an internal lock, so a
    warm-up thread plus serving threads is a supported pattern.  The
    lock is coarse — it is held across an index build and the store
    commit that follows it (blob and directory fsyncs) — which keeps
    concurrent lookups of the same key from duplicating an expensive
    build at the cost of serialising distinct builds: a hit or a
    :meth:`stats` call from another thread waits for that disk I/O.
    """

    def __init__(
        self,
        capacity: int = 8,
        *,
        store: "IndexStore | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        if capacity < 1:
            raise InvalidParameterError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.store = store
        # All bookkeeping lives in the metrics registry (the process
        # default unless ``metrics=`` isolates it); this instance's
        # series carry a unique ``registry`` label, and :meth:`stats`
        # reads back through it.
        self.metrics = metrics if metrics is not None else get_registry()
        self.instance = next_instance("registry")
        m, inst = self.metrics, self.instance
        self._c_hits = m.counter(
            "repro_registry_hits_total",
            "Index-registry cache hits",
            ("registry",),
        ).labels(inst)
        self._c_misses = m.counter(
            "repro_registry_misses_total",
            "Index-registry cache misses (store probe or build follows)",
            ("registry",),
        ).labels(inst)
        self._c_store_hits = m.counter(
            "repro_registry_store_hits_total",
            "Cache misses served from the attached index store",
            ("registry",),
        ).labels(inst)
        self._c_multik_builds = m.counter(
            "repro_registry_multik_builds_total",
            "Shared multi-k build invocations",
            ("registry",),
        ).labels(inst)
        self._store_hits_by_k_counter = m.counter(
            "repro_registry_store_hits_by_k_total",
            "Store-served misses broken down by k",
            ("registry", "k"),
        )
        self._multik_built_counter = m.counter(
            "repro_registry_multik_built_total",
            "Indexes produced by shared multi-k builds, by k",
            ("registry", "k"),
        )
        self._g_size = m.gauge(
            "repro_registry_size",
            "Resident cached indexes",
            ("registry",),
        ).labels(inst)
        self._g_capacity = m.gauge(
            "repro_registry_capacity",
            "LRU capacity",
            ("registry",),
        ).labels(inst)
        self._g_capacity.set(capacity)
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[int, int], CoreIndex] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _by_k_view(self, counter) -> dict[int, int]:
        """This instance's children of a ``(registry, k)`` counter."""
        return {
            int(key[1]): int(child.value)
            for key, child in counter.items()
            if key[0] == self.instance
        }

    def _insert(self, key: tuple[int, int], index: CoreIndex) -> None:
        """Insert under the lock, evicting beyond capacity (LRU order)."""
        self._entries[key] = index
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        self._g_size.set(len(self._entries))

    def _resolve(
        self, graph: TemporalGraph, ks: list[int]
    ) -> tuple[dict[int, CoreIndex], set[int]]:
        """Load-else-build ``ks``; returns the indexes and the stored ``k``s.

        With a store attached this is :meth:`IndexStore.build_all
        <repro.store.index_store.IndexStore.build_all>` (load, one shared
        build, one commit).  If the store fails, whatever it loaded or
        built is served unpersisted and only the ``k``s it never reached
        are built here: serving must not depend on persisting.
        """
        from repro.core.multik import build_core_indexes

        resolved: dict[int, CoreIndex] = {}
        reused: set[int] = set()
        if self.store is not None:
            try:
                self.store.build_all(graph, ks, reused=reused, into=resolved)
            except (StoreError, OSError) as exc:
                log.warning("index store write failed, serving unpersisted: %s", exc)
        rest = [k for k in ks if k not in resolved]
        if rest:
            resolved.update(build_core_indexes(graph, rest))
        return resolved, reused

    def get(self, graph: TemporalGraph, k: int) -> CoreIndex:
        """The cached index for ``(graph, k)``, loading or building on a miss.

        Shorthand for ``get_many(graph, [k])[k]``.
        """
        return self.get_many(graph, [k])[k]

    def get_many(
        self, graph: TemporalGraph, ks: "Iterable[int]"
    ) -> dict[int, CoreIndex]:
        """Indexes for every ``k`` in ``ks``, resolving the misses together.

        Per ``k``: a cache hit, else (see :meth:`_resolve`) the attached
        store, else a compute — every ``k`` that reaches the compute
        stage is built in **one** shared decremental scan
        (:func:`repro.core.multik.build_core_indexes`) and, with a store,
        committed to it before this returns.  Counters: each ``k``
        contributes one hit or miss; store hits and shared-build
        products are also tallied per ``k`` (see :meth:`stats`).

        Entries are inserted in the order the ``k`` values were
        requested (deduplicated), so under ``capacity`` pressure the
        LRU deterministically keeps the *last* ``capacity`` of them —
        a single shared build never thrashes into repeated rebuilding.

        Thread-safe; holds the registry lock across the whole
        resolution.
        """
        ordered = list(dict.fromkeys(ks))
        if not ordered:
            raise InvalidParameterError("ks must contain at least one k value")
        for k in ordered:
            if k < 1:
                raise InvalidParameterError(f"k must be >= 1, got {k}")
        out: dict[int, CoreIndex] = {}
        missing: list[int] = []
        with self._lock:
            for k in ordered:
                key = (id(graph), k)
                index = self._entries.get(key)
                if index is not None and index.graph is graph:
                    self._entries.move_to_end(key)
                    self._c_hits.inc()
                    out[k] = index
                else:
                    self._c_misses.inc()
                    missing.append(k)
            if not missing:
                return out
            resolved, reused = self._resolve(graph, missing)
            if len(reused) < len(missing):
                self._c_multik_builds.inc()
            for k in missing:
                if k in reused:
                    self._c_store_hits.inc()
                    counter = self._store_hits_by_k_counter
                else:
                    counter = self._multik_built_counter
                counter.labels(self.instance, str(k)).inc()
                self._insert((id(graph), k), resolved[k])
                out[k] = resolved[k]
        return out

    def clear(self) -> None:
        """Drop every cached index (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._g_size.set(0)

    def supersede(
        self, old: "TemporalGraph | None", indexes: "Iterable[CoreIndex]"
    ) -> None:
        """Cache a new graph generation's ``indexes`` in place of ``old``'s.

        A streaming flush replaces a graph with a grown copy plus its
        indexes: the old graph's entries are dropped (the store has
        already moved past them), so generations do not pile up in
        memory, and the new ones are inserted as resident.
        """
        with self._lock:
            for key in [
                key for key, index in self._entries.items() if index.graph is old
            ]:
                del self._entries[key]
            for index in indexes:
                self._insert((id(index.graph), index.k), index)
            self._g_size.set(len(self._entries))

    def stats(self) -> dict:
        """Hit/miss/size counters for observability.

        This dict is a *view* over the metrics registry (series
        labelled with this instance's ``registry`` label), one source
        of truth.  Beyond the aggregate counters, ``store_hits_by_k`` and
        ``multik_builds_by_k`` break down, per ``k``, how many misses
        were served from disk versus computed by the shared multi-``k``
        build — a warm-serving deployment asserts the latter stays at
        zero.  ``multik_builds`` counts shared-build invocations.
        """
        with self._lock:
            size = len(self._entries)
        return {
            "hits": int(self._c_hits.value),
            "misses": int(self._c_misses.value),
            "store_hits": int(self._c_store_hits.value),
            "multik_builds": int(self._c_multik_builds.value),
            "store_hits_by_k": self._by_k_view(self._store_hits_by_k_counter),
            "multik_builds_by_k": self._by_k_view(self._multik_built_counter),
            "size": size,
            "capacity": self.capacity,
        }


#: Process-wide default registry used by ``engine="index"`` and the
#: sequential batch runner.
DEFAULT_REGISTRY = CoreIndexRegistry()


def get_core_index(
    graph: TemporalGraph,
    k: int,
    *,
    registry: CoreIndexRegistry | None = None,
) -> CoreIndex:
    """Fetch (or build) the shared index for ``(graph, k)``.

    Uses :data:`DEFAULT_REGISTRY` unless an explicit registry is given;
    a registry with a store attached loads from and persists to it.
    """
    target = registry if registry is not None else DEFAULT_REGISTRY
    return target.get(graph, k)
