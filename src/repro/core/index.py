"""A reusable core index: build VCT + ECS once, answer many query ranges.

The paper computes the skyline per query.  In an index-serving deployment
(the PHC-index spirit of [13]) one wants to precompute over the whole
time span and answer arbitrary sub-ranges.  Minimal core windows are
intrinsic to the graph, so the skyline of a sub-range is a filter of the
whole-span skyline (``EdgeCoreSkyline.restricted_to``); activation times
are re-derived by the enumerator.  This module packages that pattern —
:class:`CoreIndex` for one ``(graph, k)``, :class:`CoreIndexRegistry`
for an LRU-bounded pool of them serving many graphs and ``k`` values.

Persistence lives in :mod:`repro.store`: the binary index store
(mmap-able flat arrays, fingerprint staleness checks, registry warm-up)
is the index's one persisted form.  :meth:`CoreIndex.dump_skyline`
writes a human-readable text listing of the skyline for inspection;
nothing reads it back.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.core.coretime import CoreTimeResult, VertexCoreTimeIndex, compute_core_times
from repro.core.results import EnumerationResult
from repro.core.windows import EdgeCoreSkyline
from repro.errors import InvalidParameterError
from repro.graph.temporal_graph import TemporalGraph
from repro.obs.metrics import MetricsRegistry, get_registry, next_instance
from repro.obs.timing import Deadline, now
from repro.obs.trace import NULL_TRACE, Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.serve.sinks import ResultSink
    from repro.store.index_store import IndexStore


def _build_seconds_histogram():
    """Per-``k`` Algorithm-2 build-time histogram on the process registry."""
    return get_registry().histogram(
        "repro_index_build_seconds",
        "Core-index (VCT+ECS) build time per Algorithm-2 run",
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
        runs.  ``sink`` optionally redirects delivery (NDJSON,
        counters, flat arrays — see :mod:`repro.serve.sinks`).
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
        merge_overlaps: bool = True,
        trace: Trace | None = None,
    ) -> list[EnumerationResult]:
        """Answer many ranges from the shared index in one planned pass.

        The batch serving primitive: the ranges are planned against
        this index (identical ranges deduped,
        overlapping windows merged and enumerated once, each answer
        sliced out by TTI containment — ``merge_overlaps=False``
        disables the merging) and the executor locates every covering
        window's slice with a single ``searchsorted`` pair over the
        cached sorted skyline view.  Results come back in input order;
        ``collect`` defaults to ``False`` (count only), matching batch
        traffic.  ``sinks``, when given, carries one optional
        per-range delivery sink.  ``trace``, when given, records a span
        tree for the batch — ``query_batch`` wrapping ``plan`` and
        ``execute`` (see :mod:`repro.obs.trace`).
        """
        from repro.serve.executor import execute_plan
        from repro.serve.planner import plan_for_index

        ranges = list(ranges)
        if not ranges:
            return []
        trace = trace if trace is not None else NULL_TRACE
        with trace.span("query_batch", requests=len(ranges), k=self.k):
            plan = plan_for_index(
                self,
                ranges,
                sinks=sinks,
                merge_overlaps=merge_overlaps,
                trace=trace,
            )
            return execute_plan(plan, collect=collect, deadline=deadline)

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

    When an :class:`~repro.store.index_store.IndexStore` is attached
    (constructor ``store=`` or per-call ``get(..., store=)``), a cache
    miss falls through to disk before computing: the store is probed by
    content fingerprint, and a hit opens the persisted flat arrays
    instead of running Algorithm 2.  :meth:`warm` preloads every stored
    entry (and, with ``ks=``, fills the gaps), the daemon-boot pattern.

    Mixed-``k`` traffic goes through :meth:`get_many`, which resolves a
    whole set of ``k`` values at once and computes everything still
    missing in **one** shared decremental scan rather than one
    Algorithm-2 run per ``k``.  :meth:`stats` exposes per-``k``
    ``store_hits_by_k`` / ``multik_builds_by_k`` counters so a warm
    deployment can assert it never recomputes.

    Invalidation: graphs are immutable, so cached indexes never go
    stale in-process — entries only leave by LRU eviction or
    :meth:`clear`.  Store entries are fingerprint-checked on load, so a
    store rebuilt against different data simply stops matching.

    Eviction spills: with a store attached, an LRU-evicted index whose
    ``(graph, k)`` is not yet persisted is saved to disk before being
    dropped (best effort — unpersistable graphs and I/O failures are
    swallowed), so capacity pressure downgrades an index from RAM to
    disk instead of discarding the build; ``evict_spills`` in
    :meth:`stats` counts the writes.

    Thread-safe: all cache operations hold an internal lock, so a
    warm-up thread plus serving threads is a supported pattern.  The
    lock is coarse — it is held across an index build — which keeps
    concurrent lookups of the same key from duplicating an expensive
    build at the cost of serialising distinct builds.
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
        # series carry a unique ``registry`` label, and the legacy
        # ``hits``/``misses``/... attributes read back through it.
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
        self._c_evict_spills = m.counter(
            "repro_registry_evictions_total",
            "LRU evictions persisted to the attached store (action=spill)",
            ("registry", "action"),
        ).labels(inst, "spill")
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
        # Keys known to be persisted in the *attached* store (loaded from
        # it or spilled to it) — lets eviction skip the O(n + m)
        # fingerprint probe in the steady state.
        self._persisted: set[tuple[int, int]] = set()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- legacy counter attributes, now views over the metrics registry --

    @property
    def hits(self) -> int:
        return int(self._c_hits.value)

    @property
    def misses(self) -> int:
        return int(self._c_misses.value)

    @property
    def store_hits(self) -> int:
        return int(self._c_store_hits.value)

    @property
    def multik_builds(self) -> int:
        return int(self._c_multik_builds.value)

    @property
    def evict_spills(self) -> int:
        return int(self._c_evict_spills.value)

    def _by_k_view(self, counter) -> dict[int, int]:
        """This instance's children of a ``(registry, k)`` counter."""
        return {
            int(key[1]): int(child.value)
            for key, child in counter.items()
            if key[0] == self.instance
        }

    def _insert(self, key: tuple[int, int], index: CoreIndex) -> None:
        """Insert under the lock, evicting beyond capacity (LRU order).

        Evicted entries are offered to the attached store first (see
        :meth:`_spill`) so capacity pressure never discards an index the
        store does not already hold.
        """
        self._entries[key] = index
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            _evicted_key, evicted = self._entries.popitem(last=False)
            self._spill(evicted)
        self._g_size.set(len(self._entries))

    def _spill(self, index: CoreIndex) -> None:
        """Persist an evicted index to the attached store, best effort.

        Keys known persisted (loaded from or previously spilled to the
        attached store) skip even the manifest probe; see
        :meth:`_save_if_absent` for the rest.  Writes are counted in
        ``evict_spills``.
        """
        store = self.store
        if store is None or (id(index.graph), index.k) in self._persisted:
            return
        if self._save_if_absent(store, index):
            self._c_evict_spills.inc()

    def _save_if_absent(self, store: "IndexStore", index: CoreIndex) -> bool:
        """Save ``index`` unless ``store`` already holds its ``(graph, k)``.

        Returns whether a blob was written.  Store failures (label types
        the store rejects, I/O errors) are swallowed and read as not
        written — eviction and shutdown must never raise because one
        entry cannot be persisted.
        """
        from repro.errors import StoreError

        try:
            written = not store.has_index(index.graph, index.k)
            if written:
                store.save_index(index)
        except (StoreError, OSError):
            return False
        if store is self.store:
            self._persisted.add((id(index.graph), index.k))
        return written

    def peek(self, graph: TemporalGraph, k: int) -> "CoreIndex | None":
        """The cached index for ``(graph, k)``, or ``None`` — no side effects.

        Unlike :meth:`get`, a peek never loads, builds, bumps the LRU
        order or touches the hit/miss counters — it answers the
        planner's "is this already resident?" question
        (:func:`repro.serve.planner.plan_queries` engine ``auto``)
        without distorting cache behaviour.
        """
        key = (id(graph), k)
        with self._lock:
            index = self._entries.get(key)
            if index is not None and index.graph is graph:
                return index
        return None

    def _lookup(
        self,
        graph: TemporalGraph,
        ks: list[int],
        store: "IndexStore | None",
    ) -> tuple[dict[int, CoreIndex], list[int]]:
        """Resolve ``ks`` from the cache, then the store; call under the lock.

        ``store`` defaults to the attached one.  Every ``k`` counts one
        hit or one miss; a miss the store serves also counts a store hit
        and is cached.  Returns the resolved indexes and, in request
        order, the ``k`` values left to build.
        """
        if store is None:
            store = self.store
        out: dict[int, CoreIndex] = {}
        missing: list[int] = []
        for k in ks:
            key = (id(graph), k)
            index = self._entries.get(key)
            if index is not None and index.graph is graph:
                self._entries.move_to_end(key)
                self._c_hits.inc()
                out[k] = index
            else:
                self._c_misses.inc()
                missing.append(k)
        to_build: list[int] = []
        for k in missing:
            index = store.load_index(graph, k) if store is not None else None
            if index is None:
                to_build.append(k)
                continue
            self._c_store_hits.inc()
            self._store_hits_by_k_counter.labels(self.instance, str(k)).inc()
            key = (id(graph), k)
            if store is self.store:
                self._persisted.add(key)
            self._insert(key, index)
            out[k] = index
        return out, to_build

    def get(
        self,
        graph: TemporalGraph,
        k: int,
        *,
        store: "IndexStore | None" = None,
    ) -> CoreIndex:
        """The cached index for ``(graph, k)``, loading or building on a miss.

        Miss resolution order: the attached/passed store (fingerprint
        match, counted in ``store_hits``), then a fresh Algorithm-2
        build.  Least-recently-used entries are evicted beyond
        ``capacity``.
        """
        with self._lock:
            found, missing = self._lookup(graph, [k], store)
            if not missing:
                return found[k]
            index = CoreIndex(graph, k)
            self._insert((id(graph), k), index)
            return index

    def get_many(
        self,
        graph: TemporalGraph,
        ks: "Iterable[int]",
        *,
        store: "IndexStore | None" = None,
    ) -> dict[int, CoreIndex]:
        """Indexes for every ``k`` in ``ks``, shared-building the misses.

        Per ``k``, resolution order matches :meth:`get` — cache, then
        store (fingerprint match), then compute — but every ``k`` that
        reaches the compute stage is built in **one** shared decremental
        scan (:func:`repro.core.multik.build_core_indexes`) instead of
        one Algorithm-2 run each.  Counters: each ``k`` contributes one
        hit or miss; store hits and shared-build products are also
        tallied per ``k`` (see :meth:`stats`).

        Entries are inserted in the order the ``k`` values were
        requested (deduplicated), so under ``capacity`` pressure the
        LRU deterministically keeps the *last* ``capacity`` of them —
        a single shared build never thrashes into repeated rebuilding.

        Thread-safe; holds the registry lock across the whole
        resolution, like :meth:`get`.
        """
        ordered: list[int] = []
        seen: set[int] = set()
        for k in ks:
            if k < 1:
                raise InvalidParameterError(f"k must be >= 1, got {k}")
            if k not in seen:
                seen.add(k)
                ordered.append(k)
        if not ordered:
            raise InvalidParameterError("ks must contain at least one k value")
        with self._lock:
            out, to_build = self._lookup(graph, ordered, store)
            if to_build:
                from repro.core.multik import build_core_indexes

                built = build_core_indexes(graph, to_build)
                self._c_multik_builds.inc()
                for k in to_build:
                    self._multik_built_counter.labels(
                        self.instance, str(k)
                    ).inc()
                    self._insert((id(graph), k), built[k])
                    out[k] = built[k]
        return out

    def warm(
        self,
        store: "IndexStore | None" = None,
        *,
        ks: "Iterable[int] | None" = None,
    ) -> int:
        """Preload every loadable stored index; returns how many.

        Uses the attached store when none is passed.  With ``ks``, every
        stored graph is additionally guaranteed an index for each listed
        ``k``: the ones missing from (or unreadable in) the store being
        warmed are resolved through :meth:`get_many` against that same
        store — one shared scan per graph for everything it cannot serve
        — and the return value counts only freshly resolved entries
        (stored loads plus gap-fills; registry cache hits are not
        re-counted).  Unreadable graphs or indexes are skipped silently
        — warm-up must never fail because one entry rotted on disk.

        Loaded graphs are pinned by their cache entries; entries beyond
        ``capacity`` evict in insertion order, so warm a registry sized
        for the store.
        """
        if store is None:
            store = self.store
        if store is None:
            raise InvalidParameterError("no store attached and none passed to warm()")
        ks = list(ks) if ks is not None else None
        loaded = 0
        for _key, graph, indexes in store.iter_graphs():
            for k in sorted(indexes):
                with self._lock:
                    self._insert((id(graph), k), indexes[k])
                loaded += 1
            if ks:
                extra = [k for k in ks if k not in indexes]
                if extra:
                    misses_before = self.misses
                    self.get_many(graph, extra, store=store)
                    # Only freshly resolved ks count as warmed; a k the
                    # registry already held is not new work.
                    loaded += self.misses - misses_before
        return loaded

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
        indexes: the old graph's entries are dropped without a spill
        (the store has already moved past them), so generations do not
        pile up in memory, and the new ones are inserted as resident.
        """
        with self._lock:
            for key in [
                key for key, index in self._entries.items() if index.graph is old
            ]:
                del self._entries[key]
                self._persisted.discard(key)
            for index in indexes:
                self._insert((id(index.graph), index.k), index)
            self._g_size.set(len(self._entries))

    def persist_all(self, store: "IndexStore | None" = None) -> int:
        """Persist every resident index the store lacks; returns how many.

        The graceful-shutdown counterpart of :meth:`warm`: a draining
        daemon calls this to land whatever it built (or gap-filled)
        during its lifetime before the process exits, so the next boot
        warms instead of recomputing.  Uses the attached store when none
        is passed.  Entries the store already holds (by fingerprint) are
        skipped; unpersistable entries (label types the store rejects,
        I/O errors) are skipped silently — shutdown must never fail
        because one entry cannot be written.
        """
        if store is None:
            store = self.store
        if store is None:
            raise InvalidParameterError(
                "no store attached and none passed to persist_all()"
            )
        with self._lock:
            resident = list(self._entries.values())
        return sum(self._save_if_absent(store, index) for index in resident)

    def stats(self) -> dict:
        """Hit/miss/size counters for observability.

        This dict is a *view* over the metrics registry (series
        labelled with this instance's ``registry`` label), one source
        of truth.  Beyond the aggregate counters, ``store_hits_by_k`` and
        ``multik_builds_by_k`` break down, per ``k``, how many misses
        were served from disk versus computed by the shared multi-``k``
        build — a warm-serving deployment asserts the latter stays at
        zero.  ``multik_builds`` counts shared-build invocations;
        ``evict_spills`` counts LRU evictions persisted to the attached
        store before dropping.
        """
        with self._lock:
            size = len(self._entries)
        return {
            "hits": self.hits,
            "misses": self.misses,
            "store_hits": self.store_hits,
            "multik_builds": self.multik_builds,
            "evict_spills": self.evict_spills,
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
    store: "IndexStore | None" = None,
) -> CoreIndex:
    """Fetch (or build) the shared index for ``(graph, k)``.

    Uses :data:`DEFAULT_REGISTRY` unless an explicit registry is given;
    a ``store`` makes cache misses fall through to disk before building.
    """
    target = registry if registry is not None else DEFAULT_REGISTRY
    return target.get(graph, k, store=store)
