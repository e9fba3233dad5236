"""A small serving layer: append-only edge streams over core indexes.

The paper's pipeline is offline: given a graph, build the skyline,
answer queries.  Deployments (fraud monitoring, trace analysis) instead
see an *append-only stream* of interactions and interleave queries with
ingestion.  :class:`StreamingCoreService` packages the honest version of
that pattern:

* edges are appended in raw-timestamp order (out-of-order appends are
  rejected — matching how interaction logs are produced);
* one service serves one or many registered ``k`` values; the VCT/ECS
  indexes are rebuilt lazily, governed by a staleness budget
  (``max_pending``): a query first folds in pending edges when the
  budget is exceeded or when ``strict`` freshness is requested, and a
  rebuild refreshes **all** registered ``k`` values in a single shared
  decremental scan (:func:`repro.core.multik.build_core_indexes`);
* queries can be asked in raw timestamps, translated through the
  current normalisation;
* the built :class:`~repro.graph.temporal_graph.TemporalGraph` is the
  service's only record of what it has ingested: the service holds that
  graph plus the raw edges appended since it was built, nothing more;
* the service can :meth:`~StreamingCoreService.snapshot` its graph and
  every index into an :class:`~repro.store.index_store.IndexStore` and a
  restarted process can :meth:`~StreamingCoreService.restore` from it —
  resuming from the last persisted graph and indexes (fingerprint-checked)
  so only the edges appended after the snapshot need folding in.

Incrementally *maintaining* the skyline under general insertions is an
open problem the paper leaves to future work — but the append-only
ordering this service enforces makes the frontier case tractable:
:meth:`refresh` folds pending edges through
:func:`repro.core.incremental.delta_fold` when the cost model approves
(``mode="auto"``), touching only the fold window instead of rescanning
every edge, and falls back to the full shared multi-``k`` rebuild
whenever the fold declines (boundary timestamp ties, oversized change
cascades, fold windows above ``max_window_fraction``) — never wrong,
only slower.  See ``docs/STREAMING.md`` for the contract.

Thread-safety: the service is **not** internally locked — it is a
single-writer object.  Interleave appends and queries from one thread
(or protect it externally); concurrent readers of a *fresh* service are
safe because queries on a fresh index do not mutate state.
"""

from __future__ import annotations

import time as _time
from collections.abc import Hashable, Iterable, Sequence
from typing import TYPE_CHECKING

from repro.core.index import CoreIndex
from repro.core.results import EnumerationResult
from repro.errors import InvalidParameterError
from repro.graph.temporal_graph import TemporalGraph
from repro.obs.metrics import get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.serve.sinks import ResultSink
    from repro.store.index_store import IndexStore
    from repro.store.wal import WriteAheadLog
    from repro.obs.timing import Deadline


def _normalise_ks(k: int | Iterable[int]) -> tuple[int, ...]:
    """``k`` (or several) as a validated ascending tuple (may be empty)."""
    ks = (k,) if isinstance(k, int) else tuple(sorted(set(k)))
    for value in ks:
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise InvalidParameterError(f"k must be an integer >= 1, got {value!r}")
    return ks


def _fold_seconds_histogram():
    return get_registry().histogram(
        "repro_stream_fold_seconds",
        "Streaming refresh latency by resolved mode",
        ("mode",),
    )


def _lag_edges_gauge():
    return get_registry().gauge(
        "repro_stream_lag_edges", "Edges appended but not yet folded into indexes"
    )


def _lag_seconds_gauge():
    return get_registry().gauge(
        "repro_stream_lag_seconds", "Age of the oldest pending (unfolded) edge"
    )


class StreamingCoreService:
    """Append edges, query temporal k-cores, rebuild indexes lazily.

    Parameters
    ----------
    k:
        The ``k`` value to serve — or an iterable of them.  All
        registered values are rebuilt together in one shared pass;
        :meth:`query` defaults to the smallest and selects others via
        its ``k=`` argument.  An empty set is a graph-only stream: its
        refresh builds the graph and its snapshot writes only the graph.
    initial_edges:
        Optional backlog ingested at construction (still counts as
        pending until the first build).
    max_pending:
        Staleness budget: a non-``strict`` query tolerates up to this
        many pending appends before forcing a rebuild.
    max_lag:
        Time-based staleness budget in seconds (``None`` disables it):
        a non-``strict`` query also folds pending edges in when the
        *oldest* pending edge has been waiting longer than this — so a
        slow trickle of appends cannot stay unserved forever just
        because it never trips the count budget.
    max_window_fraction:
        Cost-model bound for ``refresh(mode="auto")``: an incremental
        fold whose recompute window would cover more than this fraction
        of all edges falls back to the full rebuild (the fold's
        advantage has evaporated by then).
    wal:
        Optional :class:`~repro.store.wal.WriteAheadLog` making appends
        durable: every :meth:`append`/:meth:`extend` is written (and,
        in the log's ``sync="always"`` mode, fsynced) to the log
        *before* it reaches the in-memory pending list, so an
        acknowledged append survives any crash — :meth:`restore`
        replays the log past the last snapshot.  ``initial_edges``
        are **not** written to the log (they are assumed to predate
        it or to have come *from* it via recovery).
    """

    def __init__(
        self,
        k: int | Iterable[int],
        initial_edges: Iterable[tuple[Hashable, Hashable, int]] = (),
        *,
        max_pending: int = 1_000,
        max_lag: float | None = None,
        max_window_fraction: float = 0.5,
        wal: "WriteAheadLog | None" = None,
    ):
        self.ks = _normalise_ks(k)
        self.k = self.ks[0] if self.ks else None
        if max_pending < 0:
            raise InvalidParameterError("max_pending must be non-negative")
        if max_lag is not None and max_lag < 0:
            raise InvalidParameterError("max_lag must be non-negative")
        if not 0.0 <= max_window_fraction <= 1.0:
            raise InvalidParameterError("max_window_fraction must be in [0, 1]")
        self.max_pending = max_pending
        self.max_lag = max_lag
        self.max_window_fraction = max_window_fraction
        self.wal = wal
        # Raw edges appended since ``_graph`` was built; the graph holds
        # everything before them.
        self._pending: list[tuple[Hashable, Hashable, int]] = list(initial_edges)
        self._pending_since: float | None = (
            _time.monotonic() if self._pending else None
        )
        self._last_raw_time = max((t for _, _, t in self._pending), default=None)
        self._graph: TemporalGraph | None = None
        self._indexes: dict[int, CoreIndex] = {}
        self.num_rebuilds = 0
        self.num_full_rebuilds = 0
        self.num_incremental_folds = 0
        self.last_fold_report = None
        self.last_fallback_reason: str | None = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def append(
        self, u: Hashable, v: Hashable, raw_t: int, *, token: str | None = None
    ) -> int | None:
        """Append one interaction; timestamps must be non-decreasing.

        Appending never rebuilds anything — it only grows the pending
        backlog, which invalidates the current indexes lazily (they keep
        serving until a query decides freshness matters; see
        :meth:`query`).

        With a write-ahead log attached the edge is made durable
        *before* it enters memory, and the assigned LSN is returned
        (``None`` otherwise); an ``OSError`` from the log (disk full)
        leaves the in-memory state untouched — nothing was
        acknowledged, nothing is half-applied.  ``token`` passes a
        dedupe token through to the log; a duplicate token is absorbed
        without growing the pending list and answers with the *original*
        LSN, so a retried acknowledgement is byte-identical.
        """
        first, _count = self._ingest([(u, v, raw_t)], token=token)
        return first

    def extend(
        self,
        edges: Iterable[tuple[Hashable, Hashable, int]],
        *,
        token: str | None = None,
    ) -> int:
        """Append many interactions (same ordering rule as :meth:`append`).

        The whole batch is validated up front and — with a WAL attached
        — written as **one** durable record (one fsync), so a crash
        admits all of the batch or none of it.  Returns the number of
        edges applied (0 when ``token`` deduplicated the batch).
        """
        _first, count = self._ingest(edges, token=token)
        return count

    def _ingest(
        self,
        edges: Iterable[tuple[Hashable, Hashable, int]],
        *,
        token: str | None = None,
    ) -> tuple[int | None, int]:
        batch = [(u, v, t) for u, v, t in edges]
        if not batch:
            return None, 0
        if token is not None and self.wal is not None:
            known = self.wal.lookup_token(token)
            if known is not None:
                # A retry of an acknowledged append: its first delivery
                # already moved the ordering watermark (and is pending
                # or built), so answer the original LSN before any
                # validation and apply nothing.
                return known[0], 0
        last = self._last_raw_time
        for _, _, t in batch:
            if last is not None and t < last:
                raise InvalidParameterError(
                    f"out-of-order append: {t} < last seen {last}"
                )
            last = t
        first: int | None = None
        if self.wal is not None:
            first, _n = self.wal.append_edges(batch, token=token)
        self._pending.extend(batch)
        self._last_raw_time = batch[-1][2]
        if self._pending_since is None:
            self._pending_since = _time.monotonic()
        _lag_edges_gauge().set(len(self._pending))
        return first, len(batch)

    @property
    def num_edges(self) -> int:
        """Edges ingested so far: built (self-loops included) plus pending."""
        graph = self._graph
        built = 0 if graph is None else graph.num_edges + graph.num_dropped_self_loops
        return built + len(self._pending)

    @property
    def num_pending(self) -> int:
        """Edges appended since the graph was last built."""
        return len(self._pending)

    @property
    def is_stale(self) -> bool:
        """Whether a strict query would trigger a rebuild right now."""
        return bool(self._pending) or any(k not in self._indexes for k in self.ks)

    @property
    def lag_seconds(self) -> float:
        """Age of the oldest pending edge (0.0 when nothing is pending)."""
        if self._pending_since is None:
            return 0.0
        return _time.monotonic() - self._pending_since

    @property
    def lag_exceeded(self) -> bool:
        """Whether the time-based staleness budget is currently blown."""
        return self.max_lag is not None and self.lag_seconds > self.max_lag

    # ------------------------------------------------------------------
    # Index lifecycle
    # ------------------------------------------------------------------

    def refresh(self, mode: str = "auto") -> str:
        """Fold every pending edge into the served graph and indexes.

        ``mode`` selects the maintenance strategy and the resolved mode
        is returned:

        * ``"full"`` — merge the pending edges into the graph
          (:meth:`TemporalGraph.with_edges
          <repro.graph.temporal_graph.TemporalGraph.with_edges>`: vertex
          ids are kept, the result equals a graph built from every
          ingested edge) and rebuild all registered ``k`` values in one
          shared decremental scan.
        * ``"incremental"`` — fold the pending batch through
          :func:`repro.core.incremental.delta_fold`: extend the compiled
          arrays in place, recompute only the fold window, splice.  The
          result is entry-identical to a full rebuild.  Falls back to
          ``"full"`` when the fold is impossible (no base build yet, a
          pending edge ties the built graph's last raw timestamp, an
          oversized change cascade) — the fold is never wrong, only
          sometimes refused, and the fallback reason lands in
          ``last_fallback_reason``.
        * ``"auto"`` (default) — ``"incremental"`` plus the cost model:
          a fold whose recompute window would exceed
          ``max_window_fraction`` of all edges rebuilds in full instead.

        Counts as one rebuild in ``num_rebuilds`` regardless of mode and
        of how many ``k`` values are registered; the full/incremental
        split is in ``num_full_rebuilds`` / ``num_incremental_folds``.
        """
        if mode not in ("auto", "incremental", "full"):
            raise InvalidParameterError(
                f"refresh mode must be auto|incremental|full, got {mode!r}"
            )
        if not self.num_edges:
            raise InvalidParameterError("no edges ingested yet")
        started = _time.perf_counter()
        resolved = "full"
        if (
            mode != "full"
            and self._graph is not None
            and self._pending
            and all(k in self._indexes for k in self.ks)
        ):
            from repro.core.incremental import FoldFallback, delta_fold

            try:
                result = delta_fold(
                    self._graph,
                    self._indexes,
                    self._pending,
                    max_window_fraction=(
                        self.max_window_fraction if mode == "auto" else None
                    ),
                )
            except FoldFallback as fallback:
                self.last_fallback_reason = fallback.reason
            else:
                self._graph = result.graph
                self._indexes = result.indexes
                self.last_fold_report = result.report
                self.num_incremental_folds += 1
                resolved = "incremental"
        if resolved == "full":
            from repro.core.multik import build_core_indexes

            if self._graph is None:
                self._graph = TemporalGraph(self._pending)
            elif self._pending:
                self._graph = self._graph.with_edges(self._pending)
            self._indexes = (
                build_core_indexes(self._graph, self.ks) if self.ks else {}
            )
            self.num_full_rebuilds += 1
        self._pending = []
        self._pending_since = None
        self.num_rebuilds += 1
        _fold_seconds_histogram().labels(resolved).observe(
            _time.perf_counter() - started
        )
        _lag_edges_gauge().set(0)
        _lag_seconds_gauge().set(0.0)
        return resolved

    def _ensure_fresh(self, strict: bool) -> None:
        if self.is_stale and (
            strict
            or any(k not in self._indexes for k in self.ks)
            or len(self._pending) > self.max_pending
            or self.lag_exceeded
        ):
            self.refresh()

    @property
    def graph(self) -> TemporalGraph:
        """The graph snapshot behind the current indexes (builds if needed)."""
        self._ensure_fresh(strict=False)
        assert self._graph is not None
        return self._graph

    @property
    def built(self) -> tuple[TemporalGraph | None, dict[int, CoreIndex]]:
        """The graph and indexes of the last build (``(None, {})`` before one).

        Unlike :attr:`graph` this never refreshes — for a host that
        decides freshness itself, as the daemon does with ``flush``.  A
        restored graph whose indexes did not all load is not a build.
        """
        if any(k not in self._indexes for k in self.ks):
            return None, {}
        return self._graph, self._indexes

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _index_for(self, k: int | None) -> CoreIndex:
        chosen = self.k if k is None else k
        if chosen not in self.ks:
            raise InvalidParameterError(
                f"k={chosen} is not served by this service (registered: {self.ks})"
            )
        return self._indexes[chosen]

    def query(
        self,
        ts: int,
        te: int,
        *,
        k: int | None = None,
        strict: bool = False,
        collect: bool = True,
        sink: "ResultSink | None" = None,
    ) -> EnumerationResult:
        """Temporal k-cores of normalised range ``[ts, te]``.

        ``k`` selects among the registered values (default: the
        smallest).  ``strict=True`` forces pending edges to be folded in
        first; otherwise the answer may lag by up to ``max_pending``
        edges — the staleness contract callers opt into for throughput.
        The answer is planned and executed against the service's index
        (:meth:`CoreIndex.query <repro.core.index.CoreIndex.query>`);
        ``sink`` optionally streams it (:mod:`repro.serve.sinks`)
        instead of materialising — the long-poll daemon shape.
        """
        self._ensure_fresh(strict)
        return self._index_for(k).query(ts, te, collect=collect, sink=sink)

    def query_batch(
        self,
        ranges: Iterable[tuple[int, int]],
        *,
        k: int | None = None,
        strict: bool = False,
        collect: bool = False,
        sinks: "Sequence[ResultSink | None] | None" = None,
        deadline: "Deadline | None" = None,
    ) -> list[EnumerationResult]:
        """Answer many ranges against the service's index, in input order.

        One staleness check covers the whole batch (``strict=True``
        folds pending edges in first, once), then the ranges go through
        :meth:`CoreIndex.query_batch
        <repro.core.index.CoreIndex.query_batch>` — deduped, merged
        into covering windows, cut with one vectorised sweep.
        ``sinks`` optionally streams per-range results through caller
        sinks (one entry per range, ``None`` falling back to the
        ``collect`` default), exactly as on ``CoreIndex.query_batch``.
        """
        self._ensure_fresh(strict)
        return self._index_for(k).query_batch(
            ranges,
            collect=collect,
            sinks=sinks,
            deadline=deadline,
        )

    def query_raw(
        self,
        raw_ts: int,
        raw_te: int,
        *,
        k: int | None = None,
        strict: bool = False,
        collect: bool = True,
    ) -> EnumerationResult:
        """Temporal k-cores between two *raw* timestamps (inclusive).

        Raw bounds are snapped inward to the nearest ingested timestamps
        (with ``strict=True`` pending edges are folded in *before*
        snapping, so the range can cover them); an empty snap (no data
        in the interval) raises.
        """
        if raw_ts > raw_te:
            raise InvalidParameterError(f"empty raw range [{raw_ts}, {raw_te}]")
        self._ensure_fresh(strict)
        window = self.graph.snap_raw_window(raw_ts, raw_te)
        if window is None:
            raise InvalidParameterError(
                f"no ingested timestamps inside raw range [{raw_ts}, {raw_te}]"
            )
        return self.query(window[0], window[1], k=k, strict=False, collect=collect)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Freshness and maintenance counters (registry-backed views)."""
        lag_seconds = self.lag_seconds
        pending = len(self._pending)
        _lag_edges_gauge().set(pending)
        _lag_seconds_gauge().set(lag_seconds)
        report = self.last_fold_report
        return {
            "num_edges": self.num_edges,
            "num_pending": pending,
            "lag_edges": pending,
            "lag_seconds": lag_seconds,
            "max_pending": self.max_pending,
            "max_lag": self.max_lag,
            "rebuilds": self.num_rebuilds,
            "full_rebuilds": self.num_full_rebuilds,
            "incremental_folds": self.num_incremental_folds,
            "last_fallback_reason": self.last_fallback_reason,
            "last_fold": None if report is None else vars(report).copy(),
        }

    # ------------------------------------------------------------------
    # Persistence: streaming snapshots
    # ------------------------------------------------------------------

    def snapshot(self, store: "IndexStore", *, name: str | None = None) -> str:
        """Persist the current graph + every index into ``store``.

        Pending edges are folded in first (one shared rebuild if stale),
        so the snapshot always captures everything ingested so far — for
        *all* registered ``k`` values.  Blob and manifest writes are
        atomic — a crash mid-snapshot leaves the previous snapshot
        intact.  Returns the store key.

        The graph, every index and — with a write-ahead log attached —
        the log position they cover (the durable *recovery point*) are
        committed together in one atomic manifest replace
        (:meth:`IndexStore.commit
        <repro.store.index_store.IndexStore.commit>`), then log segments
        the snapshot now covers are trimmed.  A crash anywhere in
        between is safe: before the manifest commit, recovery replays
        against the *old* snapshot, whose indexes are all still there;
        after it, replay starts past the new position; before the trim,
        replay simply filters out the already-covered records.
        """
        from repro.testing.crashpoints import crashpoint

        if self.is_stale:
            self.refresh()
        assert self._graph is not None
        covered = self.wal.last_lsn if self.wal is not None else None
        crashpoint("snapshot.pre-graph")
        key = store.commit(
            self._graph,
            (self._indexes[k] for k in self.ks),
            name=name,
            stream_lsn=covered,
        )
        crashpoint("snapshot.post-indexes.pre-trim")
        if self.wal is not None and covered is not None:
            self.wal.trim(covered)
        return key

    @classmethod
    def restore(
        cls,
        store: "IndexStore",
        k: int | Iterable[int],
        *,
        name: str | None = None,
        max_pending: int = 1_000,
        max_lag: float | None = None,
        wal: "bool | str" = "auto",
        wal_segment_bytes: int | None = None,
    ) -> "StreamingCoreService":
        """Resume a service from the last durable state in ``store``.

        ``name`` selects the stored graph; when omitted the store must
        hold exactly one.  The persisted graph is attached as it is
        (vertex ids, edge ids and the self-loop count round-trip), and
        the persisted indexes are attached when their fingerprints still
        match — when **every** requested ``k`` loads, the first query
        runs with **zero** core-time computation.  Any missing, stale or
        corrupt index leaves the restored service stale: the next query
        rebuilds every ``k`` in one shared pass, never serving bad data.

        ``wal`` controls the write-ahead log: ``"auto"`` (default)
        attaches and replays one iff the key already has log segments;
        ``True`` always attaches (creating an empty log — how a fresh
        service opts into durability); ``False`` never touches it.
        Replayed records past the snapshot's recovery point re-enter
        the service as *pending* edges — they are **not** re-written
        to the log (they are already durable there) — so a restored
        service with attached indexes answers immediately at the
        snapshot's freshness and folds the replayed tail in under the
        usual staleness budget.  A key that has log segments but no
        snapshot yet (a crash before the first snapshot) restores to a
        service holding exactly the replayed edges; with ``wal=True`` a
        key with neither starts an empty stream.
        """
        keys = store.keys()
        if name is None:
            if len(keys) != 1:
                raise InvalidParameterError(
                    f"store holds {len(keys)} graphs; pass name= to choose one"
                )
            name = keys[0]
        attach = wal is True or (wal == "auto" and store.has_wal(name))
        if name not in keys and not attach:
            raise InvalidParameterError(f"store has no graph named {name!r}")

        if attach:
            recovery = store.recover(name, segment_bytes=wal_segment_bytes)
            graph, log = recovery.graph, recovery.wal
            replayed = [(e.u, e.v, e.t) for e in recovery.events]
        else:
            graph, log, replayed = store.load_graph(name), None, []
        service = cls(
            k, replayed, max_pending=max_pending, max_lag=max_lag, wal=log
        )
        if graph is not None:
            service._graph = graph
            if service._last_raw_time is None and graph.num_edges:
                service._last_raw_time = graph.raw_time_of(graph.tmax)
            loaded: dict[int, CoreIndex] = {}
            for wanted in service.ks:
                index = store.load_index(graph, wanted, key=name)
                if index is not None:
                    loaded[wanted] = index
            if len(loaded) == len(service.ks):
                # Serve from the snapshot immediately; the replayed tail
                # stays pending under the normal staleness contract.
                service._indexes = loaded
        return service
