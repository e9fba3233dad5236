"""Append-only edge streams folded into core indexes: the daemon's ingest job.

The paper's pipeline is offline: given a graph, build the skyline,
answer queries.  Deployments (fraud monitoring, trace analysis) instead
see an *append-only stream* of interactions and interleave queries with
ingestion.  :class:`StreamingCoreService` is the ingest half of that
pattern, as the serving daemon drives it (``append`` → ``flush``):

* edges are appended in raw-timestamp order (out-of-order appends are
  rejected — matching how interaction logs are produced), through a
  write-ahead log when one is attached;
* appended edges stay *pending* until :meth:`~StreamingCoreService.refresh`
  folds them into the graph and into the VCT/ECS indexes of every
  registered ``k`` at once; the service never refreshes on its own, so
  its host decides freshness (the daemon's ``flush`` and ``--max-lag``);
* readers answer from :attr:`~StreamingCoreService.built` — the graph
  and indexes of the last refresh — through :meth:`CoreIndex.query
  <repro.core.index.CoreIndex.query>` / ``query_batch``;
* the built :class:`~repro.graph.temporal_graph.TemporalGraph` is the
  service's only record of what it has ingested: the service holds that
  graph plus the raw edges appended since it was built, nothing more;
* the service can :meth:`~StreamingCoreService.snapshot` its graph and
  every index into an :class:`~repro.store.index_store.IndexStore` and a
  restarted process can :meth:`~StreamingCoreService.restore` from it —
  resuming from the last persisted graph and indexes (fingerprint-checked)
  so only the edges logged after the snapshot need folding in.

Incrementally *maintaining* the skyline under general insertions is an
open problem the paper leaves to future work — but the append-only
ordering this service enforces makes the frontier case tractable:
:meth:`~StreamingCoreService.refresh` folds pending edges through
:func:`repro.core.incremental.delta_fold`, touching only the fold window
instead of rescanning every edge, and falls back to the full shared
multi-``k`` rebuild whenever the fold declines (boundary timestamp ties,
oversized change cascades, fold windows above
:data:`MAX_WINDOW_FRACTION`) — never wrong, only slower.  See
``docs/STREAMING.md`` for the contract.

Thread-safety: the service is **not** internally locked — it is a
single-writer object, which the daemon drives from its one execution
lane.
"""

from __future__ import annotations

import time as _time
from collections.abc import Hashable, Iterable
from typing import TYPE_CHECKING, NamedTuple

from repro.core.index import CoreIndex
from repro.errors import InvalidParameterError
from repro.graph.temporal_graph import TemporalGraph
from repro.obs.metrics import get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.store.index_store import IndexStore
    from repro.store.wal import WriteAheadLog

#: Cost-model bound for :meth:`StreamingCoreService.refresh`: a fold whose
#: recompute window would cover more than this share of all edges
#: rebuilds in full instead (the fold's advantage has evaporated by then).
MAX_WINDOW_FRACTION = 0.5


class AppendAck(NamedTuple):
    """What an append answered: its first LSN (``None`` without a log),
    its edge count, and whether a retried token answered it from the
    log without applying anything."""

    lsn: int | None
    count: int
    deduped: bool = False


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


def _fold_fallbacks_counter():
    return get_registry().counter(
        "repro_stream_fold_fallbacks_total",
        "Incremental folds declined and rebuilt in full, by reason",
        ("reason",),
    )


def fold_fallback_counts() -> dict[str, int]:
    """``repro_stream_fold_fallbacks_total`` of this process, ``{reason: n}``."""
    return {
        labels[0]: int(child.value)
        for labels, child in _fold_fallbacks_counter().items()
    }


class StreamingCoreService:
    """Append edges durably; fold them into core indexes on :meth:`refresh`.

    Parameters
    ----------
    k:
        The ``k`` value to maintain — or an iterable of them.  All
        registered values are rebuilt together in one shared pass.  An
        empty set is a graph-only stream: its refresh builds the graph
        and its snapshot writes only the graph.
    initial_edges:
        Optional backlog ingested at construction (still counts as
        pending until the first build).
    wal:
        Optional :class:`~repro.store.wal.WriteAheadLog` making appends
        durable: every :meth:`append`/:meth:`extend` is written and
        fsynced to the log *before* it reaches the in-memory pending
        list, so an acknowledged append survives any crash — :meth:`restore`
        replays the log past the last snapshot.  ``initial_edges``
        are **not** written to the log (they are assumed to predate
        it or to have come *from* it via recovery).
    """

    def __init__(
        self,
        k: int | Iterable[int],
        initial_edges: Iterable[tuple[Hashable, Hashable, int]] = (),
        *,
        wal: "WriteAheadLog | None" = None,
    ):
        self.ks = _normalise_ks(k)
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

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def append(
        self, u: Hashable, v: Hashable, raw_t: int, *, token: str | None = None
    ) -> int | None:
        """Append one interaction; timestamps must be non-decreasing.

        Appending never rebuilds anything — it only grows the pending
        backlog, which :meth:`refresh` folds in.

        With a write-ahead log attached the edge is made durable
        *before* it enters memory, and the assigned LSN is returned
        (``None`` otherwise); an ``OSError`` from the log (disk full)
        leaves the in-memory state untouched — nothing was
        acknowledged, nothing is half-applied.  ``token`` passes a
        dedupe token through to the log; a duplicate token is absorbed
        without growing the pending list and answers with the *original*
        LSN, so a retried acknowledgement is byte-identical.
        """
        return self.extend([(u, v, raw_t)], token=token).lsn

    def extend(
        self,
        edges: Iterable[tuple[Hashable, Hashable, int]],
        *,
        token: str | None = None,
    ) -> AppendAck:
        """Append many interactions (same ordering rule as :meth:`append`).

        The whole batch is validated up front and — with a WAL attached
        — written as **one** durable record (one fsync), so a crash
        admits all of the batch or none of it.  Returns the
        acknowledgement: the batch's first LSN and edge count.  A
        ``token`` the log already holds is answered first, before any
        validation, with its original acknowledgement (``deduped``
        set) and nothing applied; the log counts it in
        ``repro_wal_deduped_appends_total``.
        """
        batch = [(u, v, t) for u, v, t in edges]
        if not batch:
            return AppendAck(None, 0)
        if self.wal is not None:
            known = self.wal.lookup_token(token)
            if known is not None:
                # A retry of an acknowledged append: its first delivery
                # already moved the ordering watermark (and is pending
                # or built), so it is answered before validation.
                return AppendAck(*known, deduped=True)
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
        return AppendAck(first, len(batch))

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
        """Whether :meth:`refresh` has work: pending edges or a missing index."""
        return bool(self._pending) or any(k not in self._indexes for k in self.ks)

    @property
    def lag_seconds(self) -> float:
        """Age of the oldest pending edge (0.0 when nothing is pending)."""
        if self._pending_since is None:
            return 0.0
        return _time.monotonic() - self._pending_since

    # ------------------------------------------------------------------
    # Index lifecycle
    # ------------------------------------------------------------------

    def refresh(self) -> str:
        """Fold every pending edge into the graph and indexes; the mode taken.

        ``"incremental"`` — the pending batch went through
        :func:`repro.core.incremental.delta_fold`: grow the graph by
        ``with_edges`` and compile it afresh, recompute only the fold
        window, splice.  The result is entry-identical to a full
        rebuild.

        ``"full"`` — the pending edges were merged into the graph
        (:meth:`TemporalGraph.with_edges
        <repro.graph.temporal_graph.TemporalGraph.with_edges>`: vertex
        ids are kept, the result equals a graph built from every
        ingested edge) and all registered ``k`` values rebuilt in one
        shared decremental scan.  This runs when there is no complete
        build to fold onto, and when the fold declines: a pending edge
        ties the built graph's last raw timestamp, an oversized change
        cascade, or a recompute window above :data:`MAX_WINDOW_FRACTION`
        of all edges.  Each refusal counts once in
        ``repro_stream_fold_fallbacks_total{reason}``
        (:func:`fold_fallback_counts`); the fold is never wrong, only
        sometimes refused.
        """
        if not self.num_edges:
            raise InvalidParameterError("no edges ingested yet")
        started = _time.perf_counter()
        resolved = "full"
        if (
            self._graph is not None
            and self._pending
            and all(k in self._indexes for k in self.ks)
        ):
            from repro.core.incremental import FoldFallback, delta_fold

            try:
                result = delta_fold(
                    self._graph,
                    self._indexes,
                    self._pending,
                    max_window_fraction=MAX_WINDOW_FRACTION,
                )
            except FoldFallback as fallback:
                _fold_fallbacks_counter().labels(fallback.reason).inc()
            else:
                self._graph = result.graph
                self._indexes = result.indexes
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
        self._pending = []
        self._pending_since = None
        _fold_seconds_histogram().labels(resolved).observe(
            _time.perf_counter() - started
        )
        return resolved

    @property
    def built(self) -> tuple[TemporalGraph | None, dict[int, CoreIndex]]:
        """The graph and indexes of the last build (``(None, {})`` before one).

        Readers answer from these through :meth:`CoreIndex.query
        <repro.core.index.CoreIndex.query>` / ``query_batch``; pending
        edges reach them only through :meth:`refresh`, which the host
        calls (the daemon on ``flush``).  A restored graph whose indexes
        did not all load is not a build.
        """
        if any(k not in self._indexes for k in self.ks):
            return None, {}
        return self._graph, self._indexes

    def adopt(self, index: CoreIndex) -> None:
        """Maintain ``index.k`` from now on, like a registered ``k``.

        A reader built ``index`` for a ``k`` the service does not
        maintain; every later :meth:`refresh` folds it and every
        :meth:`snapshot` commits it.  The index is kept as the service's
        own when it was built over the service's built graph; otherwise
        the next :meth:`refresh` builds that ``k``.
        """
        if index.k in self.ks:
            return
        self.ks = tuple(sorted((*self.ks, index.k)))
        if self._graph is not None and index.graph is self._graph:
            self._indexes[index.k] = index

    # ------------------------------------------------------------------
    # Persistence: streaming snapshots
    # ------------------------------------------------------------------

    def snapshot(self, store: "IndexStore", *, name: str | None = None) -> str:
        """Persist the current graph + every index into ``store``.

        Pending edges are folded in first (one :meth:`refresh` if
        stale), so the snapshot always captures everything ingested so
        far — for *all* registered ``k`` values.  Blob and manifest
        writes are atomic — a crash mid-snapshot leaves the previous
        snapshot intact.  Returns the store key.

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
        name: str,
    ) -> "StreamingCoreService":
        """Resume the stream stored under ``name``: snapshot plus log.

        The key's write-ahead log is opened through
        :meth:`IndexStore.recover
        <repro.store.index_store.IndexStore.recover>` (created empty
        when the key has none) and stays attached, so later appends are
        durable.  The persisted graph is attached as it is (vertex ids,
        edge ids and the self-loop count round-trip), and the persisted
        indexes are attached when their fingerprints still match — when
        **every** requested ``k`` loads, :attr:`built` serves at once
        with **zero** core-time computation.  Any missing, stale or
        corrupt index leaves the restored service without a build: the
        next :meth:`refresh` rebuilds every ``k`` in one shared pass,
        never serving bad data.

        Logged records past the snapshot's recovery point re-enter the
        service as *pending* edges — they are **not** re-written to the
        log (they are already durable there).  A key with a log but no
        snapshot yet (a crash before the first snapshot) restores to a
        service holding exactly the replayed edges; a key with neither
        starts an empty stream.
        """
        recovery = store.recover(name)
        replayed = [(e.u, e.v, e.t) for e in recovery.events]
        service = cls(k, replayed, wal=recovery.wal)
        graph = recovery.graph
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
                # stays pending until the host refreshes.
                service._indexes = loaded
        return service
