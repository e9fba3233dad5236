"""The temporal graph store.

A :class:`TemporalGraph` is an undirected multigraph whose edges carry an
integer timestamp.  Following the paper's preliminaries (Section II), the
store normalises raw timestamps to a *dense* integer range ``1..tmax`` so
that query ranges, bucket arrays and counting sorts can be indexed directly
by timestamp.  The mapping back to raw timestamps is retained for display.

Vertices may be arbitrary hashable labels on input; internally they are
relabelled to ``0..n-1``.  Self-loops are dropped (a self-loop never
contributes to a k-core under distinct-neighbour degree semantics).

Unlike the paper — which assumes at most one edge per vertex pair "for
simplicity" — this store fully supports repeated interactions between the
same pair at different (or equal) timestamps, because every real dataset in
Table III is a multigraph.  All degree computations downstream count
*distinct neighbours*.
"""

from __future__ import annotations

import bisect
from collections.abc import Hashable, Iterable, Iterator
from typing import NamedTuple

import numpy as np

from repro.errors import EmptyGraphError, GraphFormatError, InvalidParameterError
from repro.utils.arrays import as_int64_array


class TemporalEdge(NamedTuple):
    """A normalised temporal edge ``u < v`` with timestamp ``t``."""

    u: int
    v: int
    t: int


def ingest_edges(
    edges: Iterable[tuple[Hashable, Hashable, int]],
    label_ids: dict[Hashable, int],
    labels: list[Hashable],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Validate and label ``(u, v, t)`` triples, sorted as int64 columns.

    New vertex labels get the next ids, appended to ``labels`` and
    ``label_ids`` in place.  Returns ``(raw_t, u, v, dropped)``: the
    kept edges' columns with ``u < v``, sorted by ``(raw_t, u, v)``, and
    the number of self-loops dropped.  Raises :class:`GraphFormatError`
    for a malformed triple, a non-integer timestamp or one outside
    int64.
    """
    flat: list[int] = []  # (raw_t, u, v) per kept edge, interleaved
    dropped = 0
    for index, edge in enumerate(edges):
        try:
            raw_u, raw_v, raw_t = edge
        except (TypeError, ValueError) as exc:
            raise GraphFormatError(f"edge #{index} is not a (u, v, t) triple: {edge!r}") from exc
        if not isinstance(raw_t, int):
            raise GraphFormatError(f"edge #{index} has non-integer timestamp {raw_t!r}")
        if raw_u == raw_v:
            dropped += 1
            continue
        u = label_ids.setdefault(raw_u, len(labels))
        if u == len(labels):
            labels.append(raw_u)
        v = label_ids.setdefault(raw_v, len(labels))
        if v == len(labels):
            labels.append(raw_v)
        flat += (raw_t, u, v)
    try:
        triples = np.array(flat, dtype=np.int64).reshape(-1, 3)
    except OverflowError:
        bad = next(t for t in flat[0::3] if not -(1 << 63) <= t < 1 << 63)
        raise GraphFormatError(f"timestamp {bad} does not fit in a signed 64-bit integer") from None
    raw_t, first, second = triples[:, 0], triples[:, 1], triples[:, 2]
    u, v = np.minimum(first, second), np.maximum(first, second)
    order = np.lexsort((v, u, raw_t))
    return raw_t[order], u[order], v[order], dropped


def run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted ``values`` that differ from their predecessor."""
    starts = np.empty(len(values), dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def _frozen(column: np.ndarray) -> np.ndarray:
    """``column`` as a read-only C-contiguous int64 array."""
    column = np.ascontiguousarray(column, dtype=np.int64)
    column.flags.writeable = False
    return column


class TemporalGraph:
    """An immutable undirected temporal multigraph.

    Parameters
    ----------
    edges:
        Iterable of ``(u, v, t)`` triples.  ``u`` and ``v`` may be any
        hashable labels; ``t`` must be an integer (raw) timestamp.
    normalize_time:
        When true (default), raw timestamps are compressed to the dense
        range ``1..tmax`` preserving order.  When false, timestamps must
        already be positive integers and are used as-is (``tmax`` is then
        the maximum timestamp, and unused slots are permitted but cost
        memory in bucket arrays).
    deduplicate:
        When true, exact duplicate ``(u, v, t)`` triples are collapsed to a
        single edge.  Defaults to false (keep the multigraph as given).
    """

    __slots__ = (
        "_edges",
        "_edge_columns",
        "_time_offset",
        "_labels",
        "_label_ids",
        "_raw_times",
        "_num_dropped_self_loops",
        "_adjacency_cache",
        "_compiled_cache",
        "_fingerprint",
    )

    def __init__(
        self,
        edges: Iterable[tuple[Hashable, Hashable, int]],
        *,
        normalize_time: bool = True,
        deduplicate: bool = False,
    ):
        label_ids: dict[Hashable, int] = {}
        labels: list[Hashable] = []
        raw_t, u, v, dropped = ingest_edges(edges, label_ids, labels)
        self._assign(raw_t, u, v, labels, label_ids, dropped, normalize_time, deduplicate)

    def _assign(
        self,
        raw_t: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        labels: list[Hashable],
        label_ids: dict[Hashable, int],
        dropped: int,
        normalize_time: bool = True,
        deduplicate: bool = False,
    ) -> None:
        """Normalise ``(raw_t, u, v)`` columns sorted by ``(raw_t, u, v)`` into this graph."""
        if normalize_time:
            # A new normalised time starts at every raw-time change.
            starts = run_starts(raw_t)
            t = np.cumsum(starts)
            raw_times = tuple(raw_t[starts].tolist())
        else:
            if len(raw_t) and raw_t[0] < 1:
                raise GraphFormatError(
                    f"timestamp {int(raw_t[0])} < 1; pass normalize_time=True for raw timestamps"
                )
            t = raw_t
            raw_times = ()

        if deduplicate and len(t):
            # Sorted by (t, u, v): exact duplicates are adjacent.
            keep = np.empty(len(t), dtype=bool)
            keep[0] = True
            keep[1:] = (t[1:] != t[:-1]) | (u[1:] != u[:-1]) | (v[1:] != v[:-1])
            u, v, t = u[keep], v[keep], t[keep]

        tmax = int(t[-1]) if len(t) else 0
        # Edges are sorted by timestamp, so ``_time_offset[t]`` (the number
        # of edges stamped strictly before ``t``) turns any window into a
        # contiguous edge-id range: ids in ``[ts, te]`` are exactly
        # ``range(_time_offset[ts], _time_offset[te + 1])``.
        time_offset = np.zeros(tmax + 2, dtype=np.int64)
        np.cumsum(np.bincount(t, minlength=tmax + 1), out=time_offset[1:])

        self._edges: tuple[TemporalEdge, ...] | None = None
        self._edge_columns = tuple(_frozen(column) for column in (u, v, t))
        self._labels: tuple[Hashable, ...] = tuple(labels)
        self._label_ids = label_ids
        self._raw_times: tuple[int, ...] = raw_times
        self._num_dropped_self_loops = dropped
        self._adjacency_cache: list[list[tuple[int, int, int]]] | None = None
        self._compiled_cache = None
        self._fingerprint = None
        self._time_offset = _frozen(time_offset)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of distinct vertices appearing in any edge."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of temporal edges (with multiplicity)."""
        return len(self._edge_columns[0])

    @property
    def tmax(self) -> int:
        """Largest (normalised) timestamp; 0 for an empty graph."""
        return len(self._time_offset) - 2

    @property
    def edges(self) -> tuple[TemporalEdge, ...]:
        """All edges sorted by timestamp; the index is the edge id.

        The graph holds its edges as int64 columns (:meth:`edge_columns`);
        the tuples are created on first use and cached.  Building,
        compiling, persisting and serving never need them.
        """
        edges = self._edges
        if edges is None:
            columns = (column.tolist() for column in self._edge_columns)
            edges = self._edges = tuple(map(TemporalEdge, *columns))
        return edges

    def edge_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edges as three read-only int64 columns ``(u, v, t)``.

        Row ``eid`` of the columns is edge ``eid`` (``u < v``, sorted by
        ``(t, u, v)``); the compiled view shares these arrays.
        """
        return self._edge_columns

    @property
    def num_dropped_self_loops(self) -> int:
        return self._num_dropped_self_loops

    def with_edges(
        self, edges: Iterable[tuple[Hashable, Hashable, int]]
    ) -> "TemporalGraph":
        """A new graph of this graph's edges plus ``edges``; labels keep their ids.

        Only ``edges`` are labelled (against a copy of this graph's label
        map); they are merged with this graph's raw-time columns and
        normalised as the constructor does, so the result equals
        ``TemporalGraph(raw + edges)`` for the raw triples ``raw`` this
        graph was built from (with ``normalize_time=False`` when this
        graph has edges and was built so).  The edges may interleave with
        this graph's in time; when they all come later, the merged
        columns are already in order and are not sorted again.
        """
        label_ids = dict(self._label_ids)
        labels = list(self._labels)
        raw_t, u, v, dropped = ingest_edges(edges, label_ids, labels)
        old_u, old_v, t = self._edge_columns
        old_raw = np.asarray(self._raw_times, dtype=np.int64)[t - 1] if self._raw_times else t
        in_order = not len(old_raw) or not len(raw_t) or raw_t[0] > old_raw[-1]
        raw_t = np.concatenate((old_raw, raw_t))
        u = np.concatenate((old_u, u))
        v = np.concatenate((old_v, v))
        if not in_order:
            order = np.lexsort((v, u, raw_t))
            raw_t, u, v = raw_t[order], u[order], v[order]
        graph = TemporalGraph.__new__(TemporalGraph)
        # A graph with edges but no raw-time table was built unnormalised.
        graph._assign(
            raw_t, u, v, labels, label_ids, dropped + self._num_dropped_self_loops,
            normalize_time=bool(self._raw_times) or not len(t),
        )
        return graph

    def label_of(self, vertex: int) -> Hashable:
        """Original label of internal vertex id ``vertex``."""
        return self._labels[vertex]

    def id_of(self, label: Hashable) -> int:
        """Internal vertex id of an original label."""
        try:
            return self._label_ids[label]
        except KeyError as exc:
            raise KeyError(f"unknown vertex label {label!r}") from exc

    def raw_time_of(self, t: int) -> int:
        """Raw timestamp behind normalised time ``t`` (identity if not normalised)."""
        if not self._raw_times:
            return t
        if t < 1 or t > len(self._raw_times):
            raise InvalidParameterError(f"normalised time {t} outside 1..{len(self._raw_times)}")
        return self._raw_times[t - 1]

    def normalized_time_of(self, raw_t: int) -> int:
        """Normalised time of a raw timestamp (exact match required)."""
        if not self._raw_times:
            return raw_t
        pos = bisect.bisect_left(self._raw_times, raw_t)
        if pos == len(self._raw_times) or self._raw_times[pos] != raw_t:
            raise KeyError(f"raw timestamp {raw_t} not present in graph")
        return pos + 1

    def snap_raw_window(self, raw_ts: int, raw_te: int) -> tuple[int, int] | None:
        """Largest normalised window inside the raw range ``[raw_ts, raw_te]``.

        Bounds snap *inward* to the nearest ingested timestamps by
        bisecting the sorted raw-timestamp table — O(log tmax), never a
        scan.  Returns ``None`` when no ingested timestamp falls inside
        the range (or the range is empty).  For graphs built with
        ``normalize_time=False`` the mapping is the identity clamped to
        the span.
        """
        if raw_ts > raw_te or not self.num_edges:
            return None
        if not self._raw_times:
            ts, te = max(raw_ts, 1), min(raw_te, self.tmax)
            return (ts, te) if ts <= te else None
        lo = bisect.bisect_left(self._raw_times, raw_ts) + 1
        hi = bisect.bisect_right(self._raw_times, raw_te)
        return (lo, hi) if lo <= hi else None

    def time_offsets(self) -> np.ndarray:
        """The timestamp→edge-id prefix table (length ``tmax + 2``).

        ``time_offsets()[t]`` is the number of edges stamped strictly
        before ``t``; edge ids in ``[ts, te]`` are exactly
        ``range(table[ts], table[te + 1])``.  A read-only int64 array
        shared with the compiled flat-array view, so the table exists
        once per graph.
        """
        return self._time_offset

    def edge_ids_at(self, t: int) -> tuple[int, ...]:
        """Edge ids whose timestamp is exactly ``t``."""
        if t < 1 or t > self.tmax:
            return ()
        return tuple(range(int(self._time_offset[t]), int(self._time_offset[t + 1])))

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------

    def adjacency(self) -> list[list[tuple[int, int, int]]]:
        """Per-vertex incidence lists ``[(neighbour, t, edge_id), ...]``.

        Lists are sorted by timestamp (then edge id); built lazily once and
        cached because every algorithm starts from it.
        """
        if self._adjacency_cache is None:
            adjacency: list[list[tuple[int, int, int]]] = [
                [] for _ in range(self.num_vertices)
            ]
            for eid, (u, v, t) in enumerate(self.edges):
                adjacency[u].append((v, t, eid))
                adjacency[v].append((u, t, eid))
            self._adjacency_cache = adjacency
        return self._adjacency_cache

    def compiled(self):
        """The flat-array (CSR) view of this graph, built once and cached.

        Returns a :class:`repro.graph.csr.CompiledGraph`; every CoreTime
        query over this graph shares it, which is what removes the
        per-query adjacency rebuild from the hot path.
        """
        if self._compiled_cache is None:
            from repro.graph.csr import CompiledGraph

            self._compiled_cache = CompiledGraph(self)
        return self._compiled_cache

    def window_edge_ids(self, ts: int, te: int) -> range:
        """Edge ids whose timestamp lies in ``[ts, te]``, in timestamp order.

        Edges are stored sorted by timestamp, so the ids of a window form
        the contiguous range ``_time_offset[ts] .. _time_offset[te + 1]``;
        the lookup is O(1) regardless of window width (sparse windows cost
        nothing), and iteration is proportional to the matches alone.
        """
        self.check_window(ts, te)
        return range(int(self._time_offset[ts]), int(self._time_offset[te + 1]))

    def window_edges(self, ts: int, te: int) -> Iterator[TemporalEdge]:
        """Yield the edges of the projected graph ``G[ts, te]``."""
        edges = self.edges
        for eid in self.window_edge_ids(ts, te):
            yield edges[eid]

    def check_window(self, ts: int, te: int) -> None:
        """Validate that ``[ts, te]`` is a window inside ``[1, tmax]``."""
        if self.num_edges == 0:
            raise EmptyGraphError("operation requires a non-empty temporal graph")
        if ts > te:
            raise InvalidParameterError(f"empty window [{ts}, {te}]")
        if ts < 1 or te > self.tmax:
            raise InvalidParameterError(
                f"window [{ts}, {te}] outside graph span [1, {self.tmax}]"
            )

    def degree_statistics(self) -> dict[str, float]:
        """Distinct-neighbour degree statistics over the full time span.

        Returns a dict with ``avg``, ``max`` and ``num_pairs`` (distinct
        vertex pairs), matching the ``deg_avg`` quantity used by the
        paper's complexity analysis.
        """
        u, v, _ = self._edge_columns
        n = self.num_vertices
        keys = np.sort(u * n + v)
        pairs = keys[run_starts(keys)]
        degrees = np.bincount(pairs // n, minlength=n) + np.bincount(pairs % n, minlength=n)
        return {
            "avg": int(degrees.sum()) / max(1, n),
            "max": int(degrees.max(initial=0)),
            "num_pairs": len(pairs),
        }

    # ------------------------------------------------------------------
    # Construction helpers & dunder protocol
    # ------------------------------------------------------------------

    @classmethod
    def _from_parts(
        cls,
        *,
        edge_columns: tuple,
        labels: tuple[Hashable, ...],
        raw_times: tuple[int, ...],
        time_offset,
        num_dropped_self_loops: int = 0,
    ) -> "TemporalGraph":
        """Rebuild a graph from persisted parts, skipping normalisation.

        Trusted fast path used by :mod:`repro.store` alone: the parts
        must describe a graph previously produced by this class
        (``edge_columns`` three ``(u, v, t)`` int64 sequences sorted by
        timestamp with internal ids matching ``labels`` order, the prefix
        table consistent with the edge timestamps).  Restores the exact
        internal vertex and edge ids of the persisted graph.
        """
        graph = cls.__new__(cls)
        graph._edges = None
        graph._edge_columns = tuple(_frozen(as_int64_array(c)) for c in edge_columns)
        graph._labels = labels
        graph._label_ids = {label: u for u, label in enumerate(labels)}
        graph._raw_times = raw_times
        graph._num_dropped_self_loops = num_dropped_self_loops
        graph._adjacency_cache = None
        graph._compiled_cache = None
        graph._fingerprint = None
        graph._time_offset = _frozen(as_int64_array(time_offset))
        return graph

    def subgraph_in_window(self, ts: int, te: int) -> "TemporalGraph":
        """A new, independently normalised graph of the edges in ``[ts, te]``.

        Labels are preserved; timestamps are re-normalised, so the result's
        ``tmax`` equals the number of distinct timestamps inside the window.
        """
        triples = [
            (self._labels[u], self._labels[v], t) for u, v, t in self.window_edges(ts, te)
        ]
        return TemporalGraph(triples, normalize_time=True)

    def __len__(self) -> int:
        return self.num_edges

    def __iter__(self) -> Iterator[TemporalEdge]:
        return iter(self.edges)

    def __repr__(self) -> str:
        return (
            f"TemporalGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"tmax={self.tmax})"
        )
