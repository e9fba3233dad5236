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

from repro.errors import EmptyGraphError, GraphFormatError, InvalidParameterError


class TemporalEdge(NamedTuple):
    """A normalised temporal edge ``u < v`` with timestamp ``t``."""

    u: int
    v: int
    t: int


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
        "_time_offset",
        "_labels",
        "_label_ids",
        "_raw_times",
        "_num_dropped_self_loops",
        "_adjacency_cache",
        "_compiled_cache",
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
        raw_triples: list[tuple[int, int, int]] = []
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
            if u > v:
                u, v = v, u
            raw_triples.append((raw_t, u, v))

        raw_triples.sort()
        if normalize_time:
            raw_times: list[int] = []
            normalized: list[TemporalEdge] = []
            for raw_t, u, v in raw_triples:
                if not raw_times or raw_t != raw_times[-1]:
                    raw_times.append(raw_t)
                normalized.append(TemporalEdge(u, v, len(raw_times)))
        else:
            raw_times = []
            normalized = []
            for raw_t, u, v in raw_triples:
                if raw_t < 1:
                    raise GraphFormatError(
                        f"timestamp {raw_t} < 1; pass normalize_time=True for raw timestamps"
                    )
                normalized.append(TemporalEdge(u, v, raw_t))

        if deduplicate:
            seen: set[TemporalEdge] = set()
            unique: list[TemporalEdge] = []
            for edge_ in normalized:
                if edge_ not in seen:
                    seen.add(edge_)
                    unique.append(edge_)
            normalized = unique

        self._edges: tuple[TemporalEdge, ...] = tuple(normalized)
        self._labels: tuple[Hashable, ...] = tuple(labels)
        self._label_ids = label_ids
        self._raw_times: tuple[int, ...] = tuple(raw_times)
        self._num_dropped_self_loops = dropped
        self._adjacency_cache: list[list[tuple[int, int, int]]] | None = None
        self._compiled_cache = None

        tmax = self.tmax
        per_time = [0] * (tmax + 1)
        for edge_ in self._edges:
            per_time[edge_.t] += 1
        # Edges are sorted by timestamp, so ``_time_offset[t]`` (the number
        # of edges stamped strictly before ``t``) turns any window into a
        # contiguous edge-id range: ids in ``[ts, te]`` are exactly
        # ``range(_time_offset[ts], _time_offset[te + 1])``.
        offsets = [0] * (tmax + 2)
        running = 0
        for t in range(1, tmax + 2):
            offsets[t] = running = running + per_time[t - 1]
        self._time_offset: tuple[int, ...] = tuple(offsets)

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
        return len(self._edges)

    @property
    def tmax(self) -> int:
        """Largest (normalised) timestamp; 0 for an empty graph."""
        return self._edges[-1].t if self._edges else 0

    @property
    def edges(self) -> tuple[TemporalEdge, ...]:
        """All edges sorted by timestamp; the index is the edge id."""
        return self._edges

    @property
    def num_dropped_self_loops(self) -> int:
        return self._num_dropped_self_loops

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
        if raw_ts > raw_te or not self._edges:
            return None
        if not self._raw_times:
            ts, te = max(raw_ts, 1), min(raw_te, self.tmax)
            return (ts, te) if ts <= te else None
        lo = bisect.bisect_left(self._raw_times, raw_ts) + 1
        hi = bisect.bisect_right(self._raw_times, raw_te)
        return (lo, hi) if lo <= hi else None

    def time_offsets(self) -> tuple[int, ...]:
        """The timestamp→edge-id prefix table (length ``tmax + 2``).

        ``time_offsets()[t]`` is the number of edges stamped strictly
        before ``t``; edge ids in ``[ts, te]`` are exactly
        ``range(table[ts], table[te + 1])``.  Shared with the compiled
        flat-array view so the table exists once per graph.
        """
        return self._time_offset

    def edge_ids_at(self, t: int) -> tuple[int, ...]:
        """Edge ids whose timestamp is exactly ``t``."""
        if t < 1 or t > self.tmax:
            return ()
        return tuple(range(self._time_offset[t], self._time_offset[t + 1]))

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
            for eid, (u, v, t) in enumerate(self._edges):
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
        return range(self._time_offset[ts], self._time_offset[te + 1])

    def window_edges(self, ts: int, te: int) -> Iterator[TemporalEdge]:
        """Yield the edges of the projected graph ``G[ts, te]``."""
        edges = self._edges
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
        neighbours: list[set[int]] = [set() for _ in range(self.num_vertices)]
        for u, v, _ in self._edges:
            neighbours[u].add(v)
            neighbours[v].add(u)
        degrees = [len(s) for s in neighbours]
        num_pairs = sum(degrees) // 2
        n = max(1, self.num_vertices)
        return {
            "avg": sum(degrees) / n,
            "max": max(degrees, default=0),
            "num_pairs": num_pairs,
        }

    # ------------------------------------------------------------------
    # Construction helpers & dunder protocol
    # ------------------------------------------------------------------

    @classmethod
    def _from_parts(
        cls,
        *,
        edges: tuple[TemporalEdge, ...],
        labels: tuple[Hashable, ...],
        raw_times: tuple[int, ...],
        time_offset: tuple[int, ...],
        num_dropped_self_loops: int = 0,
    ) -> "TemporalGraph":
        """Rebuild a graph from persisted parts, skipping normalisation.

        Trusted fast path used by :mod:`repro.store`: the parts must
        describe a graph previously produced by this class (edges sorted
        by timestamp with internal ids matching ``labels`` order, the
        prefix table consistent with the edge timestamps).  Restores the
        exact internal vertex and edge ids of the persisted graph.
        """
        graph = cls.__new__(cls)
        graph._edges = edges
        graph._labels = labels
        graph._label_ids = {label: u for u, label in enumerate(labels)}
        graph._raw_times = raw_times
        graph._num_dropped_self_loops = num_dropped_self_loops
        graph._adjacency_cache = None
        graph._compiled_cache = None
        graph._time_offset = time_offset
        return graph

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[Hashable, Hashable, int]],
        **kwargs: bool,
    ) -> "TemporalGraph":
        """Build a graph from an iterable of ``(u, v, t)`` triples."""
        return cls(edges, **kwargs)

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
        return len(self._edges)

    def __iter__(self) -> Iterator[TemporalEdge]:
        return iter(self._edges)

    def __repr__(self) -> str:
        return (
            f"TemporalGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"tmax={self.tmax})"
        )
