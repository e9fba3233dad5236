"""Vertex core times and the edge core window skyline (Algorithm 2).

This module re-implements, for a fixed ``k``, the historical core-time
machinery of Yu et al. [13] that the paper builds on, and extends it with
the paper's Algorithm 2 to emit every edge's minimal core windows as a
byproduct.

Definitions (Section IV of the paper):

* ``CT_ts(u)`` — the earliest end time ``te`` such that ``u`` belongs to
  the k-core of the projected graph ``G[ts, te]``; infinite when no such
  window exists.
* The VCT index records, per vertex, the distinct core-time values with
  the earliest start time they hold from (Table I).
* The edge core time is ``CT_ts(u, v, t) = max(CT_ts(u), CT_ts(v), t)``
  (Lemma 1); a strict increase of an edge's core time when the start
  moves from ``ts`` to ``ts+1`` certifies ``[ts, CT_ts(e)]`` as a minimal
  core window (Lemma 2).

Algorithmic structure
---------------------

1. **First start time** (``ts = Ts``): a *decremental end-time scan*.
   Peel the k-core of ``G[Ts, Te]``, then shrink ``te`` from ``Te`` down
   to ``Ts`` deleting edge batches and cascading evictions; a vertex
   evicted while shrinking to ``te - 1`` has ``CT_Ts = te``.  Amortised
   ``O(n + m)``.

2. **Advancing the start time**: ``CT_ts`` is the least fixpoint of the
   monotone operator ``T(f)(u) = k-th smallest over distinct neighbours v
   of max(ett(u, v, ts), f(v))``, where ``ett`` is the earliest edge time
   of the pair at or after ``ts``.  Because core times never decrease in
   ``ts``, moving to ``ts+1`` only requires chaotic re-evaluation seeded
   at the endpoints of the edges stamped ``ts`` — the scheme whose cost
   matches the ``O(|VCT| * deg_avg)`` bound quoted by the paper.

Implementation notes
--------------------

The kernel runs entirely over the flat-array graph representation of
:class:`repro.graph.csr.CompiledGraph` (built once per graph and cached
via :meth:`TemporalGraph.compiled`): CSR distinct-neighbour adjacency,
one flat ``array('q')`` of pair timestamps with per-slot slices, a
timestamp→edge-id offset table making every window a contiguous edge-id
range, and a per-vertex incident-edge CSR for the skyline emission.

A fixed ``k`` is the one-level case of the level-fused build of
:mod:`repro.core.multik`, which owns the scan, the fixpoint and the
harvest: :func:`compute_core_times` runs it with one level, so every
build and every range query takes the same compiled C kernels.  This
module keeps the index classes and :class:`_WindowState`, the per-build
pair-pointer state the advancing phase starts from.  Two devices cut
the fixpoint cost:

* **Eager earliest-times** — ``ett[s]``, the first edge time of slot
  ``s`` at or after the current start, is maintained incrementally: it
  only changes for pairs with an edge stamped at the expiring start
  time, whose ids are one contiguous range.  Operator evaluation then
  needs no pointer chasing at all.
* **Support counts** — every vertex keeps the number of its live pairs
  whose available time is at most ``CT(u)``, and is re-evaluated only
  when that falls below ``k``.  When the start moves past ``ts - 1``,
  an endpoint ``u`` of an expiring pair ``(u, v)`` loses one exactly
  when the pair's available time crosses ``CT(u)``, an O(1) test
  (``CT(v) <= CT(u)`` and next pair time ``> CT(u)``), once per pair
  however many of its edges expire; a neighbour whose core time grows
  past ``CT(u)`` takes one off too.

The output is *columnar*: offset-indexed flat arrays that
:class:`VertexCoreTimeIndex` and
:class:`~repro.core.windows.EdgeCoreSkyline` serve natively — the same
layout the on-disk store persists, so every index in the system is one
representation.

The original dict-based kernel is preserved verbatim in
:mod:`repro.core.coretime_ref` as the equivalence oracle and benchmark
baseline; the property suite asserts bit-identical VCT and ECS output.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.temporal_graph import TemporalGraph
from repro.core.windows import EdgeCoreSkyline
from repro.utils.arrays import as_int64_array, flatten_pairs

#: Sentinel for "no remaining edge time" — larger than any timestamp.
_NO_TIME = 1 << 62

#: Flat-array encoding of an infinite core time (timestamps are >= 1).
INF_CT = -1


class VertexCoreTimeIndex:
    """The VCT index: per-vertex ``(start, core_time)`` transition lists.

    ``core_time`` is ``None`` for infinity.  Entry ``(s, c)`` means the
    core time equals ``c`` for every start time from ``s`` until the next
    entry's start (exclusive); vertices never in any k-core over the span
    have no entries at all.

    Stored columnar: ``offsets`` (``num_vertices + 1`` entries) indexes
    flat ``starts``/``cts`` arrays, with :data:`INF_CT` encoding infinity
    — the same layout the on-disk store serves zero-copy.  Scalar lookups
    bisect one vertex's segment; :meth:`core_members` answers a whole
    historical query in one vectorised ``searchsorted`` sweep.  The
    list-of-entries constructor converts eagerly and is kept for the
    reference oracle and the text loader.
    """

    __slots__ = ("k", "span", "_offsets", "_starts", "_cts", "_key")

    def __init__(
        self,
        entries: Sequence[Sequence[tuple[int, int | None]]],
        k: int,
        span: tuple[int, int],
    ):
        self.k = k
        self.span = span
        self._offsets, self._starts, self._cts = flatten_pairs(
            [
                [(start, INF_CT if ct is None else ct) for start, ct in vertex]
                for vertex in entries
            ]
        )
        self._key = None

    @classmethod
    def from_flat(cls, offsets, starts, cts, k: int, span: tuple[int, int]):
        """Wrap existing offset-indexed flat arrays (zero-copy).

        ``cts`` uses :data:`INF_CT` for infinite core times.  Accepts
        ndarrays, ``array('q')`` buffers and ``memoryview`` store
        sections alike.
        """
        index = cls.__new__(cls)
        index.k = k
        index.span = span
        index._offsets = as_int64_array(offsets)
        index._starts = as_int64_array(starts)
        index._cts = as_int64_array(cts)
        index._key = None
        return index

    @property
    def num_vertices(self) -> int:
        return len(self._offsets) - 1

    def flat_parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The native ``(offsets, starts, cts)`` arrays (shared, do not mutate)."""
        return self._offsets, self._starts, self._cts

    def entries_of(self, u: int) -> list[tuple[int, int | None]]:
        """Transition list of vertex ``u`` (ordered by start time)."""
        lo, hi = int(self._offsets[u]), int(self._offsets[u + 1])
        starts, cts = self._starts, self._cts
        return [
            (int(starts[i]), None if cts[i] == INF_CT else int(cts[i]))
            for i in range(lo, hi)
        ]

    def size(self) -> int:
        """``|VCT|`` — the total number of index entries.  O(1)."""
        return len(self._starts)

    def core_time(self, u: int, ts: int) -> int | None:
        """``CT_ts(u)`` — None when infinite (never in a k-core from ts).

        Binary-searches the vertex's segment; ``O(log |entries(u)|)``.
        """
        lo, hi = self.span
        if ts < lo or ts > hi:
            raise InvalidParameterError(f"start {ts} outside computed span {self.span}")
        left, right = int(self._offsets[u]), int(self._offsets[u + 1])
        if left == right:
            return None
        pos = bisect_right(self._starts, ts, left, right) - 1
        if pos < left:
            # Before the first recorded start; the first entry starts at
            # the span start, so this only happens for ts < span start,
            # which the guard above already excluded.
            return None
        ct = int(self._cts[pos])
        return None if ct == INF_CT else ct

    def in_core(self, u: int, ts: int, te: int) -> bool:
        """Is ``u`` in the k-core of ``G[ts, te]``?  (Historical query.)"""
        ct = self.core_time(u, ts)
        return ct is not None and ct <= te

    def _composite_key(self) -> np.ndarray:
        """Globally sorted ``vertex * stride + start`` keys; cached.

        Segments are per-vertex ascending starts, so with ``stride >
        span end`` the composite is globally ascending — one vectorised
        ``searchsorted`` then locates every vertex's active entry at
        once.
        """
        if self._key is None:
            counts = self._offsets[1:] - self._offsets[:-1]
            stride = self.span[1] + 2
            self._key = (
                np.repeat(np.arange(self.num_vertices, dtype=np.int64), counts)
                * stride
                + self._starts
            )
        return self._key

    def core_members(self, ts: int, te: int) -> np.ndarray:
        """Vertex ids in the k-core of ``G[ts, te]``, one vectorised sweep.

        The whole-graph historical query: for every vertex, the entry
        active at start ``ts`` is found by one ``searchsorted`` over the
        cached composite key, and membership is ``ct <= te`` — no
        per-vertex Python loop.
        """
        lo, hi = self.span
        if ts < lo or ts > hi:
            raise InvalidParameterError(f"start {ts} outside computed span {self.span}")
        n = self.num_vertices
        if not len(self._starts):
            return np.empty(0, dtype=np.int64)
        stride = self.span[1] + 2
        key = self._composite_key()
        pos = (
            np.searchsorted(
                key, np.arange(n, dtype=np.int64) * stride + ts, side="right"
            )
            - 1
        )
        valid = pos >= self._offsets[:-1]
        cts = self._cts[np.maximum(pos, 0)]
        return (valid & (cts != INF_CT) & (cts <= te)).nonzero()[0]


@dataclass(frozen=True)
class CoreTimeResult:
    """Output of :func:`compute_core_times`.

    Attributes
    ----------
    vct:
        The vertex core time index.
    ecs:
        The edge core window skyline, or ``None`` when skyline emission
        was disabled.
    """

    vct: VertexCoreTimeIndex
    ecs: EdgeCoreSkyline | None


class _WindowState:
    """Pair-pointer state of a CoreTime build over the compiled flat arrays.

    The compiled graph supplies all immutable structure; per build the
    advancing phase keeps two mutable arrays, one entry per adjacency
    slot: ``ptr``, the index into the flat pair-timestamp array of the
    pair's first time at or after the current start (advanced
    monotonically), and ``ett``, the timestamp it designates, or a
    sentinel when the pair has no further edge.  Both are int64
    ndarrays, advanced in place by the compiled build pass.  Sub-windows
    need no rebuilt structure: pointers are positioned once at ``ts_lo``
    and the end bound is a comparison against ``ts_hi``.
    """

    __slots__ = ("cg", "ts_lo", "ts_hi", "inf", "ptr", "ett")

    def __init__(self, graph: TemporalGraph, ts_lo: int, ts_hi: int):
        self.cg = cg = graph.compiled()
        self.ts_lo = ts_lo
        self.ts_hi = ts_hi
        self.inf = ts_hi + 1
        if ts_lo == 1:
            self.ptr = cg.slot_times_start.copy()
            self.ett = cg.pair_times[cg.slot_times_start]
        else:
            # Position each pair's pointer at its first edge time >= ts_lo.
            # All pairs bisect at once: each pair's slice of ``pair_times``
            # is ascending and times never exceed ``tmax``, so the
            # composite key ``pid * stride + time`` is globally sorted and
            # one searchsorted answers every pair (both directional slots
            # share the result).
            pair_times = cg.pair_times
            pair_offset = cg.pair_offset
            num_pairs = cg.num_pairs
            stride = np.int64(cg.tmax + 2)
            counts = pair_offset[1:] - pair_offset[:-1]
            pids = np.arange(num_pairs, dtype=np.int64)
            composite = np.repeat(pids, counts) * stride + pair_times
            first_index = np.searchsorted(composite, pids * stride + ts_lo)
            self.ptr = first_index[cg.slot_pid]
            exhausted = first_index >= pair_offset[1:]
            pair_first_time = np.where(
                exhausted,
                _NO_TIME,
                pair_times[np.minimum(first_index, max(len(pair_times) - 1, 0))],
            )
            self.ett = pair_first_time[cg.slot_pid]


def compute_core_times(
    graph: TemporalGraph,
    k: int,
    ts: int | None = None,
    te: int | None = None,
    *,
    with_skyline: bool = True,
) -> CoreTimeResult:
    """Compute the VCT index (and optionally the ECS) over ``[ts, te]``.

    This is the paper's Algorithm 2 (*CoreTime*): the historical
    core-time maintenance of [13] for a fixed ``k``, with minimal core
    windows of every edge emitted as a byproduct.

    Parameters default to the graph's full span.  Complexity:
    ``O(|VCT| * deg_avg)`` plus the ``O(n + m)`` initial scan.  The first
    call on a graph compiles its flat-array representation (cached on the
    graph); subsequent calls reuse it.  The build is the one-level case
    of the level-fused kernel of :mod:`repro.core.multik`: one compiled
    scan and one compiled pass.  The returned
    VCT/ECS are served from offset-indexed flat int64 arrays — the same
    representation the on-disk store persists.  For several ``k`` values
    over the same window,
    :func:`repro.core.multik.compute_core_times_multi` shares the scan
    across them.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    # The kernel lives in multik, which imports this module.
    from repro.core.multik import _build_core_times

    return _build_core_times(graph, [k], ts, te, with_skyline)[k]


def compute_vertex_core_times(
    graph: TemporalGraph, k: int, ts: int | None = None, te: int | None = None
) -> VertexCoreTimeIndex:
    """VCT index only (skyline emission disabled)."""
    return compute_core_times(graph, k, ts, te, with_skyline=False).vct


def core_time_by_rescan(graph: TemporalGraph, k: int, ts: int, te: int) -> dict[int, int]:
    """Reference ``CT_ts`` for a *single* start time by direct scan.

    Used by tests and the CoreTime ablation: peel the widest window, then
    shrink the end time with cascading deletions (the first-start scan
    of a one-level build).  Returns only vertices with finite core time.
    """
    from repro.core.multik import _FusedMultiK

    graph.check_window(ts, te)
    fused = _FusedMultiK(graph, [k], ts, te, with_skyline=False)
    fused.scan_first_start()
    return {u: c for u, c in enumerate(fused.ct_matrix[0].tolist()) if c < fused.inf}
