"""Minimal core windows and the edge core window skyline (ECS).

Definition 5 of the paper: a *minimal core window* of an edge ``e`` is a
time window ``[t1, t2]`` such that ``e`` belongs to the k-core of
``G[t1, t2]`` but of no proper sub-window.  Per edge, minimal windows form
a *skyline*: sorted by start time they are strictly increasing in both
coordinates (a window dominated in both coordinates would not be minimal).

:class:`EdgeCoreSkyline` stores the skyline of every edge for a fixed k
and a computation range, and knows how to re-target itself onto a narrower
query range (used when one prebuilt index serves many queries).

Representation
--------------

The skyline is held *columnar*: three flat int64 arrays — ``offsets``
(``num_edges + 1`` entries), ``t1`` and ``t2`` — where edge ``eid``'s
windows are ``zip(t1, t2)`` over ``offsets[eid]:offsets[eid+1]``,
ascending in both coordinates.  This is the same offset-indexed layout
the on-disk store persists, so in-memory, store-loaded and multi-``k``
built skylines are one representation and a store load is zero-copy.

Per-query work is vectorised on top of it.  Restricting to a sub-range
``[ts, te]`` cuts a once-per-skyline *start-sorted permutation* of the
windows (a stable counting sort by start time) at two offsets
(``ts <= t1 <= te``): a :class:`SkylineCut`, whose windows ending by
``te`` are the range's — no per-edge Python loop.  Because each edge's
skyline is bi-monotone, the surviving windows of an edge are one
contiguous run of flat indices, so every window's activation time
(Definition 6) follows from its flat predecessor: ``max(ts, predecessor's
start + 1)`` when the predecessor belongs to the same edge, ``ts``
otherwise.  A counting walk reads the cut and derives activation itself
(``repro_count_init``), needing only a once-per-skyline byte per window
that flags each edge's first window; :meth:`SkylineCut.arrays`
materialises the ``(eid, start, end, active)`` slice an emitting walk
needs, in one vectorised step.

The list-of-tuples constructor is kept as the conversion surface for the
reference oracle, the text loaders and hand-written tests; it converts
eagerly, so every live skyline is columnar.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import NamedTuple

import numpy as np

from repro.core import native
from repro.errors import InvalidParameterError
from repro.utils.arrays import as_int64_array, flatten_pairs, offsets_from_keys


class EdgeCoreSkyline:
    """Per-edge minimal core windows for a fixed ``k`` over ``[ts, te]``.

    Parameters
    ----------
    windows_by_edge:
        ``windows_by_edge[eid]`` is the sequence of ``(t1, t2)`` minimal
        core windows of temporal edge ``eid``, ordered by (strictly
        increasing) start time.  Edges that are never in any k-core have
        an empty sequence.  Converted to the columnar representation on
        construction; computed skylines use :meth:`from_flat` instead.
    k, span:
        The query integer and the computation range the skyline refers to.
    """

    __slots__ = (
        "k",
        "span",
        "_offsets",
        "_t1",
        "_t2",
        "_start_order",
        "_start_offsets",
        "_first",
        "_eids",
    )

    def __init__(
        self,
        windows_by_edge: Sequence[Sequence[tuple[int, int]]],
        k: int,
        span: tuple[int, int],
    ):
        self.k = k
        self.span = span
        self._offsets, self._t1, self._t2 = flatten_pairs(windows_by_edge)
        self._start_order = None
        self._start_offsets = None
        self._first = None
        self._eids = None

    @classmethod
    def from_flat(cls, offsets, t1, t2, k: int, span: tuple[int, int]):
        """Wrap existing offset-indexed flat arrays (zero-copy).

        ``offsets`` has ``num_edges + 1`` entries; ``t1``/``t2`` hold the
        window coordinates grouped by edge, ascending within each edge.
        Accepts ndarrays, ``array('q')`` buffers and ``memoryview`` store
        sections alike.
        """
        skyline = cls.__new__(cls)
        skyline.k = k
        skyline.span = span
        skyline._offsets = as_int64_array(offsets)
        skyline._t1 = as_int64_array(t1)
        skyline._t2 = as_int64_array(t2)
        skyline._start_order = None
        skyline._start_offsets = None
        skyline._first = None
        skyline._eids = None
        return skyline

    # ------------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self._offsets) - 1

    def flat_parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The native ``(offsets, t1, t2)`` arrays (shared, do not mutate)."""
        return self._offsets, self._t1, self._t2

    def windows_of(self, eid: int) -> tuple[tuple[int, int], ...]:
        """Minimal core windows of edge ``eid`` (possibly empty)."""
        lo, hi = int(self._offsets[eid]), int(self._offsets[eid + 1])
        t1, t2 = self._t1, self._t2
        return tuple((int(t1[i]), int(t2[i])) for i in range(lo, hi))

    def size(self) -> int:
        """``|ECS|`` — total number of minimal core windows.  O(1)."""
        return len(self._t1)

    def window_eids(self) -> np.ndarray:
        """Per-window edge ids (flat, parallel to ``t1``/``t2``); cached."""
        if self._eids is None:
            counts = self._offsets[1:] - self._offsets[:-1]
            self._eids = np.repeat(
                np.arange(self.num_edges, dtype=np.int64), counts
            )
        return self._eids

    def __iter__(self) -> Iterator[tuple[int, tuple[int, int]]]:
        """Yield ``(eid, (t1, t2))`` for every window of every edge."""
        eids = self.window_eids()
        t1, t2 = self._t1, self._t2
        for i in range(len(t1)):
            yield int(eids[i]), (int(t1[i]), int(t2[i]))

    def check_skyline_invariant(self) -> None:
        """Assert the strict bi-monotonicity of every per-edge skyline."""
        ts, te = self.span
        t1, t2 = self._t1, self._t2
        eids = self.window_eids()
        bad = ((t1 < ts) | (t2 > te) | (t1 > t2)).nonzero()[0]
        if bad.size:
            i = int(bad[0])
            raise AssertionError(
                f"edge {int(eids[i])}: window ({int(t1[i])}, {int(t2[i])}) "
                f"outside span {self.span}"
            )
        same_edge = eids[1:] == eids[:-1]
        bad = (same_edge & ((t1[1:] <= t1[:-1]) | (t2[1:] <= t2[:-1]))).nonzero()[0]
        if bad.size:
            i = int(bad[0]) + 1
            raise AssertionError(
                f"edge {int(eids[i])}: skyline not strictly increasing at "
                f"({int(t1[i])}, {int(t2[i])})"
            )

    # ------------------------------------------------------------------
    # Vectorised sub-range machinery
    # ------------------------------------------------------------------

    def _by_start(self) -> tuple[np.ndarray, np.ndarray]:
        """The start-sorted permutation and its per-start offsets; cached.

        ``(order, offsets)``: ``order`` lists the windows by ascending
        start (ties in flat order) and ``order[offsets[t]:offsets[t +
        1]]`` are the windows starting at ``t``.  Built once per skyline
        by one stable counting sort over the start times, which lie in
        ``[1, span end]`` (O(|ECS| + span)), and reused by every query
        against it: the per-query cost of a restriction drops to two
        offset lookups plus work proportional to the windows that start
        inside the query range.
        """
        order = self._start_order
        if order is None:
            order, offsets = native.counting_order(self._t1, self.span[1] + 1)
            # The offsets are published before the order array: a
            # concurrent reader that observes _start_order non-None is
            # then guaranteed to see _start_offsets as well (serving
            # threads share indexes; see CoreIndexRegistry).
            self._start_offsets = offsets
            self._start_order = order
        return order, self._start_offsets

    def counting_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """What a counting walk reads of the skyline: ``(t1, t2, order, first)``.

        ``order`` is the start-sorted permutation (:meth:`_by_start`) and
        ``first`` flags, one byte per window, the first window of each
        edge: a window's flat predecessor belongs to the same edge unless
        it is flagged.  Both are derived once per skyline; every column
        is C-contiguous.
        """
        order, _offsets = self._by_start()
        first = self._first
        if first is None:
            first = np.zeros(len(self._t1), dtype=np.uint8)
            heads = self._offsets[:-1]
            # An edge without windows shares its offset with the next
            # edge's first window (or lies past the last window).
            first[heads[heads < len(first)]] = 1
            self._first = first
        t1, t2 = (np.ascontiguousarray(column) for column in (self._t1, self._t2))
        return t1, t2, order, first

    def _check_range(self, ts: int, te: int) -> None:
        span_ts, span_te = self.span
        if ts < span_ts or te > span_te:
            raise InvalidParameterError(
                f"[{ts}, {te}] is not inside the computed span [{span_ts}, {span_te}]"
            )

    def cut(self, ts: int, te: int) -> "SkylineCut":
        """The :class:`SkylineCut` of the windows inside ``[ts, te]``."""
        self._check_range(ts, te)
        (lo,), (hi,) = self.start_cuts([ts], [te])
        return SkylineCut(self, int(lo), int(hi), ts, te)

    def start_cuts(self, ts_values, te_values) -> tuple[np.ndarray, np.ndarray]:
        """Start-sorted cut positions for a whole batch of ranges at once.

        ``(lo, hi)`` arrays such that the windows with start time inside
        ``[ts_values[i], te_values[i]]`` are ``order[lo[i]:hi[i]]`` of
        the cached start-sorted permutation — one vectorised lookup in
        its per-start offsets for the entire batch, shared by
        :meth:`repro.core.index.CoreIndex.query_batch`.
        """
        _order, offsets = self._by_start()
        last = len(offsets) - 1
        lo = offsets[np.clip(np.asarray(ts_values, dtype=np.int64), 0, last)]
        hi = offsets[np.clip(np.asarray(te_values, dtype=np.int64) + 1, 0, last)]
        return lo, hi

    def selection_from_cut(self, lo: int, hi: int, ts: int, te: int) -> np.ndarray:
        """Flat indices of the windows inside ``[ts, te]``, ascending.

        ``lo``/``hi`` are the start-sorted cut positions for the range
        (see :meth:`start_cuts`).  Ascending flat order groups the
        selection by edge with per-edge ascending start times, each
        edge's windows one contiguous flat run — the layout a restricted
        skyline and the seed oracles' slice
        (:meth:`active_arrays_from_selection`) take.  The columnar walk
        needs no sort: it reads the cut in start order and tells a
        window's activation from its flat predecessor
        (:meth:`counting_columns`, :meth:`SkylineCut.arrays`).
        """
        span_ts, span_te = self.span
        if ts == span_ts and te == span_te:
            return np.arange(len(self._t1), dtype=np.int64)
        order, _offsets = self._by_start()
        candidates = order[lo:hi]
        selected = candidates[self._t2[candidates] <= te]
        selected.sort()
        return selected

    def restricted_to(self, ts: int, te: int) -> "EdgeCoreSkyline":
        """Skyline filtered to windows contained in ``[ts, te]``.

        Minimal core windows are intrinsic to the graph (Definition 5 does
        not depend on the query range), so the skyline of a sub-range is
        exactly the subset of windows inside it.  Fully vectorised: two
        offset cuts of the cached start-sorted permutation plus an
        end-time mask — no per-edge scan.
        """
        selected = self.selection_from_cut(*self.cut(ts, te)[1:])
        offsets = offsets_from_keys(self.window_eids()[selected], self.num_edges)
        return EdgeCoreSkyline.from_flat(
            offsets, self._t1[selected], self._t2[selected], self.k, (ts, te)
        )

    def active_window_arrays(
        self, ts: int, te: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Columnar ``(eid, start, end, active)`` of the windows in ``[ts, te]``.

        The vectorised form of restriction followed by
        :func:`build_active_windows` — the enumeration driver's window
        prep, without materialising a restricted skyline or any per-edge
        tuples.  ``active`` is the activation time of Definition 6: the
        first surviving window of an edge activates at ``ts``, each later
        one at its predecessor's start time plus one.  Bi-monotonicity
        makes each edge's surviving windows a contiguous flat run, so the
        predecessor test is one shifted comparison.  The windows come in
        ascending flat order, each edge's one run, the layout the seed
        oracles take.
        """
        _skyline, lo, hi, ts, te = self.cut(ts, te)
        return self.active_arrays_from_selection(self.selection_from_cut(lo, hi, ts, te), ts)

    def active_arrays_from_selection(
        self, selected: np.ndarray, ts: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(eid, start, end, active)`` for an already-cut selection.

        ``selected`` are ascending flat window indices as produced by the
        selection machinery; ``ts`` is the query start the first window
        of each edge activates at.  A window whose flat predecessor is
        selected and of the same edge activates one past that
        predecessor's start instead.
        """
        eids = self.window_eids()[selected]
        starts = self._t1[selected]
        ends = self._t2[selected]
        active = np.full(len(selected), ts, dtype=np.int64)
        if len(selected) > 1:
            follows = (selected[1:] == selected[:-1] + 1) & (eids[1:] == eids[:-1])
            active[1:][follows] = starts[:-1][follows] + 1
        return eids, starts, ends, active


class SkylineCut(NamedTuple):
    """The windows of ``skyline`` inside ``[ts, te]``, as a cut of its start order.

    ``order[lo:hi]`` of the skyline's start-sorted permutation lists the
    windows starting inside ``[ts, te]`` (:meth:`EdgeCoreSkyline.start_cuts`);
    those ending by ``te`` are the range's windows.  This is what the
    columnar walk is handed (:func:`repro.serve.columnar.run_columnar_walk`):
    a counting walk reads the cut itself, an emitting one the
    :meth:`arrays` it gathers, in start order.
    """

    skyline: EdgeCoreSkyline
    lo: int
    hi: int
    ts: int
    te: int

    def selection(self) -> np.ndarray:
        """Flat indices of the cut's windows inside ``[ts, te]``, in start order.

        ``order[lo:hi]`` filtered by end time: a gather, no sort.
        """
        _starts, ends, order, _first = self.skyline.counting_columns()
        candidates = order[self.lo : self.hi]
        return candidates[ends[candidates] <= self.te]

    def arrays(
        self, selected: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Columnar ``(eid, start, end, active)`` of the cut's windows inside ``[ts, te]``.

        The windows of ``selected``, the cut's :meth:`selection` when not
        given, in its start order.  A window activates as the counting
        kernel activates it (Definition 6): at ``ts`` when it is its
        edge's first, else at ``max(ts, flat predecessor's start + 1)``
        — a predecessor of the same edge outside the range starts before
        ``ts``, since it also ends before the window does.
        """
        if selected is None:
            selected = self.selection()
        starts, ends, _order, first = self.skyline.counting_columns()
        # selected - 1 wraps to the last window for window 0, which is
        # its edge's first: the flag masks it.
        active = np.maximum(starts[selected - 1] + 1, self.ts)
        active[first[selected].view(bool)] = self.ts
        return self.skyline.window_eids()[selected], starts[selected], ends[selected], active


class ActiveWindow:
    """A minimal core window decorated for enumeration (Algorithms 4–5).

    ``active`` is the activation time of Definition 6: the window is
    considered for start times ``ts`` in ``[active, start]``.  ``prev`` /
    ``next`` are the doubly-linked-list hooks of ``L_ts``.
    """

    __slots__ = ("start", "end", "edge_id", "active", "prev", "next")

    def __init__(self, start: int, end: int, edge_id: int, active: int):
        self.start = start
        self.end = end
        self.edge_id = edge_id
        self.active = active
        self.prev: "ActiveWindow | None" = None
        self.next: "ActiveWindow | None" = None

    def __repr__(self) -> str:
        return (
            f"ActiveWindow([{self.start}, {self.end}], edge={self.edge_id}, "
            f"active={self.active})"
        )


def build_active_windows(
    skyline: EdgeCoreSkyline, ts_lo: int
) -> list[ActiveWindow]:
    """Materialise every skyline window with its activation time.

    Implements lines 1–4 of Algorithm 5: per edge, the first window
    activates at the start of the range and each later window activates
    one past the previous window's start time.  The result preserves the
    skyline's per-edge order; no global order is imposed here.  Derived
    from the columnar arrays — the enumeration driver consumes
    :meth:`EdgeCoreSkyline.active_window_arrays` directly and never
    materialises these objects ahead of the end-time sort.
    """
    eids, starts, ends, active = skyline.active_window_arrays(
        ts_lo, skyline.span[1]
    )
    return [
        ActiveWindow(int(t1), int(t2), int(eid), int(act))
        for eid, t1, t2, act in zip(
            eids.tolist(), starts.tolist(), ends.tolist(), active.tolist()
        )
    ]
