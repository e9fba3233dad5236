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

Per-query work is vectorised on top of it.  Each edge's skyline is
bi-monotone, so the windows of an edge inside a range ``[ts, te]`` are
one contiguous run of its flat indices, and every window's activation
time (Definition 6) follows from its flat predecessor: ``max(ts,
predecessor's start + 1)`` when the predecessor belongs to the same
edge, ``ts`` otherwise.  Two readers use that:

* a counting walk reads a once-per-skyline pair of *start-ordered
  columns* (:meth:`EdgeCoreSkyline.counting_columns`): each window's
  end and *floor* (its flat predecessor's start + 1, or a sentinel for
  an edge's first window), listed by start time, with per-start
  offsets.  A range's windows start in one contiguous cut of them
  (:class:`SkylineCut`'s ``lo``/``hi``), which ``repro_count_init``
  reads in order, no gather;
* an emitting walk and the seed-oracle paths read the range's windows
  in flat order: a window inside ``[ts, te]`` contains its edge's
  timestamp, so it lies in the flat run of the edges stamped inside
  the range, one contiguous run when the graph's timestamp offsets are
  at hand (:meth:`EdgeCoreSkyline.selection_from_cut`), ascending with
  no sort.  Edge ids and activations come from the skyline's own
  offsets; nothing is derived or cached.

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
from repro.utils.arrays import as_int64_array, flatten_pairs


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

    __slots__ = ("k", "span", "_offsets", "_t1", "_t2", "_ends", "_floors", "_bucket")

    def __init__(
        self,
        windows_by_edge: Sequence[Sequence[tuple[int, int]]],
        k: int,
        span: tuple[int, int],
    ):
        self.k = k
        self.span = span
        self._offsets, self._t1, self._t2 = flatten_pairs(windows_by_edge)
        self._ends = self._floors = self._bucket = None

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
        skyline._ends = skyline._floors = skyline._bucket = None
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
        """Per-window edge ids (flat, parallel to ``t1``/``t2``), not cached."""
        counts = self._offsets[1:] - self._offsets[:-1]
        return np.repeat(np.arange(self.num_edges, dtype=np.int64), counts)

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

    def counting_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What a counting walk reads of the skyline: ``(ends, floors, bucket)``.

        The windows listed by ascending start (ties in flat order):
        ``ends`` holds each one's end, ``floors`` its flat predecessor's
        start + 1 (:data:`~repro.core.native.NO_FLOOR` for its edge's
        first window), and the windows starting at ``t`` sit at
        ``bucket[t]:bucket[t + 1]``.  Start times lie in ``[0, span
        end]``, so ``bucket`` has ``span end + 2`` entries.  Derived
        once per skyline by one compiled counting scatter
        (:func:`~repro.core.native.skyline_columns`), O(|ECS| + span),
        and reused by every counting query against it: 16 bytes per
        window beside the per-start offsets.
        """
        ends = self._ends
        if ends is None:
            ends, floors, bucket = native.skyline_columns(
                self._offsets, self._t1, self._t2, self.span[1] + 1
            )
            # ends is published last: a concurrent reader that observes
            # _ends non-None then sees the other two columns as well
            # (serving threads share indexes; see CoreIndexRegistry).
            self._floors, self._bucket = floors, bucket
            self._ends = ends
        return ends, self._floors, self._bucket

    def _check_range(self, ts: int, te: int) -> None:
        span_ts, span_te = self.span
        if ts < span_ts or te > span_te:
            raise InvalidParameterError(
                f"[{ts}, {te}] is not inside the computed span [{span_ts}, {span_te}]"
            )

    def cut(self, ts: int, te: int, graph=None, *, counting: bool = True) -> "SkylineCut":
        """The :class:`SkylineCut` of the windows inside ``[ts, te]``.

        ``graph``, the :class:`~repro.graph.temporal_graph.TemporalGraph`
        the skyline was computed on, narrows an emitting walk's read to
        the flat run of the edges stamped inside the range.  The
        start-order cut (``lo``/``hi``) is looked up only for a
        ``counting`` cut; an emitting one derives nothing.
        """
        self._check_range(ts, te)
        lo = hi = None
        if counting:
            lo, hi = (int(part[0]) for part in self.start_cuts([ts], [te]))
        return SkylineCut(self, lo, hi, ts, te, edge_run(graph, ts, te))

    def start_cuts(self, ts_values, te_values) -> tuple[np.ndarray, np.ndarray]:
        """Start-ordered cut positions for a whole batch of ranges at once.

        ``(lo, hi)`` arrays such that the windows with start time inside
        ``[ts_values[i], te_values[i]]`` sit at ``lo[i]:hi[i]`` of the
        start-ordered :meth:`counting_columns` — one vectorised lookup
        in their per-start offsets for the entire batch, shared by
        :meth:`repro.core.index.CoreIndex.query_batch`.
        """
        bucket = self.counting_columns()[2]
        last = len(bucket) - 1
        lo = bucket[np.clip(np.asarray(ts_values, dtype=np.int64), 0, last)]
        hi = bucket[np.clip(np.asarray(te_values, dtype=np.int64) + 1, 0, last)]
        return lo, hi

    def selection_from_cut(
        self, ts: int, te: int, edges: tuple[int, int] | None = None
    ) -> np.ndarray:
        """Flat indices of the windows inside ``[ts, te]``, ascending.

        A window inside the range contains its edge's timestamp, so with
        ``edges``, the ids ``[lo, hi)`` of the edges stamped inside the
        range (:func:`edge_run`), only their contiguous flat run is
        masked; without, every window is.  Ascending flat order groups
        the selection by edge with per-edge ascending start times, each
        edge's windows one contiguous flat run — the layout a restricted
        skyline, the emitting walk and the seed oracles' slice
        (:meth:`active_arrays_from_selection`) take.  No sort.
        """
        lo, hi = (0, self.num_edges) if edges is None else edges
        first, stop = int(self._offsets[lo]), int(self._offsets[hi])
        t1, t2 = self._t1[first:stop], self._t2[first:stop]
        inside = ((t1 >= ts) & (t2 <= te)).nonzero()[0]
        inside += first
        return inside

    def restricted_to(self, ts: int, te: int) -> "EdgeCoreSkyline":
        """Skyline filtered to windows contained in ``[ts, te]``.

        Minimal core windows are intrinsic to the graph (Definition 5 does
        not depend on the query range), so the skyline of a sub-range is
        exactly the subset of windows inside it.  Fully vectorised: a
        flat mask, and each edge's new offset is the selected windows
        before its old one — no per-edge scan, no sort.
        """
        self._check_range(ts, te)
        selected = self.selection_from_cut(ts, te)
        offsets = np.searchsorted(selected, self._offsets)
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
        tuples.  The windows come in ascending flat order, each edge's
        one run, the layout the seed oracles take.
        """
        self._check_range(ts, te)
        return self.active_arrays_from_selection(self.selection_from_cut(ts, te), ts)

    def active_arrays_from_selection(
        self, selected: np.ndarray, ts: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(eid, start, end, active)`` for ascending flat window indices.

        ``selected`` are windows inside a range starting at ``ts``, as
        :meth:`selection_from_cut` lists them.  Each window's edge is
        the last whose offset is at most its index; it activates at
        ``ts`` when it is that edge's first window, else at ``max(ts,
        flat predecessor's start + 1)`` (Definition 6): a predecessor
        of the same edge outside the range starts before ``ts``, since
        it also ends before the window does.
        """
        offsets, t1 = self._offsets, self._t1
        eids = np.searchsorted(offsets, selected, side="right") - 1
        starts = t1[selected]
        # selected - 1 wraps to the last window for window 0, which is
        # its edge's first: the offset test masks it.
        active = np.maximum(t1[selected - 1] + 1, ts)
        active[offsets[eids] == selected] = ts
        return eids, starts, self._t2[selected], active


def edge_run(graph, ts: int, te: int) -> tuple[int, int] | None:
    """The ids ``[lo, hi)`` of ``graph``'s edges stamped inside ``[ts, te]``.

    Edges are stored sorted by timestamp, so they are one contiguous
    range of the graph's timestamp offsets; ``[ts, te]`` must lie inside
    the graph's span.  ``None`` without a graph.
    """
    if graph is None:
        return None
    offsets = graph.time_offsets()
    return int(offsets[ts]), int(offsets[te + 1])


class SkylineCut(NamedTuple):
    """The windows of ``skyline`` inside ``[ts, te]``: what a walk is handed.

    ``lo``/``hi`` cut the skyline's start-ordered
    :meth:`~EdgeCoreSkyline.counting_columns` at the windows starting
    inside the range (:meth:`EdgeCoreSkyline.start_cuts`): a counting
    walk (:func:`repro.serve.columnar.run_columnar_walk`) reads that cut
    itself, and counts those ending by ``te``.  A cut only emitted from
    has no start-order positions (``None``).  ``edges`` is the id range
    of the graph's edges stamped inside the range (:func:`edge_run`),
    ``None`` for every edge: an emitting walk reads the :meth:`arrays`
    of their flat run.
    """

    skyline: EdgeCoreSkyline
    lo: int | None
    hi: int | None
    ts: int
    te: int
    edges: tuple[int, int] | None = None

    def selection(self) -> np.ndarray:
        """Flat indices of the cut's windows inside ``[ts, te]``, ascending."""
        return self.skyline.selection_from_cut(self.ts, self.te, self.edges)

    def arrays(
        self, selected: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Columnar ``(eid, start, end, active)`` of the cut's windows inside ``[ts, te]``.

        The windows of ``selected``, the cut's :meth:`selection` when not
        given, in ascending flat order, activated as the counting kernel
        activates them (Definition 6; see
        :meth:`EdgeCoreSkyline.active_arrays_from_selection`).
        """
        if selected is None:
            selected = self.selection()
        return self.skyline.active_arrays_from_selection(selected, self.ts)


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
