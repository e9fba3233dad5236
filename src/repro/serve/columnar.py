"""The columnar enumeration core — Algorithm 5 without linked lists.

The seed enumerator (kept as the oracle in
:mod:`repro.core.enumerate_ref`) maintains ``L_ts`` as a doubly linked
list of per-window Python objects and walks it cell by cell.  This
module replaces both with flat arrays over the windows of a
:class:`~repro.core.windows.SkylineCut` (the range's windows as two
offsets into the skyline's start order).  A sink that receives the
cores walks the ``(eid, start, end, active)`` slice the cut
materialises:

* the *alive set* ``L_ts`` is held as three parallel contiguous int64
  arrays ``(end, start, eid)``, kept sorted by end time;
* moving between start times is a **cut** (drop the entries whose
  start just expired) and a **merge** (splice the newly activated
  windows in, ahead of alive entries with the same end — Algorithm 5's
  roving-cursor insertion, batched);
* **AS-Output** (Algorithm 4): the cores reported at ``ts`` are the
  end-group boundaries of the alive suffix at or after the first entry
  with start time ``ts``, and each is described to the sink as ``(end,
  prefix length)`` into the shared end-sorted edge run — no per-core
  accumulation loop.

Only start times where some window starts are visited (Lemma 4: no
core starts anywhere else), and between two visited start times every
activation and expiry is applied in one batch — windows that would
have been spliced in and dropped again without ever being scanned are
never touched, preserving the ``O(|L \\ L'|)`` update bound.

A sink that receives the cores takes one call of the compiled step
per visited start time (``repro_walk_step`` in ``core/_fixpoint.c``,
see :mod:`repro.core.native`), which merge-copies the alive run:
O(alive windows) per visit.  A sink that offers
:meth:`~repro.serve.sinks.ResultSink.counting_targets` (a bare
:class:`~repro.serve.sinks.CountSink`, or the slice router of a
window shared by counting requests) takes the counting kernel (``repro_count_init``, then
``repro_count_visits``) instead, and no slice is materialised.
``repro_count_init`` reads the cut ``order[lo:hi]`` from the skyline's
columns: it drops the windows ending after ``te`` and activates each
other one from its flat predecessor (Definition 6: an edge's windows
inside the range are one contiguous flat run, so a window activates at
``max(ts, predecessor's start + 1)`` when that predecessor belongs to
the same edge, at ``ts`` otherwise — a byte per window flags each
edge's first).  The cut arrives in start order, so the windows' ends
are bucketed by start as they come; one counting sort buckets them by
activation.  The walk holds ``L_ts`` as a histogram of window counts
per end time: a visit adds one bucket and removes one, and the cores at
``t`` are the distinct alive ends at or above ``e0``, the least end of
a window starting at ``t``, the one ending at ``e`` holding every alive
window that ends by ``e``.  One descending scan from the top end to
``e0`` counts them and leaves each slice-router target's count two
lookups away: O(changes + width of ``[e0, top]``) per visit.  The
histogram is indexed by time, so a cut whose range spans at least
``2 * (hi - lo) + 64`` time units (raw timestamps) is counted over the
ranks of its windows' times.  Either way the deadline is polled before
every visit.

Emission order, duplicate-freedom and the reported TTIs are exactly
the oracle's; only the intra-core edge order may differ within groups
of equal end times (the emitted prefix at a group boundary contains
the whole group either way).  The property suite asserts per-core
TTI + edge-set identity against the oracle, and the counting walk's
counters (slice-router targets included) against the oracle's cores.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.core import native
from repro.core.windows import SkylineCut
from repro.serve.sinks import ResultSink
from repro.utils.arrays import unique_sorted
from repro.obs.timing import Deadline


def run_columnar_walk(
    cut: SkylineCut,
    sink: ResultSink,
    *,
    deadline: Deadline | None = None,
) -> bool:
    """Enumerate the cores of a skyline cut into ``sink``.

    ``cut`` holds the windows of a range as a cut of the skyline's
    start order (:meth:`EdgeCoreSkyline.cut
    <repro.core.windows.EdgeCoreSkyline.cut>`).  A counting sink's walk
    reads it directly; an emitting sink's walk takes the columnar
    ``(eid, start, end, active)`` slice it gathers, in start order.  Returns
    ``True`` when the walk ran to completion, ``False`` on a deadline
    abort (the sink then holds the results of every start time finished
    before the abort).  The caller is responsible for calling
    ``sink.finish`` with the returned flag.  Raises :class:`ValueError`
    on a cut outside the skyline's start order, before reading it.
    """
    skyline, lo, hi, _ts, _te = cut
    if not 0 <= lo <= hi <= skyline.size():
        raise ValueError(
            f"cut [{lo}, {hi}) lies outside the {skyline.size()} windows of the skyline"
        )
    if lo == hi:
        return True
    kernels = native.library()
    targets = sink.counting_targets()
    if targets is not None:
        return _count_compiled(kernels, cut, targets, sink, deadline)
    selected = cut.selection()
    if not len(selected):
        return True
    return _walk_compiled(kernels.walk_step, cut.arrays(selected), selected, sink, deadline)


def _walk_compiled(walk_step, arrays, ties, sink: ResultSink, deadline) -> bool:
    """The emitting walk as one ``repro_walk_step`` call per visited start time.

    The splice order (see :func:`_schedule`) is sorted once, so each
    step's incoming windows are one contiguous run.  The sink receives fresh copies of each step's
    arrays.
    """
    size = len(arrays[0])
    visits, order = _schedule(*arrays[1:], ties)
    args = native.WalkArgs(size=size)
    bound: list[np.ndarray] = []  # holds every bound address valid

    def bind(name: str, array: np.ndarray) -> np.ndarray:
        bound.append(array)
        setattr(args, name, array.ctypes.data)
        return array

    for name, array in zip(("eid", "start", "end", "active", "order"), (*arrays, order)):
        bind(name, array)
    for name in ("end_0", "start_0", "end_1", "start_1"):
        bind(name, np.empty(size, dtype=np.int64))
    alive_eids = [bind(name, np.empty(size, dtype=np.int64)) for name in ("eid_0", "eid_1")]
    out_end = bind("out_end", np.empty(size, dtype=np.int64))
    out_len = bind("out_len", np.empty(size, dtype=np.int64))

    step = ctypes.byref(args)
    for t in visits.tolist():
        if deadline is not None and deadline.expired():
            return False
        cores = walk_step(step, t)
        sink.emit(
            t,
            out_end[:cores].copy(),
            out_len[:cores].copy(),
            alive_eids[args.cur][: args.alive].copy(),
        )
    return True


def _count_compiled(kernels, cut: SkylineCut, targets, sink: ResultSink, deadline) -> bool:
    """The counting walk: ``repro_count_init``, then ``repro_count_visits``.

    The kernel reads the cut from the skyline's columns and indexes its
    histograms by time: a cut whose range ``[ts, te]`` spans fewer than
    ``2 * (hi - lo) + 64`` time units is counted over the range's own
    times, offset by ``ts``; a wider one (raw timestamps) is cut here
    first and counted over the ranks of its windows' distinct times,
    with the targets' bounds mapped to the ranks that keep every
    comparison the kernel makes.  One call counts the whole walk, or,
    under a deadline, one call per visited start time after each poll.
    The sink is credited once, when the walk returns or aborts.
    """
    skyline, lo, hi, ts, te = cut
    starts, ends, order, first = skyline.counting_columns()
    target_ts, target_te, target_num, target_edges = targets
    ranks = None
    if te - ts + 1 < 2 * (hi - lo) + 64:
        base, width = ts, te - ts + 1
        target_ts, target_te = target_ts - ts, target_te - ts
    else:
        candidates = order[lo:hi]
        cut_ends = ends[candidates]
        counted = cut_ends <= te
        ranks = unique_sorted(np.concatenate((starts[candidates[counted]], cut_ends[counted])))
        base, width = 0, len(ranks)
        target_ts = np.searchsorted(ranks, target_ts)
        target_te = np.searchsorted(ranks, target_te, side="right") - 1
    args = native.CountArgs(
        windows=len(order), lo=lo, hi=hi, ts=ts, te=te, base=base, width=width,
        targets=len(target_ts),
    )
    bound = [starts, ends, order, first, target_ts, target_te, target_num, target_edges]
    for name, array in zip(
        ("start", "end", "order", "first", "target_ts", "target_te", "target_num", "target_edges"),
        bound,
    ):
        setattr(args, name, array.ctypes.data)
    if ranks is not None:
        bound.append(ranks)
        args.ranks = ranks.ctypes.data
    size = hi - lo
    layout = (
        ("keys", size), ("by_active", size), ("by_start", size),
        ("active_offsets", width + 1), ("start_offsets", width + 1),
        ("alive_at", width), ("cores_after", width), ("edges_after", width),
        ("target_active", len(target_ts)),
    )
    scratch = np.empty(sum(length for _name, length in layout), dtype=np.int64)
    address = scratch.ctypes.data
    for name, length in layout:
        setattr(args, name, address)
        address += scratch.itemsize * length

    walk = ctypes.byref(args)
    visits = kernels.count_init(walk)
    if visits < 0:
        raise ValueError(
            "malformed skyline cut: its windows must start inside [ts, te], "
            "in start order, each no later than it ends"
        )
    counted = 0
    try:
        if deadline is None:
            counted = kernels.count_visits(walk, visits)
        else:
            for _ in range(visits):
                if deadline.expired():
                    break
                counted += kernels.count_visits(walk, 1)
    finally:
        sink.add_counted(counted, args.num_results, args.total_edges)
    return counted == visits


def _schedule(
    starts: np.ndarray, ends: np.ndarray, actives: np.ndarray, ties: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The visit schedule and the splice order of a non-empty window slice.

    The visits are the distinct start times (Lemma 4).  The splice
    order sorts the windows by the visit they activate at (the first
    one at or after their activation time), then end, then activation
    time, then ``ties`` (non-negative, distinct; a cut passes its flat
    indices, which fix the order of the ids inside each emitted core):
    new windows land ahead of alive ones with the same end, as the
    oracle's roving cursor inserts them.  It is one sort of the keys
    packed into an int64, or ``np.lexsort`` when the packed key would
    overflow.
    """
    visits = unique_sorted(starts)
    visit_of = np.searchsorted(visits, actives)
    base = int(actives.min())
    width = int(ends.max()) - base + 1
    tie_width = int(ties.max()) + 1
    if len(visits) * width * width * tie_width >= 1 << 63:  # the packed key overflows
        return visits, np.lexsort((ties, actives, ends, visit_of))
    key = (visit_of * width + (ends - base)) * width + (actives - base)
    return visits, np.argsort(key * tie_width + ties)
