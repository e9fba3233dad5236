"""The columnar enumeration core — Algorithm 5 without linked lists.

The seed enumerator (kept as the oracle in
:mod:`repro.core.enumerate_ref`) maintains ``L_ts`` as a doubly linked
list of per-window Python objects and walks it cell by cell.  This
module replaces both with flat arrays over the ``(eid, start, end,
active)`` window slice the skyline hands over:

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
:class:`~repro.serve.sinks.CountSink`, or a slice router whose targets
all are) takes the counting kernel (``repro_count_init``, then
``repro_count_visits``) instead.  It holds ``L_ts`` as a histogram of
window counts per end time: a visit adds and removes one bucket each
of a per-walk counting sort by activation and by start, and the cores
at ``t`` are the distinct alive ends at or above ``e0``, the least end
of a window starting at ``t``, the one ending at ``e`` holding every
alive window that ends by ``e``.  One descending scan from the top end
to ``e0`` counts them and leaves each slice-router target's count two
lookups away: O(changes + width of ``[e0, top]``) per visit.  The
histogram is indexed by time, so a slice whose time span exceeds
``2 * size + 64`` (raw timestamps) is counted over the ranks of its
times.  Either way the deadline is polled before every visit.

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
from repro.serve.sinks import ResultSink
from repro.utils.arrays import unique_sorted
from repro.obs.timing import Deadline


def run_columnar_walk(
    arrays: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    sink: ResultSink,
    *,
    deadline: Deadline | None = None,
) -> bool:
    """Enumerate the cores of a window slice into ``sink``.

    ``arrays`` is the columnar ``(eid, start, end, active)`` window
    slice for the range (:meth:`EdgeCoreSkyline.active_window_arrays
    <repro.core.windows.EdgeCoreSkyline.active_window_arrays>`).
    Returns ``True`` when the walk ran to completion, ``False`` on a
    deadline abort (the sink then holds the results of every start
    time finished before the abort).  The caller is responsible for
    calling ``sink.finish`` with the returned flag.
    """
    if not len(arrays[0]):
        return True
    kernels = native.library()
    if any(part.dtype != np.int64 or not part.flags.c_contiguous for part in arrays):
        raise TypeError("the compiled walk needs C-contiguous int64 arrays")
    targets = sink.counting_targets()
    if targets is None:
        return _walk_compiled(kernels.walk_step, arrays, sink, deadline)
    return _count_compiled(kernels, arrays, targets, sink, deadline)


def _walk_compiled(walk_step, arrays, sink: ResultSink, deadline) -> bool:
    """The emitting walk as one ``repro_walk_step`` call per visited start time.

    The splice order (visit a window activates at, then end, then
    activation) is sorted once, so each step's incoming windows are one
    contiguous run.  The sink receives fresh copies of each step's
    arrays.
    """
    size = len(arrays[0])
    visits, order = _schedule(*arrays[1:])
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


def _count_compiled(kernels, arrays, targets, sink: ResultSink, deadline) -> bool:
    """The counting walk: ``repro_count_init``, then ``repro_count_visits``.

    The kernel indexes its histograms by time, so a slice whose span is
    at most ``2 * size + 64`` is counted over its own times, offset by
    the least activation; a wider one (raw timestamps) over the ranks
    of its distinct times, with the targets' bounds mapped to the ranks
    that keep every comparison the kernel makes.  One call counts the
    whole walk, or, under a deadline, one call per visited start time
    after each poll.  The sink is credited once, when the walk returns
    or aborts.
    """
    times = arrays[1:]
    target_ts, target_te, target_num, target_edges = targets
    size = len(arrays[0])
    lo, hi = int(times[2].min()), int(times[1].max())
    if hi - lo < 2 * size + 64:
        base, width = lo, hi - lo + 1
        target_ts, target_te = (
            np.clip(bounds, lo - 1, hi + 1) - lo for bounds in (target_ts, target_te)
        )
    else:
        distinct = unique_sorted(np.concatenate(times))
        times = [np.searchsorted(distinct, part) for part in times]
        base, width = 0, len(distinct)
        target_ts = np.searchsorted(distinct, target_ts)
        target_te = np.searchsorted(distinct, target_te, side="right") - 1
    args = native.CountArgs(size=size, base=base, width=width, targets=len(target_ts))
    bound = [*times, target_ts, target_te, target_num, target_edges]
    for name, array in zip(
        ("start", "end", "active", "target_ts", "target_te", "target_num", "target_edges"),
        bound,
    ):
        setattr(args, name, array.ctypes.data)
    for name, length in (
        ("by_active", size), ("active_offsets", width + 1),
        ("by_start", size), ("start_offsets", width + 1),
        ("alive_at", width), ("cores_after", width), ("edges_after", width),
        ("target_active", len(target_ts)),
    ):
        bound.append(np.empty(length, dtype=np.int64))
        setattr(args, name, bound[-1].ctypes.data)

    walk = ctypes.byref(args)
    visits = kernels.count_init(walk)
    if visits < 0:
        raise ValueError("window slice needs activation <= start <= end")
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
    starts: np.ndarray, ends: np.ndarray, actives: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The visit schedule and the splice order of a non-empty window slice.

    The visits are the distinct start times (Lemma 4).  The splice
    order sorts the windows by the visit they activate at (the first
    one at or after their activation time), then end, then activation
    time, ties in slice order: new windows land ahead of alive ones
    with the same end, as the oracle's roving cursor inserts them.  It
    is one sort of the four keys packed into an int64, or
    ``np.lexsort`` when the packed key would overflow.
    """
    size = len(starts)
    visits = unique_sorted(starts)
    visit_of = np.searchsorted(visits, actives)
    base = int(actives.min())
    width = int(ends.max()) - base + 1
    if len(visits) * width * width * size >= 1 << 63:  # the packed key overflows
        return visits, np.lexsort((actives, ends, visit_of))
    key = (visit_of * width + (ends - base)) * width + (actives - base)
    return visits, np.argsort(key * size + np.arange(size))
