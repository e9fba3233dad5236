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

Each visited start time is one call of the compiled step
(``repro_walk_step`` in ``core/_fixpoint.c``, see
:mod:`repro.core.native`); the deadline is polled before each.  A sink
that offers :meth:`~repro.serve.sinks.ResultSink.counting_targets` (a
bare :class:`~repro.serve.sinks.CountSink`, or a slice router whose
targets all are) is counted in C, so a counting walk never builds a
per-step array in Python.  The numpy walk (:func:`_walk_numpy`: a
boolean compress for the cut, ``searchsorted`` + ``np.insert`` for the
merge) runs when the library cannot be built, and is the compiled
walk's oracle: the two emit entry-identical batches at every step.

Emission order, duplicate-freedom and the reported TTIs are exactly
the oracle's; only the intra-core edge order may differ within groups
of equal end times (the emitted prefix at a group boundary contains
the whole group either way).  The property suite asserts per-core
TTI + edge-set identity against the oracle.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.core import native
from repro.serve.sinks import ResultSink
from repro.utils.arrays import unique_sorted
from repro.obs.timing import Deadline

_EMPTY = np.empty(0, dtype=np.int64)


def run_columnar_walk(
    ts_lo: int,
    ts_hi: int,
    arrays: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    sink: ResultSink,
    *,
    deadline: Deadline | None = None,
) -> bool:
    """Enumerate the cores of ``[ts_lo, ts_hi]`` into ``sink``.

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
    if kernels is None:
        return _walk_numpy(arrays, sink, deadline)
    return _walk_compiled(kernels.walk_step, arrays, sink, deadline)


def _walk_compiled(walk_step, arrays, sink: ResultSink, deadline) -> bool:
    """The walk as one ``repro_walk_step`` call per visited start time.

    The splice order (visit a window activates at, then end, then
    activation) is sorted once, so each step's incoming windows are one
    contiguous run.  A sink offering :meth:`~ResultSink.counting_targets`
    is counted in C and credited once, when the walk returns or aborts;
    any other sink receives fresh copies of each step's arrays, entry
    for entry what :func:`_walk_numpy` emits.
    """
    eids, starts, ends, actives = arrays
    size = len(eids)
    visits, order = _schedule(starts, ends, actives)
    targets = sink.counting_targets()
    args = native.WalkArgs(size=size)
    bound: list[np.ndarray] = []  # holds every bound address valid

    def bind(name: str, array: np.ndarray) -> np.ndarray:
        if array.dtype != np.int64 or not array.flags.c_contiguous:
            raise TypeError("the compiled walk needs C-contiguous int64 arrays")
        bound.append(array)
        setattr(args, name, array.ctypes.data)
        return array

    for name, array in zip(("eid", "start", "end", "active", "order"), (*arrays, order)):
        bind(name, array)
    for name in ("end_0", "start_0", "end_1", "start_1", "out_cum"):
        bind(name, np.empty(size, dtype=np.int64))
    out_end = bind("out_end", np.empty(size, dtype=np.int64))
    out_len = bind("out_len", np.empty(size, dtype=np.int64))
    if targets is None:
        alive_eids = [bind(name, np.empty(size, dtype=np.int64)) for name in ("eid_0", "eid_1")]
    else:
        for name, array in zip(("target_ts", "target_te", "target_num", "target_edges"), targets):
            bind(name, array)
        args.targets = len(targets[0])
        bind("target_active", np.empty(args.targets, dtype=np.int64))

    step = ctypes.byref(args)
    completed = True
    steps = 0
    try:
        for t in visits.tolist():
            if deadline is not None and deadline.expired():
                completed = False
                break
            cores = walk_step(step, t)
            steps += 1
            if targets is None:
                sink.emit(
                    t,
                    out_end[:cores].copy(),
                    out_len[:cores].copy(),
                    alive_eids[args.cur][: args.alive].copy(),
                )
    finally:
        if targets is not None:
            sink.add_counted(steps, args.num_results, args.total_edges)
    return completed


def _schedule(
    starts: np.ndarray, ends: np.ndarray, actives: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The visit schedule and the splice order of a non-empty window slice.

    The visits are the distinct start times (Lemma 4).  The splice
    order sorts the windows by the visit they activate at (the first
    one at or after their activation time), then end, then activation
    time, ties in slice order: the order :func:`_walk_numpy` splices
    them in.  It is one sort of the four keys packed into an int64, or
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


def _walk_numpy(arrays, sink: ResultSink, deadline) -> bool:
    """The walk as numpy array operations — fallback and test oracle."""
    eids, starts, ends, actives = arrays
    # Activation order drives the batched splice-in; the unique start
    # times drive the visit schedule (Lemma 4).
    by_active = np.argsort(actives, kind="stable")
    actives_sorted = actives[by_active]
    emit_times = unique_sorted(starts)

    alive_ends = _EMPTY
    alive_starts = _EMPTY
    alive_eids = _EMPTY
    act_pos = 0
    prev_t: int | None = None
    for t in emit_times.tolist():
        if deadline is not None and deadline.expired():
            return False
        # Cut: windows whose start time was the previous visited start
        # expired the step after it (no other start lies in between).
        if prev_t is not None:
            keep = alive_starts != prev_t
            if not keep.all():
                alive_ends = alive_ends[keep]
                alive_starts = alive_starts[keep]
                alive_eids = alive_eids[keep]
        # Merge: windows with activation time in (prev_t, t], pre-sorted
        # by end, spliced at their searchsorted positions (stable: new
        # entries land before existing equal-end entries, like the
        # oracle's roving cursor).
        hi = int(np.searchsorted(actives_sorted, t, side="right"))
        if hi > act_pos:
            incoming = by_active[act_pos:hi]
            act_pos = hi
            incoming = incoming[np.argsort(ends[incoming], kind="stable")]
            incoming_ends = ends[incoming]
            if len(alive_ends):
                positions = np.searchsorted(
                    alive_ends, incoming_ends, side="left"
                )
                alive_ends = np.insert(alive_ends, positions, incoming_ends)
                alive_starts = np.insert(
                    alive_starts, positions, starts[incoming]
                )
                alive_eids = np.insert(alive_eids, positions, eids[incoming])
            else:
                alive_ends = incoming_ends
                alive_starts = starts[incoming]
                alive_eids = eids[incoming]
        # AS-Output: the first entry starting exactly at t flips the
        # valid flag (Lemma 6); every end-group boundary from there on
        # reports one core as a prefix of the shared end-sorted run.
        # t is some window's start time and that window is alive (its
        # activation time never exceeds its start time), so a True
        # exists for argmax to find.
        p0 = int(np.argmax(alive_starts == t))
        suffix = alive_ends[p0:]
        boundary = np.empty(len(suffix), dtype=bool)
        boundary[-1] = True
        np.not_equal(suffix[1:], suffix[:-1], out=boundary[:-1])
        emit_pos = np.flatnonzero(boundary) + p0
        sink.emit(t, alive_ends[emit_pos], emit_pos + 1, alive_eids)
        prev_t = t
    return True
