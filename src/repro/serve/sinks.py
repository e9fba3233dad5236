"""Result sinks — where enumerated temporal k-cores go.

The columnar enumeration core (:mod:`repro.serve.columnar`) does not
build result objects.  Per start time ``ts`` it emits one *batch*: the
end-sorted run of edge ids alive at ``ts`` plus, for every reported
core, its TTI end and its prefix length into that run.  A
:class:`ResultSink` consumes those batches; what it does with them is
the delivery policy:

* :class:`MaterializingSink` — builds the back-compat
  :class:`~repro.core.results.EnumerationResult` with one
  :class:`~repro.core.results.TemporalKCore` per core;
* :class:`CallbackSink` — replays the historical streaming-callback
  protocol (``(ts, te, live_prefix_list)`` per core);
* :class:`CountSink` — counters only (``num_results`` / ``|R|``), no
  per-core Python objects at all;
* :class:`NDJSONSink` — one JSON line per core, written to a text
  stream one start time's batch at a time, so wide-window answers
  never reside in memory;
* :class:`FlatArraySink` — columnar accumulation: flat int64 TTI /
  length arrays plus the shared edge runs, the zero-object in-memory
  form for analytical post-processing.

Contract
--------

``emit(ts, ends, prefix_lens, eids)`` receives int64 ndarrays:
``ends`` ascending TTI end times of the cores reported at ``ts``,
``prefix_lens`` the matching prefix lengths, and ``eids`` the shared
end-sorted edge run — core ``i`` is ``eids[:prefix_lens[i]]`` with TTI
``(ts, ends[i])``.  The arrays are never mutated afterwards by the
producer, so sinks may keep (views of) them without copying.  Sinks
must not mutate them either.  ``finish(completed)`` is called exactly
once at the end of a walk (``completed=False`` after a deadline abort);
``result()`` packages the counters as an ``EnumerationResult``.

A sink that only counts may offer ``counting_targets()``: the compiled
walk then runs its counting kernel (the alive set as a histogram of
windows per end time, O(changes + width of the reported end range) per
visited start time instead of O(alive windows)), never calls ``emit``,
and credits the totals through ``add_counted`` before returning.
"""

from __future__ import annotations

from typing import IO

import numpy as np

from repro.core.native import FrameRenderer
from repro.core.results import EnumerationResult, ResultCallback, TemporalKCore

_EMPTY = np.empty(0, dtype=np.int64)
_NO_TARGETS = (_EMPTY, _EMPTY, _EMPTY, _EMPTY)


class ResultSink:
    """Base sink: counter accounting shared by every delivery policy.

    Subclasses override :meth:`consume` (called after the counters are
    updated) rather than :meth:`emit`, so ``num_results`` /
    ``total_edges`` stay consistent across sink kinds.
    """

    #: Whether the produced :class:`EnumerationResult` carries cores.
    collects = False

    def __init__(self) -> None:
        self.num_results = 0
        self.total_edges = 0
        self.completed = True

    def emit(
        self,
        ts: int,
        ends: np.ndarray,
        prefix_lens: np.ndarray,
        eids: np.ndarray,
    ) -> None:
        """Account one per-``ts`` batch and hand it to :meth:`consume`."""
        self.num_results += len(ends)
        self.total_edges += int(prefix_lens.sum())
        self.consume(ts, ends, prefix_lens, eids)

    def consume(
        self,
        ts: int,
        ends: np.ndarray,
        prefix_lens: np.ndarray,
        eids: np.ndarray,
    ) -> None:
        """Deliver one batch (counters already updated).  Default: drop."""

    def counting_targets(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """What a compiled walk may count in place of :meth:`emit`.

        ``None`` (the default): the sink needs every batch.  Otherwise
        ``(ts, te, num, edges)``: int64 target ranges sorted by ``ts``
        and per-target accumulators.  The counting kernel adds into
        them, at every visited start time ``t`` with ``ts <= t <= te``,
        the count and edge total of the cores ending by ``te`` (the
        slice router's routing, two lookups per target), then reports
        its totals and visits through :meth:`add_counted`.  ``num`` and
        ``edges`` are written in place, so they must be C-contiguous
        int64; ``ts`` and ``te`` are only compared with the slice's
        times, so any int64 values will do.
        """
        return None

    def add_counted(self, batches: int, num_results: int, total_edges: int) -> None:
        """Account ``batches`` batches a compiled walk counted (see above)."""
        self.num_results += num_results
        self.total_edges += total_edges

    def finish(self, completed: bool) -> None:
        """Mark the end of the walk feeding this sink."""
        self.completed = self.completed and completed

    def result(
        self, algorithm: str, k: int, time_range: tuple[int, int]
    ) -> EnumerationResult:
        """The counters (and any collected cores) as an ``EnumerationResult``."""
        return EnumerationResult(
            algorithm,
            k,
            time_range,
            num_results=self.num_results,
            total_edges=self.total_edges,
            completed=self.completed,
        )


class CountSink(ResultSink):
    """Counters only — the batch/streaming default (``collect=False``)."""

    def counting_targets(self):
        # No targets, only the walk's totals; a subclass may deliver
        # batches, so it takes the emit path.
        return _NO_TARGETS if type(self) is CountSink else None


class MaterializingSink(ResultSink):
    """Materialise every core — the back-compat ``collect=True`` sink."""

    collects = True

    def __init__(self) -> None:
        super().__init__()
        self.cores: list[TemporalKCore] = []

    def consume(self, ts, ends, prefix_lens, eids) -> None:
        run = eids.tolist()
        for te, n in zip(ends.tolist(), prefix_lens.tolist()):
            self.cores.append(TemporalKCore((ts, te), tuple(run[:n])))

    def result(self, algorithm, k, time_range) -> EnumerationResult:
        out = super().result(algorithm, k, time_range)
        out.cores = self.cores
        return out


class CallbackSink(ResultSink):
    """Replay the historical ``(ts, te, live_prefix)`` callback protocol.

    The callback receives a *live, growing* list per start time (the
    documented :data:`~repro.core.results.ResultCallback` contract) —
    consumers that retain it must copy, exactly as before.
    """

    def __init__(self, callback: ResultCallback) -> None:
        super().__init__()
        self.callback = callback

    def consume(self, ts, ends, prefix_lens, eids) -> None:
        run = eids.tolist()
        prefix: list[int] = []
        for te, n in zip(ends.tolist(), prefix_lens.tolist()):
            prefix.extend(run[len(prefix):n])
            self.callback(ts, te, prefix)


class TeeSink(ResultSink):
    """Fan one emission stream out to several sinks.

    The tee keeps its own counters (so ``result()`` works) and forwards
    every batch and the final ``finish`` to each target.
    """

    def __init__(self, *sinks: ResultSink) -> None:
        super().__init__()
        self.sinks = sinks
        self.collects = any(s.collects for s in sinks)

    def consume(self, ts, ends, prefix_lens, eids) -> None:
        for sink in self.sinks:
            sink.emit(ts, ends, prefix_lens, eids)

    def finish(self, completed: bool) -> None:
        super().finish(completed)
        for sink in self.sinks:
            sink.finish(completed)

    def result(self, algorithm, k, time_range) -> EnumerationResult:
        for sink in self.sinks:
            if sink.collects:
                return sink.result(algorithm, k, time_range)
        return super().result(algorithm, k, time_range)


class NDJSONSink(ResultSink):
    """Stream one JSON object per core to a text stream, as produced.

    Lines look like ``{"tti": [2, 5], "num_edges": 3, "edge_ids": [...]}``;
    ``edge_ids=False`` drops the id list (TTI + size only), which keeps
    each line O(1) regardless of core size.  Each start time's batch is
    rendered by one compiled call (:class:`~repro.core.native.FrameRenderer`):
    the batch's edge run becomes decimal text once, every core's id list
    is a prefix of that text, and the batch's lines reach the stream in
    one ``write`` of whole lines.  Buffering is bounded by one start
    time's batch — peak memory does not grow with the result set.
    """

    def __init__(self, stream: IO[str], *, edge_ids: bool = True) -> None:
        super().__init__()
        self.stream = stream
        self.edge_ids = edge_ids
        self._frames = FrameRenderer(edge_ids=edge_ids)

    def consume(self, ts, ends, prefix_lens, eids) -> None:
        if len(ends):
            self.stream.write(str(self._frames.render(ts, ends, prefix_lens, eids), "ascii"))


class FlatArraySink(ResultSink):
    """Accumulate results columnar: flat int64 arrays, zero Python objects.

    Cores are *not* expanded: each per-``ts`` batch stores its shared
    edge run once, and every core records ``(ts, te, run_id, length)``
    — core ``i`` is ``runs[run_id[i]][:lengths[i]]``.  Total memory is
    ``O(sum of run lengths + num cores)``, typically far below the
    ``O(|R|)`` of materialised prefixes.  :meth:`arrays` exposes the
    columns; :meth:`iter_cores` re-expands lazily.
    """

    def __init__(self) -> None:
        super().__init__()
        self.runs: list[np.ndarray] = []
        self._ts_chunks: list[np.ndarray] = []
        self._te_chunks: list[np.ndarray] = []
        self._len_chunks: list[np.ndarray] = []
        self._run_chunks: list[np.ndarray] = []

    def consume(self, ts, ends, prefix_lens, eids) -> None:
        run_id = len(self.runs)
        self.runs.append(eids)
        n = len(ends)
        self._ts_chunks.append(np.full(n, ts, dtype=np.int64))
        self._te_chunks.append(np.asarray(ends, dtype=np.int64))
        self._len_chunks.append(np.asarray(prefix_lens, dtype=np.int64))
        self._run_chunks.append(np.full(n, run_id, dtype=np.int64))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(tti_start, tti_end, length, run_id)`` flat int64 columns."""
        if not self._ts_chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy(), empty.copy()
        return (
            np.concatenate(self._ts_chunks),
            np.concatenate(self._te_chunks),
            np.concatenate(self._len_chunks),
            np.concatenate(self._run_chunks),
        )

    def iter_cores(self):
        """Yield ``(ts, te, edge_id_array)`` per core (views, do not mutate)."""
        for ts_arr, te_arr, len_arr, run_arr in zip(
            self._ts_chunks, self._te_chunks, self._len_chunks, self._run_chunks
        ):
            for ts, te, n, run_id in zip(
                ts_arr.tolist(), te_arr.tolist(), len_arr.tolist(), run_arr.tolist()
            ):
                yield ts, te, self.runs[run_id][:n]


def make_sink(
    *, collect: bool, on_result: ResultCallback | None = None
) -> ResultSink:
    """The default sink for ``(collect, on_result)`` façade arguments."""
    base: ResultSink = MaterializingSink() if collect else CountSink()
    if on_result is None:
        return base
    if collect:
        return TeeSink(base, CallbackSink(on_result))
    return CallbackSink(on_result)
