"""Result sinks — where enumerated temporal k-cores go.

The columnar enumeration core (:mod:`repro.serve.columnar`) does not
build result objects.  Per start time ``ts`` it emits one *batch*: the
end-sorted run of edge ids alive at ``ts`` plus, for every reported
core, its TTI end and its prefix length into that run.  A
:class:`ResultSink` consumes those batches; what it does with them is
the delivery policy:

* :class:`CountSink` — counters only (``num_results`` / ``|R|``), no
  per-core Python objects at all: the batch default, and the only
  sink whose requests share a covering window;
* :class:`MaterializingSink` — builds the
  :class:`~repro.core.results.EnumerationResult` with one
  :class:`~repro.core.results.TemporalKCore` per core (``collect=True``
  on the façades);
* :class:`NDJSONSink` — one JSON line per core, written to a text
  stream one start time's batch at a time, so wide-window answers
  never reside in memory (``repro query --output ndjson``; the
  daemon's streamed queries render the same bytes).

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
from repro.core.results import EnumerationResult, TemporalKCore

_EMPTY = np.empty(0, dtype=np.int64)
_NO_TARGETS = (_EMPTY, _EMPTY, _EMPTY, _EMPTY)


class ResultSink:
    """Base sink: counter accounting shared by every delivery policy.

    Subclasses override :meth:`consume` (called after the counters are
    updated) rather than :meth:`emit`, so ``num_results`` /
    ``total_edges`` stay consistent across sink kinds.
    """

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
        the count and edge total of the cores ending by ``te`` (two
        lookups per target), then reports
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
    """Counters only — the batch default (``collect=False``)."""

    def counting_targets(self):
        # No targets, only the walk's totals; a subclass may deliver
        # batches, so it takes the emit path.
        return _NO_TARGETS if type(self) is CountSink else None


class MaterializingSink(ResultSink):
    """Materialise every core — the ``collect=True`` sink."""

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
