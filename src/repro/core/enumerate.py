"""Optimal temporal k-core enumeration (Algorithms 4 and 5).

Given the edge core window skyline, :func:`enumerate_temporal_kcores`
reports every distinct temporal k-core of the query range exactly once,
in time bounded by the total result size ``O(|R|)`` (Theorem 3):

* Per start time ``ts``, the window list ``L_ts`` (ascending end times)
  is scanned once (**AS-Output**, Algorithm 4).  Lemma 4 restricts start
  times to those where some minimal core window starts; Lemma 5 and
  Lemma 6 (the ``valid`` flag) characterise the end times, and Theorem 2
  proves each reported window is a genuine TTI — hence no duplicates.
* Between start times, ``L_ts`` is updated in place: windows whose start
  expired are cut, windows whose activation time arrived are spliced in
  (**Enum**, Algorithm 5).

The walk itself is the *columnar* core of the serving layer
(:mod:`repro.serve.columnar`), handed the range as a
:class:`~repro.core.windows.SkylineCut`: ``L_ts`` is an end-sorted run of flat arrays
updated by cuts and merges, and each start time's cores are emitted as
``(end, prefix-length)`` pairs into a result sink
(:mod:`repro.serve.sinks`), or only counted — no per-window Python
objects at all.  The seed linked-list enumerator is preserved verbatim in
:mod:`repro.core.enumerate_ref` as the oracle the property suite
checks this path against.
"""

from __future__ import annotations

from repro.core.coretime import compute_core_times
from repro.core.results import EnumerationResult
from repro.core.windows import EdgeCoreSkyline
from repro.errors import InvalidParameterError
from repro.graph.temporal_graph import TemporalGraph
from repro.serve.columnar import run_columnar_walk
from repro.serve.sinks import CountSink, MaterializingSink, ResultSink
from repro.obs.timing import Deadline


def enumerate_temporal_kcores(
    graph: TemporalGraph,
    k: int,
    ts: int | None = None,
    te: int | None = None,
    *,
    skyline: EdgeCoreSkyline | None = None,
    collect: bool = True,
    sink: ResultSink | None = None,
    deadline: Deadline | None = None,
) -> EnumerationResult:
    """Enumerate all distinct temporal k-cores of ``[ts, te]`` (Enum).

    Parameters
    ----------
    skyline:
        A precomputed edge core window skyline whose span *contains* the
        query range (for example the full-span skyline of a
        :class:`repro.core.index.CoreIndex`).  A wider skyline is
        restricted to the range in one vectorised cut (the flat run of the
        edges stamped inside the range, or the start-ordered columns of
        a counting walk) — minimal core windows are intrinsic to
        the graph, so the sub-range skyline is exactly the subset inside
        it.  When omitted, Algorithm 2 is run first over the query range.
    collect:
        When true (default), materialise every core; when false, only the
        counters of the returned :class:`EnumerationResult` are filled —
        this is the streaming mode the memory experiment (Fig. 12) uses.
    sink:
        Optional explicit :class:`~repro.serve.sinks.ResultSink` the
        emissions are delivered to (NDJSON, counters, ...).  Overrides
        ``collect``; the returned result carries the sink's counters.
    deadline:
        Optional soft deadline checked once per visited start time.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    ts_lo = 1 if ts is None else ts
    ts_hi = graph.tmax if te is None else te
    graph.check_window(ts_lo, ts_hi)

    if skyline is None:
        skyline = compute_core_times(graph, k, ts_lo, ts_hi).ecs
        assert skyline is not None
    elif (
        skyline.k != k
        or skyline.span[0] > ts_lo
        or skyline.span[1] < ts_hi
    ):
        raise InvalidParameterError(
            f"skyline computed for k={skyline.k}, span={skyline.span}; "
            f"query wants k={k}, span=({ts_lo}, {ts_hi}) — the skyline "
            "span must contain the query range"
        )

    if sink is None:
        sink = MaterializingSink() if collect else CountSink()
    cut = skyline.cut(ts_lo, ts_hi, graph, counting=sink.counting_targets() is not None)
    completed = run_columnar_walk(cut, sink, deadline=deadline)
    sink.finish(completed)
    return sink.result("enum", k, (ts_lo, ts_hi))
