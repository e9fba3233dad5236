"""The baseline skyline-driven enumerator (Algorithm 3, EnumBase).

EnumBase already exploits the edge core window skyline (Lemma 3: an edge
belongs to the core of ``[ts, te]`` iff one of its minimal core windows is
contained in ``[ts, te]``) but still visits ``O(tmax^2)`` windows and
de-duplicates cores by hashing their full edge sets — the two drawbacks
Section V-A calls out and the final Enum algorithm removes.  It is kept
both as the paper's comparison point and as an independently-implemented
cross-check of Enum.
"""

from __future__ import annotations

from repro.core.coretime import compute_core_times
from repro.core.results import EnumerationResult
from repro.core.windows import EdgeCoreSkyline
from repro.errors import InvalidParameterError
from repro.graph.temporal_graph import TemporalGraph
from repro.obs.timing import Deadline


def enumerate_temporal_kcores_base(
    graph: TemporalGraph,
    k: int,
    ts: int | None = None,
    te: int | None = None,
    *,
    skyline: EdgeCoreSkyline | None = None,
    collect: bool = True,
    deadline: Deadline | None = None,
    max_stored_edges: int | None = None,
) -> EnumerationResult:
    """Enumerate all distinct temporal k-cores with EnumBase (Algorithm 3).

    For every start time, edges are scattered into end-time buckets via
    the first skyline window starting at or after ``ts``; scanning end
    times in ascending order accumulates the core of ``[ts, te]``, and a
    hash table over edge sets suppresses duplicates found at multiple
    windows.  The hash table is what makes this baseline memory-hungry
    (Figure 12).

    ``max_stored_edges`` caps the total number of edge ids retained in
    the de-duplication table; exceeding it aborts the run with
    ``completed=False`` — the graceful version of the out-of-memory
    failures the paper reports for this baseline on large workloads.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    ts_lo = 1 if ts is None else ts
    ts_hi = graph.tmax if te is None else te
    graph.check_window(ts_lo, ts_hi)

    if skyline is None:
        skyline = compute_core_times(graph, k, ts_lo, ts_hi).ecs
        assert skyline is not None
    elif skyline.span != (ts_lo, ts_hi) or skyline.k != k:
        raise InvalidParameterError(
            f"skyline computed for k={skyline.k}, span={skyline.span}; "
            f"query wants k={k}, span=({ts_lo}, {ts_hi})"
        )

    result = EnumerationResult("enumbase", k, (ts_lo, ts_hi))
    if collect:
        result.cores = []
    # Edges with at least one minimal core window, with a cursor over
    # their (start-time-ordered) skyline; cursors only advance as the
    # start time grows.
    tracked: list[tuple[int, tuple[tuple[int, int], ...]]] = [
        (eid, skyline.windows_of(eid))
        for eid in range(skyline.num_edges)
        if skyline.windows_of(eid)
    ]
    cursors = [0] * len(tracked)
    edge_t = graph.edge_columns()[2].tolist()
    seen: set[frozenset[int]] = set()
    stored_edges = 0
    span = ts_hi - ts_lo + 1

    for current_ts in range(ts_lo, ts_hi + 1):
        if deadline is not None and deadline.expired():
            result.completed = False
            break
        if max_stored_edges is not None and stored_edges > max_stored_edges:
            result.completed = False
            break
        buckets: list[list[int]] = [[] for _ in range(span)]
        for index, (eid, windows) in enumerate(tracked):
            cursor = cursors[index]
            # First window with start >= current_ts (Algorithm 3 line 5).
            while cursor < len(windows) and windows[cursor][0] < current_ts:
                cursor += 1
            cursors[index] = cursor
            if cursor < len(windows):
                buckets[windows[cursor][1] - ts_lo].append(eid)
        accumulated: list[int] = []
        min_t = ts_hi + 1
        max_t = ts_lo - 1
        for offset in range(current_ts - ts_lo, span):
            bucket = buckets[offset]
            if not bucket:
                continue
            accumulated.extend(bucket)
            for eid in bucket:
                t = edge_t[eid]
                if t < min_t:
                    min_t = t
                if t > max_t:
                    max_t = t
            identity = frozenset(accumulated)
            if identity in seen:
                continue
            seen.add(identity)
            stored_edges += len(identity)
            if max_stored_edges is not None and stored_edges > max_stored_edges:
                result.completed = False
                return result
            # The TTI of the accumulated core is spanned by its edge times
            # (Definition 3), not by the probe window [current_ts, te].
            result.record(min_t, max_t, accumulated, collect)
    return result
