"""Frontier delta-folds: incremental VCT/ECS maintenance for appends.

The streaming service ingests edges in raw-timestamp order, so a pending
batch is always a *frontier*: every new edge is stamped at or past the
end of the built span.  The paper leaves insertion maintenance to future
work, but the structure it proves makes the ordered-append case
tractable — this module folds a frontier batch into existing multi-k
indexes without a full rebuild, producing arrays **entry-identical** to
``build_core_indexes`` over the concatenated edge list.

Why frontier appends cannot rewrite history (the immutability argument,
spelled out in ``docs/STREAMING.md``):

* A finite core time ``CT_ts(v) = c`` is witnessed by the window
  ``[ts, c]`` with ``c <= T`` (the old span end).  Appended edges are
  stamped ``> T``, so they enter no window ending at or before ``T`` —
  the witness stands, and no window ending earlier gains edges that
  could shrink ``c``.  Finite VCT entries are immutable; only
  previously-*infinite* ``(vertex, start)`` cells can change (they may
  become finite at some time ``> T``), plus the brand-new start region
  ``(T, T']``.
* An ECS window ``[t1, t2]`` with ``t2 <= T`` is decided by core times
  at starts ``t1`` and ``t1 + 1``, all finite or provably unchanged —
  the per-edge skyline only *extends on the right* (bi-monotone).

The fold therefore:

1. **grows** the graph with :meth:`TemporalGraph.with_edges
   <repro.graph.temporal_graph.TemporalGraph.with_edges>` (the batch's
   columns follow the old ones, no re-sort) and compiles it afresh: the
   :class:`~repro.graph.csr.CompiledGraph` every fresh graph gets, a
   few O(m) counting passes;
2. computes the **fold start** ``s_A``: the earliest start time at which
   any vertex's core time can differ, by a bounded Dijkstra-style
   cascade from the new edges' endpoints over per-(vertex, level)
   change-eligibility intervals derived from the old VCT arrays;
3. reruns the shared multi-k kernel on the **sub-span** ``[s_A, T']``
   only (:func:`repro.core.multik.compute_core_times_multi` — the same
   compiled build pass, seeded by the decremental scan over the affected
   window), which is exact there because ``CT_ts`` depends only on edges
   stamped in ``[ts, T']``;
4. **merges** each level's old and sub-span arrays with one splice per
   side (:func:`_splice`: one compiled ``repro_splice`` call): old
   entries with start (or window ``t1``) before ``s_A`` are kept,
   sub-span entries replace the rest, with two boundary corrections for
   VCT (drop the sub-span's first entry when the value did not actually
   change at ``s_A``; insert an explicit ``(s_A, INF)`` transition when
   a vertex's finite prefix ends exactly there) and one for ECS (a new
   edge whose endpoints' finite prefixes end below ``s_A`` contributes
   one minimal window closing at the boundary, synthesised directly).
   The cut, drop, insert and pre-window decisions stay in numpy.

Batches that violate the frontier precondition fall back to a full
rebuild via :class:`FoldFallback` — the fold is *never wrong, only
sometimes refused*: a batch sharing the built graph's last raw timestamp
(its sorted position would reshuffle existing edge ids), an oversized
cascade, or a fold window above the caller's cost-model fraction.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Hashable, Iterable
from dataclasses import dataclass

import numpy as np

from repro.core import native
from repro.core.coretime import INF_CT, CoreTimeResult, VertexCoreTimeIndex
from repro.core.index import CoreIndex
from repro.core.windows import EdgeCoreSkyline
from repro.graph.csr import CompiledGraph
from repro.graph.temporal_graph import TemporalGraph

#: Sentinel "no change possible before this start" — beyond any span.
_FAR = 1 << 60

#: Default ceiling on the change-cascade exploration (vertices settled).
DEFAULT_MAX_CASCADE = 200_000


class FoldFallback(Exception):
    """The batch cannot be folded incrementally; rebuild in full.

    Carries ``reason`` — a short machine-readable token (``"boundary-tie"``,
    ``"empty-base"``, ``"cascade-limit"``, ``"window-fraction"``, ...)
    surfaced through service stats.  Falling back is always safe: the
    full rebuild recomputes from the complete edge list.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class FoldReport:
    """What one incremental fold did (attached to the fold result)."""

    delta_edges: int
    new_vertices: int
    fold_start: int
    span_end: int
    window_edges: int
    window_fraction: float
    cascade_vertices: int
    seconds: float = 0.0


@dataclass
class FoldResult:
    """An extended graph + merged indexes, entry-identical to a rebuild."""

    graph: TemporalGraph
    indexes: dict[int, CoreIndex]
    report: FoldReport


# ----------------------------------------------------------------------
# Step 1: the grown graph
# ----------------------------------------------------------------------


def extend_graph(
    graph: TemporalGraph,
    batch: Iterable[tuple[Hashable, Hashable, int]],
) -> TemporalGraph:
    """Extend a normalised graph with strictly-newer raw-timestamped edges.

    Returns ``graph.with_edges(batch)``, which equals
    ``TemporalGraph(old_raw + batch)``.  Every batch timestamp is
    strictly greater than the old last raw time, so the old edges keep
    their ids and the batch's are the ids from ``graph.num_edges`` on;
    the extended graph compiles afresh on first use
    (:meth:`TemporalGraph.compiled`).  ``graph`` itself comes back for a
    batch of nothing at all.

    Raises :class:`FoldFallback` when the precondition fails:
    ``"empty-base"`` (nothing built yet), ``"unnormalised-graph"``
    (``normalize_time=False`` graphs have no raw-time table), or
    ``"boundary-tie"`` (a batch edge shares the built graph's last raw
    timestamp, or comes earlier — its sorted position would interleave
    before existing edges and reshuffle their ids).
    """
    if graph.num_edges == 0:
        raise FoldFallback("empty-base")
    if not graph._raw_times:
        raise FoldFallback("unnormalised-graph")
    extended = graph.with_edges(batch)
    m = graph.num_edges
    if extended.num_edges > m:
        # The first edge past the old ids is a batch edge unless one sorted earlier.
        first_new = int(extended.edge_columns()[2][m])
        if extended.raw_time_of(first_new) <= graph._raw_times[-1]:
            raise FoldFallback("boundary-tie")
    elif extended.num_dropped_self_loops == graph.num_dropped_self_loops:
        return graph
    return extended


# ----------------------------------------------------------------------
# Step 2: the fold start — where can core times differ at all?
# ----------------------------------------------------------------------


def _first_inf_by_level(
    indexes: dict[int, CoreIndex], ks: list[int], n2: int, old_tmax: int
) -> dict[int, np.ndarray]:
    """Per level: the first start where each vertex's old core time is INF.

    Core times are monotone nondecreasing in the start, so every vertex
    is finite on a (possibly empty) *prefix* of starts and infinite
    after; the old VCT encodes that boundary as the start of a trailing
    ``INF`` entry.  Vertices with no entries were never in the k-core
    (boundary 1); vertices whose last entry is finite stay finite
    through the whole old span (boundary ``old_tmax + 1``).  New
    vertices (ids past the old count) get boundary 1.
    """
    out: dict[int, np.ndarray] = {}
    for k in ks:
        offsets, starts, cts = indexes[k].vct.flat_parts()
        n_old = offsets.shape[0] - 1
        first_inf = np.ones(n2, dtype=np.int64)
        counts = offsets[1:] - offsets[:-1]
        holders = np.flatnonzero(counts > 0)
        if holders.shape[0]:
            last = offsets[holders + 1] - 1
            first_inf[holders] = np.where(
                cts[last] == INF_CT, starts[last], old_tmax + 1
            )
        out[k] = first_inf
    return out


def _fold_start(
    cg2: CompiledGraph,
    first_inf: dict[int, np.ndarray],
    ks: list[int],
    batch: tuple[np.ndarray, np.ndarray, np.ndarray],
    old_tmax: int,
    *,
    max_cascade: int,
) -> tuple[int, int]:
    """Earliest start where any core time can change, via a bounded cascade.

    Per (vertex, level), changes are confined to starts in
    ``[first_inf, reach]`` where ``reach`` is the level-k-th largest
    last-pair-time in the extended graph (past it the vertex lacks k
    active pairs and stays infinite; finite old values are immutable, so
    below ``first_inf`` nothing moves either — and the old finite prefix
    forces ``reach >= first_inf - 1``, so an empty interval proves the
    vertex unchanged at that level).  A change propagates from ``x`` to
    a neighbour ``w`` only at a shared start where the pair is still
    active, so running Dijkstra from the new edges' endpoints over
    ``L(w) = max(L(x), f(w))`` edges (gated by each pair's last time)
    settles every potentially-affected vertex at the earliest start it
    can change.  Starts past ``old_tmax`` are always recomputed by the
    sub-span run, so candidates there are pruned immediately.

    Returns ``(fold_start, settled_count)``; raises
    :class:`FoldFallback` (``"cascade-limit"``) when the exploration
    exceeds ``max_cascade`` settled vertices.
    """
    adj_offsets = cg2.adj_offsets
    degree = adj_offsets[1:] - adj_offsets[:-1]
    n2 = degree.shape[0]
    # The last time of each adjacency slot's pair, and per vertex its
    # slots' last times in descending order (one composite-key sort).
    slot_last = cg2.pair_times[cg2.slot_times_end - 1]
    owner = np.repeat(np.arange(n2, dtype=np.int64), degree)
    stride = cg2.tmax + 2
    descending = slot_last[np.argsort(owner * stride - slot_last)]
    # f_eff: per vertex, the earliest first_inf over the levels whose
    # change interval [first_inf, reach] is non-empty.
    f_eff = np.full(n2, _FAR, dtype=np.int64)
    for k in ks:
        has_k = degree >= k
        reach = np.zeros(n2, dtype=np.int64)
        reach[has_k] = descending[adj_offsets[:-1][has_k] + k - 1]
        fi = first_inf[k]
        np.minimum(f_eff, np.where(fi <= reach, fi, _FAR), out=f_eff)
    f_eff = f_eff.tolist()
    offsets = adj_offsets.tolist()
    neighbour = cg2.adj_neighbour.tolist()
    slot_last = slot_last.tolist()

    tentative: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    for w in set(batch[0].tolist()) | set(batch[1].tolist()):
        f = f_eff[w]
        if f <= old_tmax:
            tentative[w] = f
            heapq.heappush(heap, (f, w))
    settled: set[int] = set()
    fold_start = old_tmax + 1
    while heap:
        lw, w = heapq.heappop(heap)
        if w in settled:
            continue
        settled.add(w)
        if len(settled) > max_cascade:
            raise FoldFallback("cascade-limit")
        if lw < fold_start:
            fold_start = lw
        for slot in range(offsets[w], offsets[w + 1]):
            x = neighbour[slot]
            if x in settled:
                continue
            fx = f_eff[x]
            candidate = lw if lw > fx else fx
            if candidate > old_tmax:
                continue
            if candidate > slot_last[slot]:
                continue  # pair inactive at every start the change reaches
            current = tentative.get(x)
            if current is None or candidate < current:
                tentative[x] = candidate
                heapq.heappush(heap, (candidate, x))
    return fold_start, len(settled)


# ----------------------------------------------------------------------
# Step 3 + 4: sub-span recompute and the per-level stable merges
# ----------------------------------------------------------------------


def _segment_cut(offsets: np.ndarray, values: np.ndarray, bound: int) -> np.ndarray:
    """Per segment, how many leading entries have ``value < bound``.

    ``values`` must be ascending within each CSR segment, so the other
    entries form a suffix of their segment: locating each of them (few,
    for a bound near the span end) in the offsets counts them per
    segment.
    """
    later = np.flatnonzero(values >= bound)
    segments = offsets.shape[0] - 1
    owner = np.searchsorted(offsets, later, side="right") - 1
    return offsets[1:] - offsets[:-1] - np.bincount(owner, minlength=segments)


def _splice(
    old: tuple[np.ndarray, np.ndarray, np.ndarray],
    keep: np.ndarray,
    ins_a: np.ndarray,
    ins_b: np.ndarray,
    sub: tuple[np.ndarray, np.ndarray, np.ndarray],
    skip: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per segment: the first ``keep`` old rows, an inserted row, the sub-span rows.

    ``old`` and ``sub`` are ``(offsets, a, b)`` CSR columns; segment
    ``i`` of the result holds ``old``'s first ``keep[i]`` rows (segments
    past the old count keep none), then ``(ins_a[i], ins_b[i])`` when
    ``ins_a[i] >= 0``, then ``sub``'s rows past its first ``skip[i]``
    (``None``: skip none).  One call into the compiled ``repro_splice``.
    """
    old_off, old_a, old_b = old
    sub_off, sub_a, sub_b = sub
    segments = sub_off.shape[0] - 1
    old_segments = old_off.shape[0] - 1
    inserted = ins_a >= 0
    take = sub_off[1:] - sub_off[:-1]
    if skip is not None:
        take = take - skip
    out_off = np.zeros(segments + 1, dtype=np.int64)
    np.cumsum(keep + inserted + take, out=out_off[1:])
    total = int(out_off[-1])
    out_a = np.empty(total, dtype=np.int64)
    out_b = np.empty(total, dtype=np.int64)
    arrays = (old_off, keep, old_a, old_b, ins_a, ins_b, sub_off, skip, sub_a, sub_b,
              out_off, out_a, out_b)
    for array in arrays:
        if array is not None and (array.dtype != np.int64 or not array.flags.c_contiguous):
            raise TypeError("the compiled splice needs C-contiguous int64 arrays")
    native.library().splice(
        segments,
        old_segments,
        *(None if array is None else array.ctypes.data for array in arrays),
    )
    return out_off, out_a, out_b


def _merge_level(
    k: int,
    old_index: CoreIndex,
    sub: CoreTimeResult,
    fold_start: int,
    first_inf_k: np.ndarray,
    batch: tuple[np.ndarray, np.ndarray, np.ndarray],
    old_num_edges: int,
    new_tmax: int,
) -> CoreTimeResult:
    """Splice one level's old and sub-span arrays into full-span results."""
    # ---- VCT ----
    off_o, st_o, ct_o = old_vct = old_index.vct.flat_parts()
    off_s, _, ct_s = sub_vct = sub.vct.flat_parts()
    n_old = off_o.shape[0] - 1
    n2 = off_s.shape[0] - 1

    cut = np.zeros(n2, dtype=np.int64)
    cut[:n_old] = _segment_cut(off_o, st_o, fold_start)
    # The old value at fold_start - 1 (INF when the prefix is empty).
    old_last = np.full(n2, INF_CT, dtype=np.int64)
    holders = np.flatnonzero(cut[:n_old] > 0)
    if holders.shape[0]:
        old_last[holders] = ct_o[off_o[holders] + cut[holders] - 1]

    sub_counts = off_s[1:] - off_s[:-1]
    has_sub = sub_counts > 0
    # A vertex finite at fold_start always opens the sub-span VCT with an
    # entry *at* fold_start (the initial scan emits every finite vertex),
    # and a vertex infinite there stays infinite for the whole sub-span
    # (monotone finite prefix) — so segment emptiness fully classifies
    # the boundary: drop the sub-span's first entry when the value did
    # not change at fold_start, insert (fold_start, INF) when a finite
    # prefix ends there.
    first_ct = np.full(n2, INF_CT, dtype=np.int64)
    first_ct[has_sub] = ct_s[off_s[:-1][has_sub]]
    drop = (has_sub & (first_ct == old_last)).astype(np.int64)
    insert = ~has_sub & (old_last != INF_CT)
    vct = VertexCoreTimeIndex.from_flat(
        *_splice(
            old_vct,
            cut,
            np.where(insert, fold_start, -1),
            np.full(n2, INF_CT, dtype=np.int64),
            sub_vct,
            drop,
        ),
        k,
        (1, new_tmax),
    )

    # ---- ECS ----
    assert sub.ecs is not None
    off_eo, t1_o, _ = old_ecs = old_index.ecs.flat_parts()
    sub_ecs = sub.ecs.flat_parts()
    m2 = sub_ecs[0].shape[0] - 1

    ecut = np.zeros(m2, dtype=np.int64)
    ecut[:old_num_edges] = _segment_cut(off_eo, t1_o, fold_start)
    # A new edge whose endpoints were both finite below the boundary has
    # a constant window value equal to its own timestamp there; if the
    # value strictly rises at the boundary, exactly one minimal window
    # closes at boundary - 1 and the sub-span run (which starts at
    # fold_start) cannot see it — synthesise it.  The boundary is the
    # earlier of fold_start and the endpoints' finite-prefix end; in the
    # latter case the prefix ends on an unchanged (infinite) value, so
    # the rise is unconditional.  A vertex with no sub-span entry is
    # infinite at fold_start, which always rises.
    new_u, new_v, new_t = batch
    at_start = np.where(has_sub, first_ct, np.int64(1 << 61))
    finite_end = np.minimum(first_inf_k[new_u], first_inf_k[new_v])
    boundary = np.minimum(finite_end, fold_start)
    rises = (finite_end < fold_start) | (
        np.maximum(at_start[new_u], at_start[new_v]) > new_t
    )
    pre = (boundary >= 2) & rises
    pre_t1 = np.full(m2, -1, dtype=np.int64)
    pre_t2 = np.zeros(m2, dtype=np.int64)
    pre_t1[old_num_edges:] = np.where(pre, boundary - 1, -1)
    pre_t2[old_num_edges:] = new_t
    ecs = EdgeCoreSkyline.from_flat(
        *_splice(old_ecs, ecut, pre_t1, pre_t2, sub_ecs, None), k, (1, new_tmax)
    )
    return CoreTimeResult(vct=vct, ecs=ecs)


# ----------------------------------------------------------------------
# The fold
# ----------------------------------------------------------------------


def delta_fold(
    graph: TemporalGraph,
    indexes: dict[int, CoreIndex],
    batch: Iterable[tuple[Hashable, Hashable, int]],
    *,
    max_window_fraction: float | None = None,
    max_cascade: int = DEFAULT_MAX_CASCADE,
) -> FoldResult:
    """Fold a frontier batch into existing full-span multi-k indexes.

    ``indexes`` maps every registered ``k`` to its current
    :class:`~repro.core.index.CoreIndex` over ``graph``; the returned
    result carries the extended graph and, for each ``k``, an index
    entry-identical to ``build_core_indexes`` over the concatenated edge
    list.  Raises :class:`FoldFallback` when the batch is not foldable
    or the cost model refuses (``max_window_fraction`` bounds the share
    of edges the sub-span recompute may touch; ``max_cascade`` bounds
    the affected-vertex exploration).  Inputs are never mutated — a
    fallback can simply rebuild.
    """
    from repro.core.multik import compute_core_times_multi
    from repro.testing.crashpoints import crashpoint

    started = time.perf_counter()
    ks = sorted(indexes)
    if not ks:
        raise FoldFallback("no-indexes")
    for k in ks:
        if indexes[k].vct.flat_parts()[0].__len__() - 1 > graph.num_vertices:
            raise FoldFallback("index-graph-mismatch")

    old_tmax = graph.tmax
    extended = extend_graph(graph, batch)
    delta_edges = extended.num_edges - graph.num_edges
    if not delta_edges:
        report = FoldReport(
            delta_edges=0,
            new_vertices=0,
            fold_start=old_tmax + 1,
            span_end=old_tmax,
            window_edges=0,
            window_fraction=0.0,
            cascade_vertices=0,
            seconds=time.perf_counter() - started,
        )
        # A batch of self-loops only moves the extended graph's dropped count.
        kept = {
            k: CoreIndex.from_core_times(extended, k, CoreTimeResult(index.vct, index.ecs))
            for k, index in indexes.items()
        }
        return FoldResult(extended, kept, report)

    new_tmax = extended.tmax
    m2 = extended.num_edges
    cg2 = extended.compiled()
    batch_columns = tuple(column[graph.num_edges :] for column in extended.edge_columns())
    first_inf = _first_inf_by_level(indexes, ks, extended.num_vertices, old_tmax)
    fold_start, cascade = _fold_start(
        cg2, first_inf, ks, batch_columns, old_tmax, max_cascade=max_cascade
    )
    window_edges = m2 - extended.time_offsets()[fold_start]
    fraction = window_edges / m2
    if max_window_fraction is not None and fraction > max_window_fraction:
        raise FoldFallback("window-fraction")

    sub = compute_core_times_multi(
        extended, ks, ts=fold_start, te=new_tmax, with_skyline=True
    )
    crashpoint("fold.merge")
    merged: dict[int, CoreIndex] = {}
    for k in ks:
        result = _merge_level(
            k,
            indexes[k],
            sub[k],
            fold_start,
            first_inf[k],
            batch_columns,
            graph.num_edges,
            new_tmax,
        )
        merged[k] = CoreIndex.from_core_times(extended, k, result)
    report = FoldReport(
        delta_edges=delta_edges,
        new_vertices=extended.num_vertices - graph.num_vertices,
        fold_start=fold_start,
        span_end=new_tmax,
        window_edges=int(window_edges),
        window_fraction=float(fraction),
        cascade_vertices=cascade,
        seconds=time.perf_counter() - started,
    )
    return FoldResult(extended, merged, report)
