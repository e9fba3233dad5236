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

1. **extends** the graph and its :class:`~repro.graph.csr.CompiledGraph`
   in place of a recompile — edge/timestamp columns grow through
   capacity-doubled append buffers, pair/adjacency/incident sections are
   repacked with vectorised scatters (O(m) memory moves, no Python
   per-edge work) — yielding arrays value-identical to compiling the
   concatenated edge list from scratch (property-tested);
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
   side (:func:`_splice`: one compiled ``repro_splice`` call, or
   vectorised gather/scatters when the C kernels did not load): old
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
from collections import defaultdict
from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core import native
from repro.core.coretime import INF_CT, CoreTimeResult, VertexCoreTimeIndex
from repro.core.index import CoreIndex
from repro.core.windows import EdgeCoreSkyline
from repro.errors import GraphFormatError
from repro.graph.csr import CompiledGraph
from repro.graph.temporal_graph import TemporalEdge, TemporalGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    pass

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
class DeltaFoldResult:
    """An extended graph + merged indexes, entry-identical to a rebuild."""

    graph: TemporalGraph
    indexes: dict[int, CoreIndex]
    report: FoldReport
    bufs: dict = field(repr=False, default_factory=dict)


def _as_i64(section) -> np.ndarray:
    """Zero-copy-where-possible int64 ndarray over any flat int64 section."""
    if isinstance(section, np.ndarray):
        return section
    if isinstance(section, (list, tuple)):
        return np.asarray(section, dtype=np.int64)
    if len(section) == 0:
        return np.empty(0, dtype=np.int64)
    return np.frombuffer(section, dtype=np.int64)


def _seg_indices(base: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ranges ``[base[i], base[i] + counts[i])`` (vectorised)."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(base, counts) + within


class _GrowBuf:
    """Capacity-doubling int64 append buffer (amortised O(1)/element).

    ``view()`` is a zero-copy window over the filled prefix.  Appends
    never move committed entries within a capacity generation, and a
    growth reallocation leaves earlier views pointing at the old buffer
    — so compiled-graph snapshots handed out before an append stay
    immutable while the buffer keeps absorbing the stream.
    """

    __slots__ = ("_buf", "_len")

    def __init__(self, initial):
        arr = _as_i64(initial)
        self._len = int(arr.shape[0])
        self._buf = np.empty(max(16, self._len), dtype=np.int64)
        self._buf[: self._len] = arr

    def __len__(self) -> int:
        return self._len

    def extend(self, values: np.ndarray) -> None:
        need = self._len + int(values.shape[0])
        if need > self._buf.shape[0]:
            capacity = int(self._buf.shape[0])
            while capacity < need:
                capacity *= 2
            fresh = np.empty(capacity, dtype=np.int64)
            fresh[: self._len] = self._buf[: self._len]
            self._buf = fresh
        self._buf[self._len : need] = values
        self._len = need

    def view(self) -> np.ndarray:
        return self._buf[: self._len]


# ----------------------------------------------------------------------
# Step 1: graph + compiled-array extension
# ----------------------------------------------------------------------


def extend_graph(
    graph: TemporalGraph,
    batch: Iterable[tuple[Hashable, Hashable, int]],
    *,
    bufs: dict | None = None,
) -> tuple[TemporalGraph, list[TemporalEdge], dict]:
    """Extend a normalised graph with strictly-newer raw-timestamped edges.

    Returns ``(extended_graph, new_edges, bufs)`` where the extended
    graph's vertex ids, edge ids, normalised timestamps and compiled
    flat arrays are **identical** to ``TemporalGraph(old_raw + batch)``
    — guaranteed because every batch timestamp is strictly greater than
    the old last raw time, so the global ``(raw_t, u, v)`` sort is the
    old order followed by the sorted batch.  ``bufs`` carries the
    capacity-doubled append buffers between folds.

    Raises :class:`FoldFallback` when the precondition fails:
    ``"empty-base"`` (nothing built yet), ``"unnormalised-graph"``
    (``normalize_time=False`` graphs have no raw-time table), or
    ``"boundary-tie"`` (a batch edge shares the built graph's last raw
    timestamp — its sorted position would interleave before existing
    same-timestamp edges and reshuffle their ids).
    """
    if graph.num_edges == 0:
        raise FoldFallback("empty-base")
    if not graph._raw_times:
        raise FoldFallback("unnormalised-graph")

    label_ids = dict(graph._label_ids)
    labels = list(graph._labels)
    dropped = graph._num_dropped_self_loops
    raw_triples: list[tuple[int, int, int]] = []
    for index, edge in enumerate(batch):
        try:
            raw_u, raw_v, raw_t = edge
        except (TypeError, ValueError) as exc:
            raise GraphFormatError(
                f"edge #{index} is not a (u, v, t) triple: {edge!r}"
            ) from exc
        if not isinstance(raw_t, int):
            raise GraphFormatError(f"edge #{index} has non-integer timestamp {raw_t!r}")
        if raw_u == raw_v:
            dropped += 1
            continue
        u = label_ids.setdefault(raw_u, len(labels))
        if u == len(labels):
            labels.append(raw_u)
        v = label_ids.setdefault(raw_v, len(labels))
        if v == len(labels):
            labels.append(raw_v)
        if u > v:
            u, v = v, u
        raw_triples.append((raw_t, u, v))

    if not raw_triples:
        return graph, [], bufs if bufs is not None else {}
    raw_triples.sort()
    if raw_triples[0][0] <= graph._raw_times[-1]:
        raise FoldFallback("boundary-tie")

    raw_times = list(graph._raw_times)
    new_edges: list[TemporalEdge] = []
    for raw_t, u, v in raw_triples:
        if raw_t != raw_times[-1]:
            raw_times.append(raw_t)
        new_edges.append(TemporalEdge(u, v, len(raw_times)))

    old_tmax = graph.tmax
    new_tmax = len(raw_times)
    time_offset = list(graph._time_offset)
    counts = [0] * (new_tmax - old_tmax)
    for e in new_edges:
        counts[e.t - old_tmax - 1] += 1
    running = time_offset[-1]
    for c in counts:
        running += c
        time_offset.append(running)

    extended = TemporalGraph._from_parts(
        edges=graph._edges + tuple(new_edges),
        labels=tuple(labels),
        raw_times=tuple(raw_times),
        time_offset=tuple(time_offset),
        num_dropped_self_loops=dropped,
    )
    compiled, bufs = _extend_compiled(graph.compiled(), extended, new_edges, bufs)
    extended._compiled_cache = compiled
    return extended, new_edges, bufs


def _extend_compiled(
    cg: CompiledGraph,
    extended: TemporalGraph,
    new_edges: list[TemporalEdge],
    bufs: dict | None,
) -> tuple[CompiledGraph, dict]:
    """Extend the compiled flat arrays by the (sorted, frontier) batch.

    Every section of the returned view is value-identical to
    ``CompiledGraph(extended_graph)`` — including pair numbering and
    adjacency slot order, because new pairs are assigned ids in the
    batch's sorted first-occurrence order, exactly where a fresh compile
    would place them (all old edges sort before all new ones).
    """
    n = cg.num_vertices
    n2 = extended.num_vertices
    m = cg.num_edges
    d = len(new_edges)
    m2 = m + d

    new_u = np.fromiter((e.u for e in new_edges), np.int64, d)
    new_v = np.fromiter((e.v for e in new_edges), np.int64, d)
    new_t = np.fromiter((e.t for e in new_edges), np.int64, d)

    # --- edge columns: capacity-doubled appends (amortised O(|delta|)) ---
    if (
        bufs is None
        or "edge_u" not in bufs
        or len(bufs["edge_u"]) != m
        or bufs["edge_u"].view().base is not None
        and not np.shares_memory(bufs["edge_u"].view(), _as_i64(cg.edge_u))
    ):
        bufs = {
            "edge_u": _GrowBuf(cg.edge_u),
            "edge_v": _GrowBuf(cg.edge_v),
            "edge_t": _GrowBuf(cg.edge_t),
        }
    bufs["edge_u"].extend(new_u)
    bufs["edge_v"].extend(new_v)
    bufs["edge_t"].extend(new_t)
    edge_u2 = bufs["edge_u"].view()
    edge_v2 = bufs["edge_v"].view()
    edge_t2 = bufs["edge_t"].view()

    adj_offsets = _as_i64(cg.adj_offsets)
    adj_neighbour = _as_i64(cg.adj_neighbour)
    slot_pid_old = _as_i64(cg.slot_pid)
    pair_offset_old = _as_i64(cg.pair_offset)
    pair_times_old = _as_i64(cg.pair_times)
    old_esu = _as_i64(cg.edge_slot_u)
    old_esv = _as_i64(cg.edge_slot_v)

    # --- pair membership of each new edge (ids in first-occurrence order) ---
    P = cg.num_pairs
    new_pair_ids: dict[tuple[int, int], int] = {}
    pid_of_new = np.empty(d, dtype=np.int64)
    # Old-pair slots located during lookup (reused for the edge→slot maps).
    su_old = np.full(d, -1, dtype=np.int64)
    sv_old = np.full(d, -1, dtype=np.int64)
    for i in range(d):
        u = int(new_u[i])
        v = int(new_v[i])
        pid = -1
        if u < n and v < n:
            lo, hi = int(adj_offsets[u]), int(adj_offsets[u + 1])
            slot = lo + int(np.searchsorted(adj_neighbour[lo:hi], v))
            if slot < hi and int(adj_neighbour[slot]) == v:
                pid = int(slot_pid_old[slot])
                su_old[i] = slot
                lo_v, hi_v = int(adj_offsets[v]), int(adj_offsets[v + 1])
                sv_old[i] = lo_v + int(
                    np.searchsorted(adj_neighbour[lo_v:hi_v], u)
                )
        if pid < 0:
            pid = new_pair_ids.setdefault((u, v), P + len(new_pair_ids))
        pid_of_new[i] = pid
    P2 = P + len(new_pair_ids)

    # --- pair_offset / pair_times: vectorised shift-scatter repack ---
    old_counts = pair_offset_old[1:] - pair_offset_old[:-1]
    add_counts = np.zeros(P2, dtype=np.int64)
    np.add.at(add_counts, pid_of_new, 1)
    counts2 = add_counts.copy()
    counts2[:P] += old_counts
    pair_offset2 = np.zeros(P2 + 1, dtype=np.int64)
    np.cumsum(counts2, out=pair_offset2[1:])
    pair_times2 = np.empty(int(pair_offset2[-1]), dtype=np.int64)
    old_total = int(pair_offset_old[-1])
    if old_total:
        shift = pair_offset2[:P] - pair_offset_old[:-1]
        pair_times2[np.arange(old_total) + np.repeat(shift, old_counts)] = (
            pair_times_old
        )
    if d:
        # New times land at each pair's tail (all are > old times), in
        # batch order within a pair (nondecreasing — the batch is sorted).
        order = np.argsort(pid_of_new, kind="stable")
        sorted_pids = pid_of_new[order]
        rank = np.arange(d) - np.searchsorted(sorted_pids, sorted_pids)
        tail = pair_offset2[sorted_pids] + (counts2 - add_counts)[sorted_pids]
        pair_times2[tail + rank] = new_t[order]

    # --- adjacency CSR: untouched unless the batch introduced pairs ---
    S = cg.num_slots
    if P2 == P and n2 == n:
        adj_offsets2 = adj_offsets
        adj_neighbour2 = adj_neighbour
        slot_pid2 = slot_pid_old
        slotmap: np.ndarray | None = None  # identity
        num_slots2 = S
        new_slot_of: dict[tuple[int, int], int] = {}
    else:
        inserts: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for (u, v), pid in new_pair_ids.items():
            inserts[u].append((v, pid))
            inserts[v].append((u, pid))
        old_deg = adj_offsets[1:] - adj_offsets[:-1]
        deg2 = np.zeros(n2, dtype=np.int64)
        deg2[:n] = old_deg
        for u, lst in inserts.items():
            deg2[u] += len(lst)
        adj_offsets2 = np.zeros(n2 + 1, dtype=np.int64)
        np.cumsum(deg2, out=adj_offsets2[1:])
        num_slots2 = int(adj_offsets2[-1])
        adj_neighbour2 = np.empty(num_slots2, dtype=np.int64)
        slot_pid2 = np.empty(num_slots2, dtype=np.int64)
        if S:
            slotmap = np.arange(S, dtype=np.int64) + np.repeat(
                adj_offsets2[:n] - adj_offsets[:-1], old_deg
            )
            adj_neighbour2[slotmap] = adj_neighbour
            slot_pid2[slotmap] = slot_pid_old
        else:
            slotmap = np.empty(0, dtype=np.int64)
        new_slot_of = {}
        for u, lst in inserts.items():
            lst.sort()
            base = int(adj_offsets2[u])
            if u < n:
                lo, hi = int(adj_offsets[u]), int(adj_offsets[u + 1])
                old_nb = adj_neighbour[lo:hi]
                old_pd = slot_pid_old[lo:hi]
            else:
                lo = hi = 0
                old_nb = old_pd = np.empty(0, dtype=np.int64)
            ins_nb = np.fromiter((v for v, _ in lst), np.int64, len(lst))
            ins_pd = np.fromiter((p for _, p in lst), np.int64, len(lst))
            ipos = np.searchsorted(old_nb, ins_nb)
            old_dst = (
                base
                + np.arange(old_nb.shape[0], dtype=np.int64)
                + np.searchsorted(
                    ipos, np.arange(old_nb.shape[0], dtype=np.int64), side="right"
                )
            )
            new_dst = base + ipos + np.arange(len(lst), dtype=np.int64)
            adj_neighbour2[old_dst] = old_nb
            slot_pid2[old_dst] = old_pd
            adj_neighbour2[new_dst] = ins_nb
            slot_pid2[new_dst] = ins_pd
            if u < n:
                slotmap[lo:hi] = old_dst
            for j, (v, _pid) in enumerate(lst):
                new_slot_of[(u, v)] = int(new_dst[j])

    # --- slot-derived sections (pair_offset moved, so always regathered) ---
    slot_pid2_np = _as_i64(slot_pid2)
    slot_times_start2 = pair_offset2[slot_pid2_np]
    slot_times_end2 = pair_offset2[slot_pid2_np + 1]
    slot_count2 = slot_times_end2 - slot_times_start2
    adj_offsets2_np = _as_i64(adj_offsets2)
    full_degree2 = adj_offsets2_np[1:] - adj_offsets2_np[:-1]

    # --- edge → slot maps ---
    new_su = np.empty(d, dtype=np.int64)
    new_sv = np.empty(d, dtype=np.int64)
    for i in range(d):
        if su_old[i] >= 0:
            if slotmap is None:
                new_su[i] = su_old[i]
                new_sv[i] = sv_old[i]
            else:
                new_su[i] = slotmap[su_old[i]]
                new_sv[i] = slotmap[sv_old[i]]
        else:
            u, v = int(new_u[i]), int(new_v[i])
            new_su[i] = new_slot_of[(u, v)]
            new_sv[i] = new_slot_of[(v, u)]
    if slotmap is None:
        if "edge_slot_u" not in bufs or len(bufs["edge_slot_u"]) != m:
            bufs["edge_slot_u"] = _GrowBuf(old_esu)
            bufs["edge_slot_v"] = _GrowBuf(old_esv)
        bufs["edge_slot_u"].extend(new_su)
        bufs["edge_slot_v"].extend(new_sv)
        edge_slot_u2 = bufs["edge_slot_u"].view()
        edge_slot_v2 = bufs["edge_slot_v"].view()
    else:
        edge_slot_u2 = np.concatenate([slotmap[old_esu], new_su])
        edge_slot_v2 = np.concatenate([slotmap[old_esv], new_sv])
        bufs["edge_slot_u"] = _GrowBuf(edge_slot_u2)
        bufs["edge_slot_v"] = _GrowBuf(edge_slot_v2)
        edge_slot_u2 = bufs["edge_slot_u"].view()
        edge_slot_v2 = bufs["edge_slot_v"].view()

    # --- incident CSR: shift-scatter old entries, append tails in eid order ---
    old_inc_off = _as_i64(cg.inc_offsets)
    old_inc_counts = old_inc_off[1:] - old_inc_off[:-1]
    add_inc = np.zeros(n2, dtype=np.int64)
    np.add.at(add_inc, new_u, 1)
    np.add.at(add_inc, new_v, 1)
    inc_counts2 = add_inc.copy()
    inc_counts2[:n] += old_inc_counts
    inc_offsets2 = np.zeros(n2 + 1, dtype=np.int64)
    np.cumsum(inc_counts2, out=inc_offsets2[1:])
    total_inc = int(inc_offsets2[-1])
    inc_time2 = np.empty(total_inc, dtype=np.int64)
    inc_other2 = np.empty(total_inc, dtype=np.int64)
    inc_eid2 = np.empty(total_inc, dtype=np.int64)
    old_inc_total = int(old_inc_off[-1])
    if old_inc_total:
        dst = np.arange(old_inc_total) + np.repeat(
            inc_offsets2[:n] - old_inc_off[:-1], old_inc_counts
        )
        inc_time2[dst] = _as_i64(cg.np_inc_time)
        inc_other2[dst] = _as_i64(cg.np_inc_other)
        inc_eid2[dst] = _as_i64(cg.np_inc_eid)
    cursor = (inc_offsets2[:n2] + inc_counts2 - add_inc).copy()
    for i in range(d):
        u, v, t = int(new_u[i]), int(new_v[i]), int(new_t[i])
        eid = m + i
        pos = cursor[u]
        inc_time2[pos] = t
        inc_other2[pos] = v
        inc_eid2[pos] = eid
        cursor[u] = pos + 1
        pos = cursor[v]
        inc_time2[pos] = t
        inc_other2[pos] = u
        inc_eid2[pos] = eid
        cursor[v] = pos + 1

    # --- assemble the extended compiled view ---
    cg2 = CompiledGraph.__new__(CompiledGraph)
    cg2.num_vertices = n2
    cg2.num_edges = m2
    cg2.tmax = extended.tmax
    cg2.num_slots = num_slots2
    cg2.num_pairs = P2
    cg2.edge_u = edge_u2
    cg2.edge_v = edge_v2
    cg2.edge_t = edge_t2
    cg2.time_offset = extended.time_offsets()
    cg2.adj_offsets = adj_offsets2_np
    cg2.adj_neighbour = _as_i64(adj_neighbour2)
    cg2.slot_pid = slot_pid2_np
    cg2.slot_times_start = slot_times_start2
    cg2.slot_times_end = slot_times_end2
    cg2.slot_count = slot_count2
    cg2.pair_offset = pair_offset2
    cg2.pair_times = pair_times2
    cg2.full_degree = full_degree2
    cg2.edge_slot_u = edge_slot_u2
    cg2.edge_slot_v = edge_slot_v2
    cg2.inc_offsets = inc_offsets2
    cg2.np_adj_neighbour = cg2.adj_neighbour
    cg2.np_slot_pid = slot_pid2_np
    cg2.np_slot_first_time = (
        pair_times2[slot_times_start2]
        if num_slots2
        else np.empty(0, dtype=np.int64)
    )
    cg2.np_edge_u = edge_u2
    cg2.np_edge_v = edge_v2
    cg2.np_edge_t = edge_t2
    cg2.np_edge_slot_u = edge_slot_u2
    cg2.np_inc_time = inc_time2
    cg2.np_inc_other = inc_other2
    cg2.np_inc_eid = inc_eid2
    return cg2, bufs


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
        offsets, starts, cts = (
            _as_i64(part) for part in indexes[k].vct.flat_parts()
        )
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
    new_edges: list[TemporalEdge],
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
    adj_offsets = _as_i64(cg2.adj_offsets)
    degree = adj_offsets[1:] - adj_offsets[:-1]
    n2 = degree.shape[0]
    # The last time of each adjacency slot's pair, and per vertex its
    # slots' last times in descending order (one composite-key sort).
    slot_last = _as_i64(cg2.pair_times)[_as_i64(cg2.slot_times_end) - 1]
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
    neighbour = cg2.np_adj_neighbour.tolist()
    slot_last = slot_last.tolist()

    tentative: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    for w in {e.u for e in new_edges} | {e.v for e in new_edges}:
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
    (``None``: skip none).  One call into the compiled ``repro_splice``
    when the C kernels loaded, vectorised gather/scatters otherwise.
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
    kernels = native.library()
    if kernels is not None:
        arrays = (old_off, keep, old_a, old_b, ins_a, ins_b, sub_off, skip, sub_a, sub_b,
                  out_off, out_a, out_b)
        for array in arrays:
            if array is not None and (
                array.dtype != np.int64 or not array.flags.c_contiguous
            ):
                raise TypeError("the compiled splice needs C-contiguous int64 arrays")
        kernels.splice(
            segments,
            old_segments,
            *(None if array is None else array.ctypes.data for array in arrays),
        )
        return out_off, out_a, out_b
    src = _seg_indices(old_off[:-1], keep[:old_segments])
    dst = _seg_indices(out_off[:old_segments], keep[:old_segments])
    out_a[dst] = old_a[src]
    out_b[dst] = old_b[src]
    at = (out_off[:-1] + keep)[inserted]
    out_a[at] = ins_a[inserted]
    out_b[at] = ins_b[inserted]
    src = _seg_indices(sub_off[:-1] if skip is None else sub_off[:-1] + skip, take)
    dst = _seg_indices(out_off[:-1] + keep + inserted, take)
    out_a[dst] = sub_a[src]
    out_b[dst] = sub_b[src]
    return out_off, out_a, out_b


def _merge_level(
    k: int,
    old_index: CoreIndex,
    sub: CoreTimeResult,
    fold_start: int,
    first_inf_k: np.ndarray,
    new_edges: list[TemporalEdge],
    old_num_edges: int,
    new_tmax: int,
) -> CoreTimeResult:
    """Splice one level's old and sub-span arrays into full-span results."""
    # ---- VCT ----
    off_o, st_o, ct_o = old_vct = tuple(_as_i64(p) for p in old_index.vct.flat_parts())
    off_s, _, ct_s = sub_vct = tuple(_as_i64(p) for p in sub.vct.flat_parts())
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
    off_eo, t1_o, _ = old_ecs = tuple(_as_i64(p) for p in old_index.ecs.flat_parts())
    sub_ecs = tuple(_as_i64(p) for p in sub.ecs.flat_parts())
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
    new_u = np.fromiter((e.u for e in new_edges), np.int64, len(new_edges))
    new_v = np.fromiter((e.v for e in new_edges), np.int64, len(new_edges))
    new_t = np.fromiter((e.t for e in new_edges), np.int64, len(new_edges))
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
    bufs: dict | None = None,
) -> DeltaFoldResult:
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
    extended, new_edges, bufs = extend_graph(graph, batch, bufs=bufs)
    if not new_edges:
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
        return DeltaFoldResult(graph, dict(indexes), report, bufs)

    new_tmax = extended.tmax
    m2 = extended.num_edges
    cg2 = extended.compiled()
    first_inf = _first_inf_by_level(indexes, ks, extended.num_vertices, old_tmax)
    fold_start, cascade = _fold_start(
        cg2, first_inf, ks, new_edges, old_tmax, max_cascade=max_cascade
    )
    window_edges = m2 - extended.time_offsets()[fold_start]
    fraction = window_edges / m2
    if max_window_fraction is not None and fraction > max_window_fraction:
        raise FoldFallback("window-fraction")

    sub = compute_core_times_multi(
        extended, ks, ts=fold_start, te=new_tmax, with_skyline=True
    )
    crashpoint("fold.merge")
    per_level = (time.perf_counter() - started) / len(ks)
    merged: dict[int, CoreIndex] = {}
    for k in ks:
        result = _merge_level(
            k,
            indexes[k],
            sub[k],
            fold_start,
            first_inf[k],
            new_edges,
            graph.num_edges,
            new_tmax,
        )
        merged[k] = CoreIndex.from_core_times(
            extended, k, result, build_seconds=per_level
        )
    report = FoldReport(
        delta_edges=len(new_edges),
        new_vertices=extended.num_vertices - graph.num_vertices,
        fold_start=fold_start,
        span_end=new_tmax,
        window_edges=int(window_edges),
        window_fraction=float(fraction),
        cascade_vertices=cascade,
        seconds=time.perf_counter() - started,
    )
    return DeltaFoldResult(extended, merged, report, bufs)


class DeltaFold:
    """Stateful folder: carries the snapshot and append buffers between folds.

    The streaming service owns one of these per built graph generation;
    each :meth:`fold` advances ``graph``/``indexes`` to fresh immutable
    snapshots (earlier ones remain valid — readers never see a
    half-merged index) while the internal capacity-doubled buffers
    absorb the edge columns with amortised O(|delta|) copying.
    """

    def __init__(self, graph: TemporalGraph, indexes: dict[int, CoreIndex]):
        self.graph = graph
        self.indexes = dict(indexes)
        self._bufs: dict | None = None

    def fold(
        self,
        batch: Iterable[tuple[Hashable, Hashable, int]],
        *,
        max_window_fraction: float | None = None,
        max_cascade: int = DEFAULT_MAX_CASCADE,
    ) -> FoldReport:
        """Fold ``batch`` in; adopt the extended snapshot on success."""
        result = delta_fold(
            self.graph,
            self.indexes,
            batch,
            max_window_fraction=max_window_fraction,
            max_cascade=max_cascade,
            bufs=self._bufs,
        )
        self.graph = result.graph
        self.indexes = result.indexes
        self._bufs = result.bufs
        return result.report
