"""Multi-``k`` core-time builds that share one decremental scan.

Real serving mixes many ``k`` values against the same graph, and each
``(graph, k)`` pair used to pay its own full Algorithm-2 run.
:func:`compute_core_times_multi` builds the VCT index and the
edge-core-window skyline for a whole *set* of ``k`` values in a single
pass over the compiled flat-array graph, with three devices the
one-``k``-at-a-time kernel cannot use:

* **One decremental scan.**  The per-pair live-edge counts maintained by
  the end-time scan, and the pair pointers / eager earliest-times
  (``ptr`` / ``ett``) refreshed by the advancing phase, do not depend on
  ``k`` — they are maintained once for all levels.  The widest-window
  peel exploits that the ``(k+1)``-core is nested in the ``k``-core: it
  proceeds through the requested ``k`` values in ascending order,
  *continuing* from the previous level's survivors, so every vertex is
  evicted at most once across all levels; the end-time scan then
  cascades per level only while both endpoints of a dying pair are still
  alive there.

* **One compiled pass.**  All core times live in one ``(levels,
  vertices)`` int64 matrix, and the whole advancing phase is one call
  into ``core/_fixpoint.c`` (loaded by :mod:`repro.core.native`).  Per
  start time the pass refreshes the expiring batch's pair pointers,
  seeds its endpoints at every level, drains a chaotic FIFO of
  ``(level, vertex)`` keys with the single-``k`` kernel's operator and
  re-scheduling filter, appends a VCT row per grown key, re-derives the
  grown vertices' incident edge core times (a per-vertex cursor into
  the incident CSR, shared by all levels, only moves forward) and emits
  the windows of the batch stamped at that start.  It allocates
  nothing; when the output space left is below one step's worst case it
  returns the start time it stopped at and :class:`_FusedMultiK` grows
  the buffers and resumes.  If compiling or loading fails, the numpy
  step loop runs instead, after one logged warning: the seed masks
  broadcast over all levels, the re-evaluation runs as *rounds* — each
  round's queued keys evaluated in one segmented sweep (gather the CSR
  slices, scatter the availabilities into a padded matrix, one axis
  sort, read each row's ``k``-th smallest) and short cascade tails
  through a scalar drain — and the harvest of all levels batches into
  one composite-key ``searchsorted`` + gather sweep per step.  That
  loop is also the compiled pass's test oracle.  Every evaluation order
  reaches the same least fixpoint as the single-``k`` kernel's
  per-vertex order, so the harvested output is identical (re-verified
  entry by entry against the single-``k`` kernel and the reference
  oracle by the property suite, on both paths).  A single ``k`` still
  runs the numpy single-``k`` kernel: it is the baseline the multi-``k``
  speed-up gate measures against, so it does not share the compiled
  pass.

* **Columnar output.**  VCT transitions and finalised skyline windows
  are accumulated as flat ``(key, start, value)`` row chunks and
  assembled at the end with one stable sort per side into the
  offset-indexed flat arrays that
  :class:`~repro.core.coretime.VertexCoreTimeIndex` and
  :class:`~repro.core.windows.EdgeCoreSkyline` serve natively (and the
  on-disk store persists), with no per-entry Python tuples anywhere.

:func:`build_core_indexes` is the index-layer entry point: it resolves a
set of ``k`` values against an optional on-disk store first and builds
the remainder in one shared pass.  The serving layers
(:meth:`CoreIndexRegistry.get_many <repro.core.index.CoreIndexRegistry.get_many>`,
:meth:`IndexStore.build_all <repro.store.index_store.IndexStore.build_all>`,
:func:`~repro.bench.batch.run_mixed_batch`,
:class:`~repro.core.maintenance.StreamingCoreService`) all route through
it.
"""

from __future__ import annotations

import ctypes
import time
from collections import deque
from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from repro.core import native
from repro.core.coretime import (
    _NO_TIME,
    INF_CT,
    CoreTimeResult,
    VertexCoreTimeIndex,
    _WindowState,
    compute_core_times,
)
from repro.core.index import CoreIndex
from repro.core.windows import EdgeCoreSkyline
from repro.errors import InvalidParameterError
from repro.graph.temporal_graph import TemporalGraph
from repro.utils.arrays import as_int64_array, offsets_from_keys

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.store.index_store import IndexStore


def _validated_ks(ks: Iterable[int]) -> list[int]:
    """Deduplicated, ascending ``k`` values (>= 1); rejects empty input.

    Each value is checked before deduplication: a set would compare
    mixed types (``TypeError``) and merge ``True`` into ``1``.
    """
    values = list(ks)
    for k in values:
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise InvalidParameterError(f"k must be an integer >= 1, got {k!r}")
    if not values:
        raise InvalidParameterError("ks must contain at least one k value")
    return sorted(set(values))


def _grown_copy(array: np.ndarray, length: int, capacity: int) -> np.ndarray:
    """A ``capacity``-long int64 buffer starting with ``array[:length]``."""
    out = np.empty(capacity, dtype=np.int64)
    out[:length] = array[:length]
    return out


def _shared_initial_scan(
    base: _WindowState, ks: list[int], ct_matrix: np.ndarray
) -> None:
    """``CT_Ts`` for every level in one decremental end-time scan.

    Mirrors :meth:`_WindowState.initial_scan` with two multi-``k``
    devices: the widest-window peel *continues* from level to level
    (ascending ``k``, nested cores — each vertex is evicted at most once
    across all levels), and the end-time scan decrements the shared live
    counts once per edge, cascading per level only while both endpoints
    are still alive there.  Results land in the rows of ``ct_matrix``.
    """
    cg = base.cg
    ts_lo, ts_hi = base.ts_lo, base.ts_hi
    n = cg.num_vertices
    num_levels = len(ks)
    adj_offsets = cg.adj_offsets
    adj_neighbour = cg.adj_neighbour
    edge_slot_u = cg.edge_slot_u
    edge_slot_v = cg.edge_slot_v
    edge_u = cg.edge_u
    edge_v = cg.edge_v
    time_offset = cg.time_offset

    if ts_lo == 1 and ts_hi == cg.tmax:
        live = list(cg.slot_count)
        degree = list(cg.full_degree)
    else:
        # Window live counts and distinct-neighbour degrees, vectorised:
        # one bincount over both slot columns of the window's contiguous
        # edge-id range, then a prefix-sum of slot liveness differenced
        # at the adjacency offsets (empty adjacency segments fall out as
        # zero, which reduceat would get wrong).
        lo_eid = time_offset[ts_lo]
        hi_eid = time_offset[ts_hi + 1]
        live_np = np.bincount(
            as_int64_array(edge_slot_u)[lo_eid:hi_eid],
            minlength=cg.num_slots,
        ) + np.bincount(
            as_int64_array(edge_slot_v)[lo_eid:hi_eid],
            minlength=cg.num_slots,
        )
        live_prefix = np.zeros(cg.num_slots + 1, dtype=np.int64)
        np.cumsum(live_np > 0, out=live_prefix[1:])
        adj_off_np = as_int64_array(adj_offsets)
        degree_np = live_prefix[adj_off_np[1:]] - live_prefix[adj_off_np[:-1]]
        live = live_np.tolist()
        degree = degree_np.tolist()

    # Nested peel of G[ts_lo, ts_hi]: ascending k, continuing from the
    # previous level's k-core.  The first level seeds from the full
    # degree array exactly like the single-k scan; later levels only
    # re-examine survivors whose degree fell below the raised threshold.
    alive = bytearray(n)
    alives: list[bytearray] = []
    degrees: list[list[int]] = []
    stack: list[int] = []
    for level, k in enumerate(ks):
        if level == 0:
            for u in range(n):
                if degree[u] < k:
                    stack.append(u)
                else:
                    alive[u] = 1
            while stack:
                u = stack.pop()
                if alive[u]:
                    alive[u] = 0
                for s in range(adj_offsets[u], adj_offsets[u + 1]):
                    if live[s]:
                        v = adj_neighbour[s]
                        if alive[v]:
                            d = degree[v] - 1
                            degree[v] = d
                            if d == k - 1:
                                stack.append(v)
        else:
            stack.extend(u for u in range(n) if alive[u] and degree[u] < k)
            while stack:
                u = stack.pop()
                if not alive[u]:
                    continue
                alive[u] = 0
                for s in range(adj_offsets[u], adj_offsets[u + 1]):
                    if live[s]:
                        v = adj_neighbour[s]
                        if alive[v]:
                            d = degree[v] - 1
                            degree[v] = d
                            if d == k - 1:
                                stack.append(v)
        if level + 1 < num_levels:  # the last level mutates in place
            alives.append(bytearray(alive))
            degrees.append(list(degree))
        else:
            alives.append(alive)
            degrees.append(degree)

    cts = [ct_matrix[level] for level in range(num_levels)]

    # Decremental end-time scan, shared live counts: delete the edges
    # stamped te (a contiguous id range) once, cascade per level while
    # both endpoints are alive there; a vertex evicted while shrinking
    # to te - 1 has CT_Ts = te at that level.
    for te in range(ts_hi, ts_lo, -1):
        for eid in range(time_offset[te], time_offset[te + 1]):
            su = edge_slot_u[eid]
            remaining = live[su] - 1
            live[su] = remaining
            sv = edge_slot_v[eid]
            live[sv] -= 1
            if remaining == 0:
                u = edge_u[eid]
                v = edge_v[eid]
                for level in range(num_levels):
                    alive = alives[level]
                    if not (alive[u] and alive[v]):
                        # Nested cores: dead here means dead at every
                        # higher level too.
                        break
                    k = ks[level]
                    degree = degrees[level]
                    ct = cts[level]
                    du = degree[u] - 1
                    degree[u] = du
                    dv = degree[v] - 1
                    degree[v] = dv
                    if du == k - 1:
                        stack.append(u)
                    if dv == k - 1:
                        stack.append(v)
                    while stack:
                        w = stack.pop()
                        if not alive[w]:
                            continue
                        alive[w] = 0
                        ct[w] = te
                        for s in range(adj_offsets[w], adj_offsets[w + 1]):
                            if live[s]:
                                x = adj_neighbour[s]
                                if alive[x]:
                                    d = degree[x] - 1
                                    degree[x] = d
                                    if d == k - 1:
                                        stack.append(x)
    for level in range(num_levels):
        alive = alives[level]
        ct = cts[level]
        for u in range(n):
            if alive[u]:
                ct[u] = ts_lo


class _FusedMultiK:
    """The level-fused advancing phase over a 2-D core-time matrix.

    One instance drives all requested ``k`` values ("levels") through
    the start-time loop (:meth:`run`): one compiled build pass, or the
    numpy :meth:`step` loop — the shared pointer/earliest-time refresh
    via the base :class:`_WindowState`, the fused fixpoint rounds and
    the fused harvest sweeps — both accumulating columnar output (see
    the module docstring).
    """

    #: Frontiers at most this large drain through the scalar chaotic
    #: path — the fused sweep's fixed numpy dispatch cost dwarfs the
    #: short cascade tails (nearly half of all rounds hold a few percent
    #: of the row volume).
    _SCALAR_FRONTIER = 10

    #: First size of the compiled pass's VCT buffers, in rows per level
    #: and window edge; the skyline's start four times larger.  Measured
    #: builds emit about 3 VCT and 8-13 skyline rows per level and edge;
    #: a short guess only costs a resume.
    _START_ROWS = 4

    def __init__(
        self,
        graph: TemporalGraph,
        ks: list[int],
        ts_lo: int,
        ts_hi: int,
        with_skyline: bool,
    ):
        self.base = base = _WindowState(graph, ks[0], ts_lo, ts_hi)
        self.cg = cg = base.cg
        self.ks = ks
        self.ts_lo = ts_lo
        self.ts_hi = ts_hi
        self.inf = base.inf
        self.num_levels = len(ks)
        n = cg.num_vertices
        self.num_vertices = n
        self.num_edges = cg.num_edges
        self.ct_matrix = np.full((len(ks), n), self.inf, dtype=np.int64)
        self.ct_flat = self.ct_matrix.reshape(-1)
        base.ct = self.ct_matrix[0]
        # int64 copies of the offset tables feeding fused gathers (the
        # compiled graph keeps them as plain lists / buffer views).
        self.np_adj_offsets = np.asarray(cg.adj_offsets, dtype=np.int64)
        self.np_inc_offsets = np.asarray(cg.inc_offsets, dtype=np.int64)
        self.np_degree = self.np_adj_offsets[1:] - self.np_adj_offsets[:-1]
        self.np_km1 = np.asarray(ks, dtype=np.int64) - 1
        self.with_skyline = with_skyline
        self._inq = bytearray(len(ks) * n)
        # Columnar VCT accumulation: (level * n + vertex, start, new core
        # time) chunks.
        self._vct_keys: list[np.ndarray] = []
        self._vct_starts: list[np.ndarray] = []
        self._vct_cts: list[np.ndarray] = []
        # Columnar ECS accumulation: (level * m + edge, t1, t2) chunks.
        self._ecs_keys: list[np.ndarray] = []
        self._ecs_t1: list[np.ndarray] = []
        self._ecs_t2: list[np.ndarray] = []
        self.ect_matrix: np.ndarray | None = None
        self.ect_flat: np.ndarray | None = None
        self._inc_key: np.ndarray | None = None
        self._inc_stride = cg.tmax + 2
        # Reusable buffers for the fused sweeps (grown on demand).
        self._iota = np.arange(1024, dtype=np.int64)
        self._pad_buffer = np.empty(1024, dtype=np.int64)

    def _arange(self, total: int) -> np.ndarray:
        if total > len(self._iota):
            self._iota = np.arange(
                max(total, 2 * len(self._iota)), dtype=np.int64
            )
        return self._iota[:total]

    def _padded(self, size: int, fill: int) -> np.ndarray:
        if size > len(self._pad_buffer):
            self._pad_buffer = np.empty(
                max(size, 2 * len(self._pad_buffer)), dtype=np.int64
            )
        view = self._pad_buffer[:size]
        view.fill(fill)
        return view

    # ------------------------------------------------------------------

    def seed_from_initial_scan(self) -> None:
        """Record the ``ts_lo`` VCT entries and pending edge core times."""
        cg = self.cg
        inf = self.inf
        ts_lo, ts_hi = self.ts_lo, self.ts_hi
        ct_flat = self.ct_flat
        time_offset = cg.time_offset
        initial = (ct_flat < inf).nonzero()[0]
        self._vct_keys.append(initial)
        self._vct_starts.append(np.full(len(initial), ts_lo, dtype=np.int64))
        self._vct_cts.append(ct_flat[initial])
        if not self.with_skyline:
            return
        m = self.num_edges
        ct_matrix = self.ct_matrix
        self.ect_matrix = np.full((self.num_levels, m), inf, dtype=np.int64)
        self.ect_flat = self.ect_matrix.reshape(-1)
        window = slice(time_offset[ts_lo], time_offset[ts_hi + 1])
        self.ect_matrix[:, window] = np.maximum(
            np.maximum(
                ct_matrix[:, cg.np_edge_u[window]],
                ct_matrix[:, cg.np_edge_v[window]],
            ),
            cg.np_edge_t[window][None, :],
        )
        # Edges stamped with the very first start time leave the window
        # as soon as the start advances: their pending window finalises
        # now, at every level they are in a core at.
        self._emit_batch(ts_lo)

    def _emit_batch(self, stamp_ts: int) -> None:
        """Emit ``(stamp_ts, ect)`` for the edge batch stamped ``stamp_ts``."""
        time_offset = self.cg.time_offset
        base_eid = time_offset[stamp_ts]
        segment = self.ect_matrix[:, base_eid : time_offset[stamp_ts + 1]]
        if segment.size == 0:
            return
        levels, cols = (segment <= self.ts_hi).nonzero()
        if levels.size == 0:
            return
        m = self.num_edges
        t2 = segment[levels, cols]
        keys = levels * m + cols + base_eid
        self._ecs_keys.append(keys)
        self._ecs_t1.append(np.full(len(keys), stamp_ts, dtype=np.int64))
        self._ecs_t2.append(t2)

    # ------------------------------------------------------------------

    def _drain_scalar(self, frontier: np.ndarray, grew_out: list[np.ndarray]) -> None:
        """Chaotic scalar drain of a short frontier (single-k code path).

        Evaluates keys off a deque exactly like
        :meth:`_WindowState.run_fixpoint`, collecting every grown key
        into ``grew_out``; returns when the cascade is exhausted.
        """
        n = self.num_vertices
        ts_hi = self.ts_hi
        inf = self.inf
        ct_flat = self.ct_flat
        ett = self.base.ett
        adj_offsets = self.cg.adj_offsets
        np_adj_neighbour = self.cg.np_adj_neighbour
        ks = self.ks
        inq = self._inq
        grew_keys: list[int] = []
        queue: deque[int] = deque()
        for key in frontier.tolist():
            if not inq[key]:
                inq[key] = 1
                queue.append(key)
        while queue:
            key = queue.popleft()
            inq[key] = 0
            lev, u = divmod(key, n)
            level_base = lev * n
            old = int(ct_flat[key])
            if old >= inf:
                continue
            lo = adj_offsets[u]
            hi = adj_offsets[u + 1]
            neighbours = np_adj_neighbour[lo:hi]
            neighbour_ct = ct_flat[level_base + neighbours]
            slot_ett = ett[lo:hi]
            avail = np.maximum(slot_ett, neighbour_ct)
            km1 = ks[lev] - 1
            if avail.size <= km1:
                new = inf
            else:
                if km1 == 0:
                    candidate = int(avail.min())
                else:
                    avail.partition(km1)
                    candidate = int(avail[km1])
                new = candidate if candidate <= ts_hi else inf
            if new <= old:
                continue
            grew_keys.append(key)
            ct_flat[key] = new
            push = (np.maximum(slot_ett, old) <= neighbour_ct) & (
                neighbour_ct <= ts_hi
            )
            if new <= ts_hi:
                push &= np.maximum(slot_ett, new) > neighbour_ct
            for w in neighbours[push].tolist():
                target = level_base + w
                if not inq[target]:
                    inq[target] = 1
                    queue.append(target)
        if grew_keys:
            grew_out.append(np.asarray(grew_keys, dtype=np.int64))

    def advance(self, current_ts: int) -> np.ndarray:
        """Move every level's start to ``current_ts`` (numpy path).

        Runs the shared expiry once, then the fixpoint as fused rounds:
        every queued ``(level, vertex)`` pair of a round is either
        evaluated in one fused segmented sweep (large rounds) or through
        the scalar single-k code path (short cascade tails).  The seed
        filter, operator and re-scheduling filter are the single-k
        kernel's, so the least fixpoint matches
        :meth:`_WindowState.advance_start` per level.  Returns the
        deduplicated keys (``level * n + vertex``) whose core time grew
        this step, in no particular order.
        """
        self.base.expire_start(current_ts)
        time_offset = self.cg.time_offset
        batch_lo = time_offset[current_ts - 1]
        batch_hi = time_offset[current_ts]
        if batch_lo >= batch_hi:
            return np.empty(0, dtype=np.int64)
        base = self.base
        cg = self.cg
        n = self.num_vertices
        ts_hi = self.ts_hi
        ct_matrix = self.ct_matrix
        ct_flat = self.ct_flat
        # Seed filter of `_WindowState.seeds_after_expire`, broadcast
        # over all levels at once against the shared earliest-time row.
        batch = slice(batch_lo, batch_hi)
        endpoint_u = cg.np_edge_u[batch]
        endpoint_v = cg.np_edge_v[batch]
        ct_u = ct_matrix[:, endpoint_u]
        ct_v = ct_matrix[:, endpoint_v]
        next_time = base.ett[cg.np_edge_slot_u[batch]]
        seed_u = (ct_u <= ts_hi) & (ct_v <= ct_u) & (next_time > ct_v)
        seed_v = (ct_v <= ts_hi) & (ct_u <= ct_v) & (next_time > ct_u)
        lev_u, col_u = seed_u.nonzero()
        lev_v, col_v = seed_v.nonzero()
        frontier = np.unique(
            np.concatenate((lev_u * n + endpoint_u[col_u], lev_v * n + endpoint_v[col_v]))
        )

        adj_offsets = self.np_adj_offsets
        np_adj_neighbour = cg.np_adj_neighbour
        degree = self.np_degree
        km1 = self.np_km1
        max_km1 = int(km1[-1])
        ett = base.ett
        inf = self.inf
        no_time = 1 << 62
        grew_out: list[np.ndarray] = []
        while frontier.size:
            num_rows = len(frontier)
            if num_rows <= self._SCALAR_FRONTIER:
                self._drain_scalar(frontier, grew_out)
                break
            # Fused operator evaluation: gather every row's CSR slice,
            # scatter the availabilities into a NO_TIME-padded matrix and
            # read each row's k-th smallest off one axis sort.
            vert = frontier % n
            lev = frontier // n
            old = ct_flat[frontier]
            counts = degree[vert]
            prefix = np.zeros(num_rows, dtype=np.int64)
            np.cumsum(counts[:-1], out=prefix[1:])
            row = np.repeat(self._arange(num_rows), counts)
            total = int(prefix[-1]) + int(counts[-1])
            pos = self._arange(total) - prefix[row]
            flat = pos + adj_offsets[vert][row]
            target = (lev * n)[row] + np_adj_neighbour[flat]
            slot_ett = ett[flat]
            avail = np.maximum(slot_ett, ct_flat[target])
            pad = max(int(counts.max()), max_km1 + 1)
            padded = self._padded(num_rows * pad, no_time)
            padded[row * pad + pos] = avail
            padded = padded.reshape(num_rows, pad)
            padded.sort(axis=1)
            kth = padded[self._arange(num_rows), km1[lev]]
            new = np.where(kth <= ts_hi, kth, inf)
            grew = new > old
            if not grew.any():
                break
            grew_keys = frontier[grew]
            grew_out.append(grew_keys)
            ct_flat[grew_keys] = new[grew]
            # Re-schedule neighbours whose k-th-smallest input may have
            # grown (same filter as the single-k kernel, evaluated
            # against the post-round core times): only those for which
            # the grown vertex's available time was at most their core
            # time before the increase and above it after.
            neighbour_ct = ct_flat[target]
            old_r = old[row]
            new_r = new[row]
            push = (
                grew[row]
                & (np.maximum(slot_ett, old_r) <= neighbour_ct)
                & (neighbour_ct <= ts_hi)
                & ((new_r > ts_hi) | (np.maximum(slot_ett, new_r) > neighbour_ct))
            )
            pushed = target[push]
            if pushed.size <= 128:
                # Tiny frontiers dedup faster through a Python set than
                # numpy's sort-based unique.
                next_keys = sorted(set(pushed.tolist()))
                frontier = np.asarray(next_keys, dtype=np.int64)
            else:
                frontier = np.unique(pushed)
        if not grew_out:
            return np.empty(0, dtype=np.int64)
        if len(grew_out) == 1:
            return np.unique(grew_out[0])
        return np.unique(np.concatenate(grew_out))

    # ------------------------------------------------------------------

    def harvest(self, current_ts: int, changed_keys: np.ndarray) -> None:
        """Record VCT transitions and finalised windows for one step.

        The level-fused, columnar equivalent of single-k harvesting: the
        changed keys' new core times append one VCT chunk, then one
        segmented sweep over the incident suffixes of every changed
        vertex of every level re-derives edge core times; strict
        increases finalise the previously pending minimal window at
        ``current_ts - 1`` (Lemma 2), deduplicated per ``(level, edge)``.
        """
        if not changed_keys.size:
            return
        n = self.num_vertices
        m = self.num_edges
        ts_hi = self.ts_hi
        new_cts = self.ct_flat[changed_keys]
        self._vct_keys.append(changed_keys)
        self._vct_starts.append(np.full(len(changed_keys), current_ts, dtype=np.int64))
        self._vct_cts.append(new_cts)
        if self.ect_flat is None:
            return
        levels = changed_keys // n
        verts = changed_keys - levels * n
        stride = self._inc_stride
        if self._inc_key is None:
            # Composite sort key over the incident CSR: segments are
            # per-vertex ascending-time, so `vertex * (tmax + 2) + time`
            # is *globally* sorted — one vectorised searchsorted then
            # cuts every changed vertex's incident suffix at once.
            inc_counts = self.np_inc_offsets[1:] - self.np_inc_offsets[:-1]
            self._inc_key = (
                np.repeat(self._arange(n), inc_counts) * stride + self.cg.np_inc_time
            )
        # Exact incident-CSR suffix of every event — time in
        # [current_ts, ts_hi] — via one composite-key searchsorted.
        cut_lo = np.searchsorted(
            self._inc_key, verts * stride + current_ts, side="left"
        )
        if ts_hi == self.cg.tmax:
            cut_hi = self.np_inc_offsets[verts + 1]
        else:
            cut_hi = np.searchsorted(
                self._inc_key, verts * stride + ts_hi, side="right"
            )
        counts = cut_hi - cut_lo
        total = int(counts.sum())
        if not total:
            return
        num_rows = len(verts)
        prefix = np.zeros(num_rows, dtype=np.int64)
        np.cumsum(counts[:-1], out=prefix[1:])
        row = np.repeat(self._arange(num_rows), counts)
        flat = self._arange(total) - prefix[row] + cut_lo[row]
        # Only edges whose pending core time lies *below* the grown
        # vertex core time can finalise: ect = max(ct_u, ct_v, t) grows
        # past old_ect only through an endpoint whose new core time
        # exceeds it, and that endpoint's event is in this batch — so
        # the filter loses no growth and skips the gathers for the
        # (many) incident edges whose pending windows are unaffected.
        lev_flat = levels[row]
        edge_key = lev_flat * m + self.cg.np_inc_eid[flat]
        old_ect = self.ect_flat[edge_key]
        candidate = old_ect < new_cts[row]
        if not candidate.any():
            return
        flat = flat[candidate]
        row = row[candidate]
        edge_key = edge_key[candidate]
        old_ect = old_ect[candidate]
        other_ct = self.ct_flat[
            lev_flat[candidate] * n + self.cg.np_inc_other[flat]
        ]
        new_ect = np.maximum(
            np.maximum(other_ct, self.cg.np_inc_time[flat]), new_cts[row]
        )
        # new_ect >= new_ct > old_ect: every candidate grows.
        unique_keys, first = np.unique(edge_key, return_index=True)
        finalised = old_ect[first]
        emit = finalised <= ts_hi
        if emit.any():
            self._ecs_keys.append(unique_keys[emit])
            self._ecs_t1.append(
                np.full(int(emit.sum()), current_ts - 1, dtype=np.int64)
            )
            self._ecs_t2.append(finalised[emit])
        self.ect_flat[edge_key] = new_ect

    def step(self, current_ts: int) -> None:
        """One advancing step: fixpoint, harvest, batch emission."""
        self.harvest(current_ts, self.advance(current_ts))
        if self.ect_matrix is not None:
            self._emit_batch(current_ts)

    def run(self) -> None:
        """The advancing phase: every start time past ``ts_lo``.

        One compiled build pass when the C kernels loaded, the numpy
        :meth:`step` loop (its test oracle) otherwise.
        """
        kernels = native.library()
        if kernels is None:
            for current_ts in range(self.ts_lo + 1, self.ts_hi + 1):
                self.step(current_ts)
        else:
            self._run_compiled(kernels.build_pass)

    def _run_compiled(self, build_pass) -> None:
        """Run ``repro_build_pass``, growing its output buffers on demand.

        Every array the pass reads or writes is bound once here (int64
        and C-contiguous, or :class:`TypeError`).  The pass stops before
        a start time whose worst-case output would not fit, reporting
        the lengths it needs; the buffers then grow geometrically and
        the pass resumes there.  Its rows land as one VCT and one ECS
        chunk, in ascending step order.
        """
        cg = self.cg
        base = self.base
        n = self.num_vertices
        levels = self.num_levels
        ts_hi = self.ts_hi
        time_offset = np.asarray(cg.time_offset, dtype=np.int64)
        skyline = self.ect_flat is not None
        size = levels * n
        keep: list[np.ndarray] = []  # holds every bound address valid
        args = native.BuildArgs(
            n=n, m=self.num_edges, levels=levels, ts_hi=ts_hi, inf=self.inf, no_time=_NO_TIME
        )

        def bind(name: str, array: np.ndarray) -> None:
            if array.dtype not in (np.int64, np.uint8) or not array.flags.c_contiguous:
                raise TypeError("the compiled build pass needs C-contiguous int64 arrays")
            keep.append(array)
            setattr(args, name, array.ctypes.data)

        for name, array in (
            ("adj_offsets", self.np_adj_offsets),
            ("adj_neighbour", cg.np_adj_neighbour),
            ("edge_u", cg.np_edge_u),
            ("edge_v", cg.np_edge_v),
            ("edge_slot_u", cg.np_edge_slot_u),
            ("edge_slot_v", as_int64_array(cg.edge_slot_v)),
            ("time_offset", time_offset),
            ("pair_times", as_int64_array(cg.pair_times)),
            ("slot_times_end", as_int64_array(cg.slot_times_end)),
            ("inc_offsets", self.np_inc_offsets),
            ("inc_time", cg.np_inc_time),
            ("inc_other", cg.np_inc_other),
            ("inc_eid", cg.np_inc_eid),
            ("km1", self.np_km1),
            ("ptr", np.asarray(base.ptr, dtype=np.int64)),
            ("ett", base.ett),
            ("ct", self.ct_flat),
            ("inc_cursor", self.np_inc_offsets[:-1].copy()),
            ("inq", np.zeros(size, dtype=np.uint8)),
            ("grown_mask", np.zeros(size, dtype=np.uint8)),
            ("queue", np.empty(size, dtype=np.int64)),
            ("scratch", np.empty(max(int(self.np_degree.max(initial=0)), 1), dtype=np.int64)),
            ("grown", np.empty(size, dtype=np.int64)),
        ):
            bind(name, array)
        if skyline:
            bind("ect", self.ect_flat)

        columns = {"vct": ("vct_key", "vct_ts", "vct_ct"), "ecs": ("ecs_key", "ecs_t1", "ecs_t2")}
        out = {side: [np.empty(0, np.int64)] * 3 for side in columns}

        def reserve(side: str, need: int) -> None:
            if need <= len(out[side][0]):
                return
            capacity = max(need, 2 * len(out[side][0]))
            length = getattr(args, f"{side}_len")
            out[side] = [_grown_copy(part, length, capacity) for part in out[side]]
            for name, part in zip(columns[side], out[side]):
                setattr(args, name, part.ctypes.data)
            setattr(args, f"{side}_capacity", capacity)

        window = int(time_offset[ts_hi + 1] - time_offset[self.ts_lo])
        start_vct = self._START_ROWS * levels * window
        start_ecs = 4 * start_vct if skyline else 0
        current_ts = self.ts_lo + 1
        while current_ts <= ts_hi:
            reserve("vct", max(args.vct_need, start_vct))
            reserve("ecs", max(args.ecs_need, start_ecs))
            current_ts = build_pass(ctypes.byref(args), current_ts)
        vct, ecs = out["vct"], out["ecs"]
        self._vct_keys.append(vct[0][: args.vct_len])
        self._vct_starts.append(vct[1][: args.vct_len])
        self._vct_cts.append(vct[2][: args.vct_len])
        if skyline:
            self._ecs_keys.append(ecs[0][: args.ecs_len])
            self._ecs_t1.append(ecs[1][: args.ecs_len])
            self._ecs_t2.append(ecs[2][: args.ecs_len])

    # ------------------------------------------------------------------

    def results(self) -> dict[int, CoreTimeResult]:
        """Assemble per-level flat VCT/ECS views from the columnar chunks.

        Chunks were appended in ascending step order, so one stable sort
        by ``(level, id)`` key groups every vertex's transitions (and
        every edge's windows) contiguously in ascending time — the exact
        offset-indexed layout :class:`VertexCoreTimeIndex` and
        :class:`EdgeCoreSkyline` serve queries from natively.
        """
        n = self.num_vertices
        m = self.num_edges
        span = (self.ts_lo, self.ts_hi)
        vct_keys = np.concatenate(self._vct_keys)
        vct_starts = np.concatenate(self._vct_starts)
        vct_cts = np.concatenate(self._vct_cts)
        order = np.argsort(vct_keys, kind="stable")
        vct_keys = vct_keys[order]
        vct_starts = vct_starts[order]
        vct_cts = np.where(vct_cts[order] >= self.inf, INF_CT, vct_cts[order])

        if self.with_skyline:
            ecs_keys = (
                np.concatenate(self._ecs_keys) if self._ecs_keys else np.empty(0, np.int64)
            )
            ecs_t1 = np.concatenate(self._ecs_t1) if self._ecs_t1 else np.empty(0, np.int64)
            ecs_t2 = np.concatenate(self._ecs_t2) if self._ecs_t2 else np.empty(0, np.int64)
            order = np.argsort(ecs_keys, kind="stable")
            ecs_keys = ecs_keys[order]
            ecs_t1 = ecs_t1[order]
            ecs_t2 = ecs_t2[order]

        out: dict[int, CoreTimeResult] = {}
        for level, k in enumerate(self.ks):
            lo, hi = np.searchsorted(vct_keys, [level * n, (level + 1) * n])
            vct = VertexCoreTimeIndex.from_flat(
                offsets_from_keys(vct_keys[lo:hi] - level * n, n),
                vct_starts[lo:hi],
                vct_cts[lo:hi],
                k,
                span,
            )
            skyline = None
            if self.with_skyline:
                lo, hi = np.searchsorted(ecs_keys, [level * m, (level + 1) * m])
                skyline = EdgeCoreSkyline.from_flat(
                    offsets_from_keys(ecs_keys[lo:hi] - level * m, m),
                    ecs_t1[lo:hi],
                    ecs_t2[lo:hi],
                    k,
                    span,
                )
            out[k] = CoreTimeResult(vct=vct, ecs=skyline)
        return out


def compute_core_times_multi(
    graph: TemporalGraph,
    ks: Iterable[int],
    ts: int | None = None,
    te: int | None = None,
    *,
    with_skyline: bool = True,
) -> dict[int, CoreTimeResult]:
    """VCT (+ ECS) for every ``k`` in ``ks`` over one shared pass.

    Output is value-identical to calling
    :func:`~repro.core.coretime.compute_core_times` once per ``k``
    (property-tested against it and the reference oracle) at a fraction
    of the cost: the decremental scan and pointer maintenance run once,
    and the advancing phase of every level runs as one compiled pass
    (or the fused numpy step loop).  The returned indexes are served
    from offset-indexed flat arrays (the same views the on-disk store
    uses), not per-vertex
    Python lists.  Parameters default to the graph's full span; the
    result maps each requested ``k`` (deduplicated) to its
    :class:`CoreTimeResult`.
    """
    unique = _validated_ks(ks)
    if len(unique) == 1:
        return {
            unique[0]: compute_core_times(
                graph, unique[0], ts, te, with_skyline=with_skyline
            )
        }
    ts_lo = 1 if ts is None else ts
    ts_hi = graph.tmax if te is None else te
    graph.check_window(ts_lo, ts_hi)

    fused = _FusedMultiK(graph, unique, ts_lo, ts_hi, with_skyline)
    _shared_initial_scan(fused.base, unique, fused.ct_matrix)
    fused.seed_from_initial_scan()
    fused.run()
    return fused.results()


def build_core_indexes(
    graph: TemporalGraph,
    ks: Iterable[int],
    *,
    store: "IndexStore | None" = None,
) -> dict[int, CoreIndex]:
    """Full-span :class:`CoreIndex` for every ``k`` in ``ks``, one pass.

    When a ``store`` is given it is probed first (by content
    fingerprint): ``k`` values already persisted are *opened* from disk,
    and only the remainder is computed — in a single shared pass when
    more than one is missing.  Nothing is written back; persisting is
    the caller's policy (see :meth:`IndexStore.build_all
    <repro.store.index_store.IndexStore.build_all>`).

    Returns ``{k: index}`` for the deduplicated ``ks``.
    """
    unique = _validated_ks(ks)
    out: dict[int, CoreIndex] = {}
    missing: list[int] = []
    for k in unique:
        index = store.load_index(graph, k) if store is not None else None
        if index is not None:
            out[k] = index
        else:
            missing.append(k)
    if len(missing) == 1:
        # Single miss: the plain constructor keeps the single-k code
        # path (and its test monkeypatches) authoritative.
        out[missing[0]] = CoreIndex(graph, missing[0])
    elif missing:
        started = time.perf_counter()
        results = compute_core_times_multi(graph, missing)
        # Attribute the shared scan evenly: what each k "cost" to build,
        # consulted by the registry's eviction spill policy.
        per_k_seconds = (time.perf_counter() - started) / len(missing)
        for k in missing:
            out[k] = CoreIndex.from_core_times(
                graph, k, results[k], build_seconds=per_k_seconds
            )
    return out
