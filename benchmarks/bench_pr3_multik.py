"""PR 3 multi-k benchmark: one shared-scan build vs N independent builds.

Measures what a mixed-``k`` serving deployment pays to index one graph
for several ``k`` values on the 50k-edge bursty workload of
``bench_pr1_kernel``:

* **independent** — one full Algorithm-2 run per ``k`` on the numpy
  single-``k`` kernel (the pre-PR 3 reality, compiled graph shared).
  That kernel has since been deleted from ``repro.core.coretime``
  (every single-``k`` build now runs the compiled level-fused kernel
  with one level); its fixpoint and harvester are frozen verbatim
  below as this baseline, the way ``bench_pr6_parallel`` freezes the
  PR 5 router;
* **multik** — ``build_core_indexes(graph, ks)``: a single shared
  decremental scan harvesting the VCT and ECS of every ``k`` at once
  (``repro.core.multik``).

Both sides index the same graph; the benchmark asserts the resulting
VCT transition lists and ECS windows are identical entry-by-entry for
every ``k`` and reports the speedup (target: >= 2x for the 4-k build).
Most of the margin comes from compiling the multi-``k`` side, not from
sharing the scan: independent compiled one-level builds take about as
long as the shared build.

Standalone script (not a pytest-benchmark module)::

    PYTHONPATH=src python benchmarks/bench_pr3_multik.py --smoke

writes ``BENCH_PR3.json`` next to the repository root.  ``--smoke``
runs one repetition per side (CI budget); the default runs three and
keeps the best of each.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from array import array
from collections import deque
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core.coretime import (  # noqa: E402
    _NO_TIME,
    INF_CT,
    CoreTimeResult,
    VertexCoreTimeIndex,
)
from repro.core.index import CoreIndex  # noqa: E402
from repro.core.multik import build_core_indexes  # noqa: E402
from repro.graph.generators import BurstyConfig, generate_bursty  # noqa: E402
from repro.core.windows import EdgeCoreSkyline  # noqa: E402
from repro.graph.temporal_graph import TemporalGraph  # noqa: E402
from repro.utils.arrays import as_int64_array, offsets_from_keys  # noqa: E402

#: Same shape as the PR 1 workload: >= 50k temporal edges, bursty.
WORKLOAD = BurstyConfig(
    num_vertices=3000,
    background_edges=42000,
    tmax=2000,
    repeat_rate=0.25,
    num_bursts=40,
    burst_size=12,
    burst_width=25,
    edges_per_burst=220,
    seed=1,
    name="bench_pr3",
)

KS = (2, 3, 4, 5)
SPEEDUP_TARGET = 2.0


# ----------------------------------------------------------------------
# The numpy single-k kernel, frozen verbatim as the independent baseline.
# ----------------------------------------------------------------------

#: Frozen compiled layouts by graph id (the graph is kept alive with it).
_LAYOUTS: dict[int, tuple[TemporalGraph, SimpleNamespace]] = {}


def frozen_layout(graph: TemporalGraph) -> SimpleNamespace:
    """The compiled graph in the layout the frozen kernel was written for.

    ``CompiledGraph`` now holds every table as one int64 ndarray; the
    frozen kernel indexes tables scalar by scalar, which it did on
    tuples and ``array('q')`` buffers, and reads the ``np_`` mirrors in
    its vectorised steps.  Built once per graph, before timing.
    """
    cached = _LAYOUTS.get(id(graph))
    if cached is None:
        cg = graph.compiled()
        layout = SimpleNamespace(
            num_vertices=cg.num_vertices, num_edges=cg.num_edges, tmax=cg.tmax,
            num_slots=cg.num_slots, num_pairs=cg.num_pairs,
        )
        for name in ("time_offset", "adj_offsets", "adj_neighbour", "slot_pid",
                     "slot_times_start", "slot_times_end", "slot_count", "pair_offset",
                     "full_degree", "inc_offsets"):
            setattr(layout, name, tuple(getattr(cg, name).tolist()))
        for name in ("edge_u", "edge_v", "edge_t", "pair_times", "edge_slot_u", "edge_slot_v"):
            setattr(layout, name, array("q", getattr(cg, name).tobytes()))
        for name in ("adj_neighbour", "slot_pid", "edge_u", "edge_v", "edge_t", "edge_slot_u",
                     "inc_time", "inc_other", "inc_eid"):
            setattr(layout, "np_" + name, getattr(cg, name))
        layout.np_slot_first_time = cg.pair_times[cg.slot_times_start]
        cached = _LAYOUTS[id(graph)] = (graph, layout)
    return cached[1]



class _WindowState:
    """Mutable per-query working state over the compiled flat arrays.

    The compiled graph supplies all immutable structure; per query only
    four mutable pieces exist: ``ct`` (current core times, int64),
    ``ptr`` (per adjacency slot, the index into the flat pair-timestamp
    array of the first time at or after the current start, advanced
    monotonically), ``ett`` (the timestamp that pointer designates, or a
    sentinel when the pair has no further edge) and, during the initial
    scan, per-slot live-edge counts.  Sub-windows need no rebuilt
    structure: pointers are positioned once at ``ts_lo`` and the end
    bound is a comparison against ``ts_hi``.
    """

    __slots__ = (
        "graph",
        "cg",
        "k",
        "ts_lo",
        "ts_hi",
        "inf",
        "ct",
        "ptr",
        "ett",
        "_inq",
        "_inc_end",
    )

    def __init__(self, graph: TemporalGraph, k: int, ts_lo: int, ts_hi: int):
        self.graph = graph
        self.cg = cg = frozen_layout(graph)
        self.k = k
        self.ts_lo = ts_lo
        self.ts_hi = ts_hi
        self.inf = ts_hi + 1
        self.ct = np.full(cg.num_vertices, self.inf, dtype=np.int64)
        if ts_lo == 1:
            self.ptr = list(cg.slot_times_start)
            self.ett = cg.np_slot_first_time.copy()
        else:
            # Position each pair's pointer at its first edge time >= ts_lo.
            # All pairs bisect at once: each pair's slice of ``pair_times``
            # is ascending and times never exceed ``tmax``, so the
            # composite key ``pid * stride + time`` is globally sorted and
            # one searchsorted answers every pair (both directional slots
            # share the result).
            pair_times = as_int64_array(cg.pair_times)
            pair_offset = as_int64_array(cg.pair_offset)
            num_pairs = cg.num_pairs
            stride = np.int64(cg.tmax + 2)
            counts = pair_offset[1:] - pair_offset[:-1]
            pids = np.arange(num_pairs, dtype=np.int64)
            composite = np.repeat(pids, counts) * stride + pair_times
            first_index = np.searchsorted(composite, pids * stride + ts_lo)
            self.ptr = first_index[cg.np_slot_pid].tolist()
            exhausted = first_index >= pair_offset[1:]
            pair_first_time = np.where(
                exhausted,
                _NO_TIME,
                pair_times[np.minimum(first_index, max(len(pair_times) - 1, 0))],
            )
            self.ett = pair_first_time[cg.np_slot_pid]
        self._inq = bytearray(cg.num_vertices)
        self._inc_end: dict[int, int] | None = None if ts_hi >= cg.tmax else {}

    # ------------------------------------------------------------------

    def initial_scan(self) -> None:
        """Compute ``CT_Ts`` for all vertices by the decremental scan.

        Peels the k-core of the widest window with flat degree/live-count
        arrays, then shrinks the end time deleting contiguous edge-id
        batches; per-pair live counts are maintained through the
        edge→slot maps with two array writes per edge.
        """
        cg = self.cg
        k = self.k
        ts_lo, ts_hi = self.ts_lo, self.ts_hi
        n = cg.num_vertices
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
            live = [0] * cg.num_slots
            for eid in range(time_offset[ts_lo], time_offset[ts_hi + 1]):
                live[edge_slot_u[eid]] += 1
                live[edge_slot_v[eid]] += 1
            degree = [0] * n
            for u in range(n):
                d = 0
                for s in range(adj_offsets[u], adj_offsets[u + 1]):
                    if live[s]:
                        d += 1
                degree[u] = d

        # Peel the k-core of G[ts_lo, ts_hi].
        alive = bytearray(n)
        stack: list[int] = []
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

        # Decremental end-time scan: delete the edges stamped te (a
        # contiguous id range), cascading evictions; a vertex evicted
        # while shrinking to te - 1 has CT_Ts = te.
        ct = self.ct
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
                    if alive[u] and alive[v]:
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
        for u in range(n):
            if alive[u]:
                ct[u] = ts_lo

    def expire_start(self, ts: int) -> None:
        """Advance pair pointers past the edges stamped ``ts - 1``.

        The earliest time of a pair changes exactly when the start moves
        past one of its edge times, so only the (contiguous) edge batch at
        ``ts - 1`` needs its two directional slots refreshed.
        """
        cg = self.cg
        ptr = self.ptr
        ett = self.ett
        times = cg.pair_times
        slot_times_end = cg.slot_times_end
        edge_slot_u = cg.edge_slot_u
        edge_slot_v = cg.edge_slot_v
        time_offset = cg.time_offset
        for eid in range(time_offset[ts - 1], time_offset[ts]):
            s = edge_slot_u[eid]
            p = ptr[s]
            end = slot_times_end[s]
            while p < end and times[p] < ts:
                p += 1
            ptr[s] = p
            ett[s] = times[p] if p < end else _NO_TIME
            s = edge_slot_v[eid]
            p = ptr[s]
            end = slot_times_end[s]
            while p < end and times[p] < ts:
                p += 1
            ptr[s] = p
            ett[s] = times[p] if p < end else _NO_TIME

    def advance_start(self, ts: int) -> dict[int, int]:
        """Move the start time to ``ts`` (from ``ts - 1``).

        Refreshes the earliest-times of the expiring edge batch, then
        runs the chaotic fixpoint iteration seeded at the endpoints whose
        core time can actually grow, and returns ``{vertex: previous core
        time}`` for every vertex whose core time increased.
        """
        self.expire_start(ts)
        return self.run_fixpoint(self.seeds_after_expire(ts))

    def seeds_after_expire(self, ts: int) -> list[int]:
        """Fixpoint seeds for the move to start ``ts`` (after expiry).

        Seed filter, vectorised over the expiring batch: endpoint ``u``
        of pair ``(u, v)`` needs re-evaluation only if the pair's
        available time ``max(ett, CT(v))`` contributed to ``CT(u)``
        before (``CT(v) <= CT(u)``, since the expiring time made the max
        ``CT(v)``) and strictly grows now (next pair time ``> CT(v)``).
        Must be called after :meth:`expire_start` has advanced the
        pointers past the edges stamped ``ts - 1``.
        """
        cg = self.cg
        ct = self.ct
        ett = self.ett
        ts_hi = self.ts_hi
        time_offset = cg.time_offset
        batch_lo = time_offset[ts - 1]
        batch_hi = time_offset[ts]
        if batch_lo >= batch_hi:
            return []
        batch = slice(batch_lo, batch_hi)
        endpoint_u = cg.np_edge_u[batch]
        endpoint_v = cg.np_edge_v[batch]
        ct_u = ct[endpoint_u]
        ct_v = ct[endpoint_v]
        next_time = ett[cg.np_edge_slot_u[batch]]
        seed_u = (ct_u <= ts_hi) & (ct_v <= ct_u) & (next_time > ct_v)
        seed_v = (ct_v <= ts_hi) & (ct_u <= ct_v) & (next_time > ct_u)
        return np.concatenate((endpoint_u[seed_u], endpoint_v[seed_v])).tolist()

    def run_fixpoint(self, seeds: list[int]) -> dict[int, int]:
        """Chaotic re-evaluation of the core-time operator from ``seeds``.

        Returns ``{vertex: previous core time}`` for every vertex whose
        core time increased.  Seeds are deduplicated on entry (repeats
        are harmless); re-scheduling cascades through the CSR slices.
        """
        cg = self.cg
        ct = self.ct
        ett = self.ett
        k = self.k
        inf = self.inf
        ts_hi = self.ts_hi
        adj_offsets = cg.adj_offsets
        np_adj_neighbour = cg.np_adj_neighbour
        changed: dict[int, int] = {}
        queue: deque[int] = deque()
        inq = self._inq
        for w in seeds:
            if not inq[w]:
                inq[w] = 1
                queue.append(w)

        km1 = k - 1
        while queue:
            u = queue.popleft()
            inq[u] = 0
            old = int(ct[u])
            if old >= inf:
                continue
            lo = adj_offsets[u]
            hi = adj_offsets[u + 1]
            neighbours = np_adj_neighbour[lo:hi]
            neighbour_ct = ct[neighbours]
            slot_ett = ett[lo:hi]
            avail = np.maximum(slot_ett, neighbour_ct)
            # Entries past ts_hi (neighbour or pair exhausted) sort after
            # every finite value, so the k-th smallest of the raw array is
            # either the k-th finite value or a witness that fewer than k
            # finite values exist.
            if avail.size <= km1:
                new = inf
            else:
                if k == 1:
                    candidate = int(avail.min())
                else:
                    avail.partition(km1)
                    candidate = int(avail[km1])
                new = candidate if candidate <= ts_hi else inf
            if new <= old:
                continue
            if u not in changed:
                changed[u] = old
            ct[u] = new
            # Re-schedule neighbours whose k-th-smallest input may have
            # grown: only those for which u's available time was at most
            # their core time before the increase and above it after.
            push = (np.maximum(slot_ett, old) <= neighbour_ct) & (
                neighbour_ct <= ts_hi
            )
            if new <= ts_hi:
                push &= np.maximum(slot_ett, new) > neighbour_ct
            for w in neighbours[push].tolist():
                if not inq[w]:
                    inq[w] = 1
                    queue.append(w)
        return changed

    def incident_end(self, u: int) -> int:
        """One past the last incident-CSR index of ``u`` inside the span.

        Incident edges are sorted by ascending time; for full-span
        queries this is just the CSR offset, for sub-windows the cut at
        ``ts_hi`` is binary-searched once per vertex and memoised.
        """
        cg = self.cg
        if self._inc_end is None:
            return cg.inc_offsets[u + 1]
        cached = self._inc_end.get(u)
        if cached is not None:
            return cached
        inc_time = cg.np_inc_time
        lo = cg.inc_offsets[u]
        hi = cg.inc_offsets[u + 1]
        end = lo + int(np.searchsorted(inc_time[lo:hi], self.ts_hi, side="right"))
        self._inc_end[u] = end
        return end


class _Harvester:
    """Per-``k`` columnar accumulation of VCT entries and skyline windows.

    The output side of Algorithm 2, factored out of the driver loop so
    the single-``k`` path here and the shared-scan multi-``k`` path of
    :mod:`repro.core.multik` run the *same* emission scheme: seeded from
    the initial-scan core times, then fed every ``(ts, changed)`` step of
    the advancing phase via :meth:`harvest`.  Entries are appended as
    flat ``(id, value)`` array chunks in ascending step order and frozen
    into the native offset-indexed arrays by one stable sort per side —
    no per-entry Python tuples anywhere on the build path.
    """

    __slots__ = (
        "state",
        "ect",
        "_vct_verts",
        "_vct_cts",
        "_vct_ts",
        "_ecs_eids",
        "_ecs_t1",
        "_ecs_t2",
    )

    def __init__(self, state: _WindowState, with_skyline: bool):
        cg = state.cg
        inf = state.inf
        ct = state.ct
        ts_lo, ts_hi = state.ts_lo, state.ts_hi
        time_offset = cg.time_offset
        self.state = state
        initial = (ct < inf).nonzero()[0]
        self._vct_verts: list[np.ndarray] = [initial]
        self._vct_cts: list[np.ndarray] = [ct[initial]]
        self._vct_ts: list[int] = [ts_lo]
        self._ecs_eids: list[np.ndarray] = []
        self._ecs_t1: list[np.ndarray] = []
        self._ecs_t2: list[np.ndarray] = []
        self.ect: "np.ndarray | None" = None
        if with_skyline:
            self.ect = np.full(cg.num_edges, inf, dtype=np.int64)
            window = slice(time_offset[ts_lo], time_offset[ts_hi + 1])
            self.ect[window] = np.maximum(
                np.maximum(ct[cg.np_edge_u[window]], ct[cg.np_edge_v[window]]),
                cg.np_edge_t[window],
            )
            # Edges stamped with the very first start time leave the
            # window as soon as the start advances: their pending window
            # finalises now.
            self._emit_batch(ts_lo)

    def _emit_batch(self, stamp_ts: int) -> None:
        """Emit ``(stamp_ts, ect)`` for the edge batch stamped ``stamp_ts``."""
        time_offset = self.state.cg.time_offset
        base = time_offset[stamp_ts]
        batch = self.ect[base : time_offset[stamp_ts + 1]]
        emit = (batch <= self.state.ts_hi).nonzero()[0]
        if emit.size:
            self._ecs_eids.append(emit + base)
            self._ecs_t1.append(np.full(len(emit), stamp_ts, dtype=np.int64))
            self._ecs_t2.append(batch[emit])

    def harvest(self, current_ts: int, changed: dict[int, int]) -> None:
        """Fold in one advancing step: VCT transitions + finalised windows."""
        state = self.state
        cg = state.cg
        ct = state.ct
        ts_hi = state.ts_hi
        ect = self.ect
        if changed:
            verts = np.fromiter(changed, np.int64, len(changed))
            self._vct_verts.append(verts)
            self._vct_cts.append(ct[verts])
            self._vct_ts.append(current_ts)
            if ect is not None:
                # Collect the incident-CSR suffixes (time >= current_ts) of
                # every changed vertex and re-derive the core times of those
                # edges in one vectorised pass: any strict increase finalises
                # the previously pending minimal window at current_ts - 1
                # (Lemma 2).  An edge with both endpoints changed appears
                # twice with the same re-derived value (both gathers read the
                # final cts), so increases are deduplicated per edge id.
                inc_offsets = cg.inc_offsets
                inc_time = cg.np_inc_time
                inc_other = cg.np_inc_other
                inc_eid = cg.np_inc_eid
                pieces: list[np.ndarray] = []
                piece_ct: list[int] = []
                piece_len: list[int] = []
                for u in changed:
                    lo = inc_offsets[u]
                    hi = state.incident_end(u)
                    lo += inc_time[lo:hi].searchsorted(current_ts)
                    if lo < hi:
                        pieces.append(np.arange(lo, hi))
                        piece_ct.append(int(ct[u]))
                        piece_len.append(hi - lo)
                if pieces:
                    index = np.concatenate(pieces)
                    changed_ct = np.repeat(
                        np.asarray(piece_ct, dtype=np.int64),
                        np.asarray(piece_len),
                    )
                    new_ect = np.maximum(ct[inc_other[index]], inc_time[index])
                    np.maximum(new_ect, changed_ct, out=new_ect)
                    edge_ids = inc_eid[index]
                    old_ect = ect[edge_ids]
                    grew = (new_ect > old_ect).nonzero()[0]
                    if grew.size:
                        grew_ids = edge_ids[grew]
                        grew_old = old_ect[grew]
                        unique_ids, first = np.unique(grew_ids, return_index=True)
                        finalised = grew_old[first]
                        emit = (finalised <= ts_hi).nonzero()[0]
                        if emit.size:
                            self._ecs_eids.append(unique_ids[emit])
                            self._ecs_t1.append(
                                np.full(len(emit), current_ts - 1, dtype=np.int64)
                            )
                            self._ecs_t2.append(finalised[emit])
                        ect[grew_ids] = new_ect[grew]
        if ect is not None:
            self._emit_batch(current_ts)

    def result(self) -> CoreTimeResult:
        """Assemble the columnar chunks into the native flat-array result.

        Chunks were appended in ascending step order, so one stable sort
        by id groups every vertex's transitions (and every edge's
        windows) contiguously in ascending time — exactly the
        offset-indexed layout the index classes serve queries from.
        """
        state = self.state
        inf = state.inf
        span = (state.ts_lo, state.ts_hi)
        n = state.cg.num_vertices

        verts = np.concatenate(self._vct_verts)
        starts = np.repeat(
            np.asarray(self._vct_ts, dtype=np.int64),
            np.asarray([len(c) for c in self._vct_verts], dtype=np.int64),
        )
        cts = np.concatenate(self._vct_cts)
        order = np.argsort(verts, kind="stable")
        verts = verts[order]
        cts = cts[order]
        vct = VertexCoreTimeIndex.from_flat(
            offsets_from_keys(verts, n),
            starts[order],
            np.where(cts >= inf, INF_CT, cts),
            state.k,
            span,
        )

        skyline = None
        if self.ect is not None:
            m = state.cg.num_edges
            if self._ecs_eids:
                eids = np.concatenate(self._ecs_eids)
                t1 = np.concatenate(self._ecs_t1)
                t2 = np.concatenate(self._ecs_t2)
            else:
                eids = np.empty(0, dtype=np.int64)
                t1 = np.empty(0, dtype=np.int64)
                t2 = np.empty(0, dtype=np.int64)
            order = np.argsort(eids, kind="stable")
            eids = eids[order]
            skyline = EdgeCoreSkyline.from_flat(
                offsets_from_keys(eids, m), t1[order], t2[order], state.k, span
            )
        return CoreTimeResult(vct=vct, ecs=skyline)


def single_k_core_times(graph: TemporalGraph, k: int, *, with_skyline: bool = True):
    """One full-span Algorithm-2 run on the frozen numpy single-k kernel."""
    ts_lo, ts_hi = 1, graph.tmax
    state = _WindowState(graph, k, ts_lo, ts_hi)
    state.initial_scan()
    harvester = _Harvester(state, with_skyline)
    for current_ts in range(ts_lo + 1, ts_hi + 1):
        harvester.harvest(current_ts, state.advance_start(current_ts))
    return harvester.result()


def identical(multi: dict[int, CoreIndex], singles: dict[int, CoreIndex], graph) -> bool:
    """Entry-by-entry VCT and ECS equality for every k."""
    for k in KS:
        a, b = multi[k], singles[k]
        if a.vct.size() != b.vct.size() or a.ecs.size() != b.ecs.size():
            return False
        for u in range(graph.num_vertices):
            if a.vct.entries_of(u) != b.vct.entries_of(u):
                return False
        for eid in range(graph.num_edges):
            if a.ecs.windows_of(eid) != b.ecs.windows_of(eid):
                return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="single repetition per side (CI budget)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="repetitions per side, best kept (default: 1 smoke, 3 full)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent / "BENCH_PR3.json",
        help="output JSON path (default: <repo>/BENCH_PR3.json)",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats else (1 if args.smoke else 3)

    source = generate_bursty(WORKLOAD)
    triples = [
        (source.label_of(u), source.label_of(v), t) for u, v, t in source.edges
    ]
    print(f"graph: n={source.num_vertices} m={source.num_edges} "
          f"tmax={source.tmax} ks={list(KS)}")

    # ---- independent: one frozen numpy Algorithm-2 run per k (shared compile) ----
    independent_seconds = float("inf")
    singles: dict[int, CoreIndex] = {}
    graph_ind = TemporalGraph(triples)
    graph_ind.compiled()  # both sides start from a compiled graph
    frozen_layout(graph_ind)
    for _ in range(repeats):
        start = time.perf_counter()
        singles = {
            k: CoreIndex.from_core_times(graph_ind, k, single_k_core_times(graph_ind, k))
            for k in KS
        }
        independent_seconds = min(independent_seconds, time.perf_counter() - start)

    # ---- multik: one shared decremental scan for all ks ----
    multik_seconds = float("inf")
    multi: dict[int, CoreIndex] = {}
    graph_multi = TemporalGraph(triples)
    graph_multi.compiled()
    for _ in range(repeats):
        start = time.perf_counter()
        multi = build_core_indexes(graph_multi, KS)
        multik_seconds = min(multik_seconds, time.perf_counter() - start)

    same = identical(multi, singles, graph_multi)
    speedup = independent_seconds / multik_seconds if multik_seconds else float("inf")

    report = {
        "benchmark": "bench_pr3_multik",
        "mode": "smoke" if args.smoke else "full",
        "repeats": repeats,
        "graph": {
            "name": WORKLOAD.name,
            "num_vertices": source.num_vertices,
            "num_edges": source.num_edges,
            "tmax": source.tmax,
        },
        "ks": list(KS),
        "independent_seconds": round(independent_seconds, 4),
        "multik_seconds": round(multik_seconds, 4),
        "speedup": round(speedup, 2),
        "vct_sizes": {str(k): multi[k].vct.size() for k in KS},
        "ecs_sizes": {str(k): multi[k].ecs.size() for k in KS},
        "identical": same,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(
        f"ks={list(KS)}: independent {independent_seconds:.2f}s  "
        f"multik {multik_seconds:.2f}s  speedup {speedup:.2f}x  "
        f"identical={same}"
    )
    print(f"[report written to {args.out}]")

    if not same:
        print("FAIL: multi-k indexes diverge from per-k builds", file=sys.stderr)
        return 1
    if speedup < SPEEDUP_TARGET:
        print(
            f"FAIL: speedup {speedup:.2f}x below the {SPEEDUP_TARGET:.0f}x target",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
