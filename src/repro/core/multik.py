"""The CoreTime kernel: level-fused builds that share one decremental scan.

Real serving mixes many ``k`` values against the same graph.
:func:`compute_core_times_multi` builds the VCT index and the
edge-core-window skyline for a whole *set* of ``k`` values ("levels")
in a single pass over the compiled flat-array graph, and a single ``k``
(:func:`~repro.core.coretime.compute_core_times`: every one-``k`` build
and every direct range query) is its one-level case — there is one
CoreTime kernel.  Three devices:

* **One decremental scan.**  The per-pair live-edge counts maintained by
  the end-time scan, and the pair pointers / eager earliest-times
  (``ptr`` / ``ett``) refreshed by the advancing phase, do not depend on
  ``k`` — they are maintained once for all levels.  The widest-window
  peel exploits that the ``(k+1)``-core is nested in the ``k``-core: it
  proceeds through the requested ``k`` values in ascending order,
  *continuing* from the previous level's survivors, so every vertex is
  evicted at most once across all levels; the end-time scan then
  cascades per level only while both endpoints of a dying pair are still
  alive there.  The scan is one call into ``core/_fixpoint.c``
  (``repro_initial_scan``).

* **One compiled pass.**  All core times live in one ``(levels,
  vertices)`` int64 matrix, and everything after the scan is one call
  into ``core/_fixpoint.c`` (loaded by :mod:`repro.core.native`).  At
  the first start time the pass writes the rows the scan's core times
  give: the ``ts_lo`` VCT rows, every edge's pending core time and the
  windows of the batch stamped ``ts_lo``.  Per later start time it
  refreshes the expiring batch's pair pointers, seeds its endpoints at
  every level, drains a chaotic FIFO of ``(level, vertex)`` keys with
  the core-time operator and its re-scheduling, appends a VCT row
  per grown key, re-derives the grown vertices' incident edge core times
  (a per-vertex cursor into the incident CSR, shared by all levels, only
  moves forward) and emits the windows of the batch stamped at that
  start.  Each loop stops where no value can change.  Each vertex keeps
  its live slots (pairs with an edge left in the window) as a contiguous
  prefix of position-indexed copies of ``ett`` and the neighbours,
  partitioned at the first start and shrunk as pairs die, and the
  operator reads the prefix only: a dead pair's availability is at least
  ``inf``, so it is never the ``k``-th smallest, and a key with at most
  ``k - 1`` live slots grows to ``inf`` with no selection.  Every key
  keeps its *support*: how many live slots have an availability at or
  below its core time (the "mcd" count of k-core maintenance, Sariyüce
  et al., VLDB 2013).  The first start counts it, each evaluation resets
  it from what the operator gathers, and each exact crossing takes one
  off: the seed's (an expiring pair whose next time passes the key's
  core time, once per pair however many of its edges expire) and
  re-scheduling's (a neighbour's core time growing past it).  A key is
  queued only when its support falls to ``k - 1`` or below, so every
  evaluation grows a core time (on perfbench ``build-cold``'s graph
  59,384 evaluations read 1,803,454 live slots per build, where 86,814
  evaluations, 25,841 of them no-ops, read 2,611,188 before the support
  counts, and reading every slot took 4,522,616).  The operator counts
  the availabilities at or below a key's core time and steps to the
  smallest one above it, selecting the ``k``-th smallest only when that
  step does not settle it; re-scheduling lists, with no branch, the
  slots whose availability the operator just gathered lies between the
  key's old and new core times, and visits only those; the harvest
  stops at the first incident edge stamped at or past the new core time
  and writes every candidate's skyline row, advancing the row count by
  whether the window is final.  Its work counts land in
  ``repro_kernel_work_total{unit}`` (:data:`WORK_UNITS`).
  It allocates nothing; when the output space left is below one step's
  worst case it returns the start time it stopped at and
  :class:`_FusedMultiK` grows the buffers and resumes.  Every evaluation
  order reaches the same least fixpoint, so the harvested output is that
  of the seed kernel :mod:`repro.core.coretime_ref`, its test oracle
  (checked entry by entry by the property suites).  A host that cannot
  compile the C source cannot build: :func:`repro.core.native.library`
  raises.

* **Columnar output.**  The pass writes VCT transitions and finalised
  skyline windows as flat ``(key, start, value)`` row columns, one
  buffer each, assembled at the end with one stable sort per side into
  the offset-indexed flat arrays that
  :class:`~repro.core.coretime.VertexCoreTimeIndex` and
  :class:`~repro.core.windows.EdgeCoreSkyline` serve natively (and the
  on-disk store persists), with no per-entry Python tuples anywhere.

:func:`build_core_indexes` is the index-layer entry point: it resolves a
set of ``k`` values against an optional on-disk store first and builds
the remainder in one shared pass.  The serving layers
(:meth:`CoreIndexRegistry.get_many <repro.core.index.CoreIndexRegistry.get_many>`,
:meth:`IndexStore.build_all <repro.store.index_store.IndexStore.build_all>`,
:func:`~repro.serve.executor.execute_batch`,
:class:`~repro.core.maintenance.StreamingCoreService`) all route through
it.
"""

from __future__ import annotations

import ctypes
from collections.abc import Iterable

import numpy as np

from repro.core import native
# compute_core_times is unused here but stays bound: code that wraps
# the kernel entry points resolves it on this module too.
from repro.core.coretime import (
    _NO_TIME,
    INF_CT,
    CoreTimeResult,
    VertexCoreTimeIndex,
    _WindowState,
    compute_core_times,
)
from repro.core.index import CoreIndex, _build_seconds_histogram
from repro.core.windows import EdgeCoreSkyline
from repro.errors import InvalidParameterError
from repro.graph.temporal_graph import TemporalGraph
from repro.obs.timing import now

#: The build pass's work counts, the ``unit`` labels of
#: ``repro_kernel_work_total`` (fields of :class:`native.BuildArgs`).
WORK_UNITS = ("evaluations", "fallback_selections", "harvest_steps", "slots_read")


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


def kernel_work_counts() -> dict[str, int]:
    """``repro_kernel_work_total`` of this process, ``{unit: n}`` for every unit."""
    counter = native.work_counter()
    return {unit: int(counter.labels(unit).value) for unit in WORK_UNITS}


def _address(array: np.ndarray) -> int:
    """The data address of a C-contiguous int64 or uint8 array for the C kernels."""
    if array.dtype not in (np.int64, np.uint8) or not array.flags.c_contiguous:
        raise TypeError("the compiled kernels need C-contiguous int64 arrays")
    return array.ctypes.data


def _grown_copy(array: np.ndarray, length: int, capacity: int) -> np.ndarray:
    """A ``capacity``-long int64 buffer starting with ``array[:length]``."""
    out = np.empty(capacity, dtype=np.int64)
    out[:length] = array[:length]
    return out


class _FusedMultiK:
    """The level-fused build over a 2-D core-time matrix.

    One instance drives all requested ``k`` values ("levels") through
    the first-start scan (:meth:`scan_first_start`) and the compiled
    build pass (:meth:`run`: the first start's rows, then the start-time
    loop from the pair pointers of the base :class:`_WindowState`),
    which writes columnar output (see the module docstring).
    """

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
        self.base = base = _WindowState(graph, ts_lo, ts_hi)
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
        self.np_km1 = np.asarray(ks, dtype=np.int64) - 1
        self.with_skyline = with_skyline
        # The pass's output columns, in step order: VCT (level * n +
        # vertex, start, new core time), ECS (level * m + edge, t1, t2).
        self.vct: list[np.ndarray] = []
        self.ecs: list[np.ndarray] = []

    # ------------------------------------------------------------------

    def scan_first_start(self) -> None:
        """Core times at ``ts_lo`` for every level, into ``ct_matrix``.

        One ``repro_initial_scan`` call: the nested peel of the widest
        window's cores in ascending ``k`` (each vertex is evicted at
        most once across all levels), then the decremental end-time
        scan over shared live counts; a vertex evicted while shrinking
        to ``te - 1`` has ``CT_Ts = te``.
        """
        cg = self.cg
        n = self.num_vertices
        levels = self.num_levels
        arrays = (  # bound here: they must outlive the call
            cg.adj_offsets, cg.adj_neighbour,
            cg.edge_u, cg.edge_v,
            cg.edge_slot_u, cg.edge_slot_v,
            cg.time_offset, np.asarray(self.ks, dtype=np.int64),
            np.empty(cg.num_slots, dtype=np.int64),  # live
            np.empty(levels * n, dtype=np.int64),  # degree
            np.empty(levels * n, dtype=np.uint8),  # alive
            np.empty(n, dtype=np.int64),  # stack
            self.ct_flat,
        )
        native.library().initial_scan(
            n, levels, self.ts_lo, self.ts_hi, *map(_address, arrays)
        )

    def run(self) -> None:
        """The rows of every start time from ``ts_lo``, after :meth:`scan_first_start`.

        Runs ``repro_build_pass``, growing its output buffers on demand:
        its first call writes the first start's rows from the scan's
        core times, then it advances the start.

        Every array the pass reads or writes is bound once here (int64
        and C-contiguous, or :class:`TypeError`).  The pass stops before
        a start time whose worst-case output would not fit, reporting
        the lengths it needs; the buffers then grow geometrically and
        the pass resumes there.  Its rows land in :attr:`vct` and
        :attr:`ecs`, one column each, in ascending step order, and its
        work counts in ``repro_kernel_work_total{unit}``, once per build.
        """
        build_pass = native.library().build_pass
        cg = self.cg
        base = self.base
        n = self.num_vertices
        levels = self.num_levels
        ts_hi = self.ts_hi
        time_offset = cg.time_offset
        skyline = self.with_skyline
        size = levels * n
        slots = cg.num_slots
        keep: list[np.ndarray] = []  # holds every bound address valid
        args = native.BuildArgs(
            n=n, m=self.num_edges, levels=levels, ts_lo=self.ts_lo, ts_hi=ts_hi,
            inf=self.inf, no_time=_NO_TIME,
        )

        def bind(name: str, array: np.ndarray) -> None:
            keep.append(array)
            setattr(args, name, _address(array))

        for name, array in (
            ("adj_offsets", cg.adj_offsets),
            ("adj_neighbour", cg.adj_neighbour),
            ("edge_u", cg.edge_u),
            ("edge_v", cg.edge_v),
            ("edge_slot_u", cg.edge_slot_u),
            ("edge_slot_v", cg.edge_slot_v),
            ("time_offset", time_offset),
            ("pair_times", cg.pair_times),
            ("slot_times_end", cg.slot_times_end),
            ("inc_offsets", self.cg.inc_offsets),
            ("inc_time", cg.inc_time),
            ("inc_other", cg.inc_other),
            ("inc_eid", cg.inc_eid),
            ("km1", self.np_km1),
            ("ptr", base.ptr),
            ("ett", base.ett),
            ("ct", self.ct_flat),
            ("inc_cursor", self.cg.inc_offsets[:-1].copy()),
            ("live_end", np.empty(n, dtype=np.int64)),
            ("pos_ett", np.empty(slots, dtype=np.int64)),
            ("pos_neighbour", np.empty(slots, dtype=np.int64)),
            ("slot_pos", np.empty(slots, dtype=np.int64)),
            ("pos_slot", np.empty(slots, dtype=np.int64)),
            ("support", np.empty(size, dtype=np.int64)),
            ("inq", np.zeros(size, dtype=np.uint8)),
            ("grown_mask", np.zeros(size, dtype=np.uint8)),
            ("queue", np.empty(size, dtype=np.int64)),
            ("scratch", np.empty(max(2 * int(self.cg.full_degree.max(initial=0)), 1), dtype=np.int64)),
            ("grown", np.empty(size, dtype=np.int64)),
        ):
            bind(name, array)
        if skyline:
            bind("ect", np.empty(levels * self.num_edges, dtype=np.int64))

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
        current_ts = self.ts_lo
        while current_ts <= ts_hi:
            reserve("vct", max(args.vct_need, start_vct))
            reserve("ecs", max(args.ecs_need, start_ecs))
            current_ts = build_pass(ctypes.byref(args), current_ts)
        work = native.work_counter()
        for unit in WORK_UNITS:
            work.labels(unit).inc(getattr(args, unit))
        self.vct = [part[: args.vct_len] for part in out["vct"]]
        self.ecs = [part[: args.ecs_len] for part in out["ecs"]]

    # ------------------------------------------------------------------

    def results(self) -> dict[int, CoreTimeResult]:
        """Assemble per-level flat VCT/ECS views from the pass's columns.

        Rows were written in ascending step order, so one stable
        counting sort by ``(level, id)`` key per side
        (:func:`native.counting_order`, O(rows + levels * ids)) groups
        every vertex's transitions (and every edge's windows)
        contiguously in ascending time and yields the offsets with them
        — the exact offset-indexed layout :class:`VertexCoreTimeIndex`
        and :class:`EdgeCoreSkyline` serve queries from natively.
        """
        n = self.num_vertices
        m = self.num_edges
        span = (self.ts_lo, self.ts_hi)
        vct_keys, vct_starts, vct_cts = self.vct
        order, vct_offsets = native.counting_order(vct_keys, self.num_levels * n)
        vct_starts = vct_starts[order]
        vct_cts = vct_cts[order]
        vct_cts[vct_cts >= self.inf] = INF_CT
        if self.with_skyline:
            ecs_keys, ecs_t1, ecs_t2 = self.ecs
            order, ecs_offsets = native.counting_order(ecs_keys, self.num_levels * m)
            ecs_t1 = ecs_t1[order]
            ecs_t2 = ecs_t2[order]

        out: dict[int, CoreTimeResult] = {}
        for level, k in enumerate(self.ks):
            offsets = vct_offsets[level * n : (level + 1) * n + 1]
            lo, hi = offsets[0], offsets[-1]
            vct = VertexCoreTimeIndex.from_flat(
                offsets - lo, vct_starts[lo:hi], vct_cts[lo:hi], k, span
            )
            skyline = None
            if self.with_skyline:
                offsets = ecs_offsets[level * m : (level + 1) * m + 1]
                lo, hi = offsets[0], offsets[-1]
                skyline = EdgeCoreSkyline.from_flat(
                    offsets - lo, ecs_t1[lo:hi], ecs_t2[lo:hi], k, span
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
    and the advancing phase of every level runs as one compiled pass.
    The returned indexes are served
    from offset-indexed flat arrays (the same views the on-disk store
    uses), not per-vertex Python lists.  Parameters default to the
    graph's full span; the result maps each requested ``k``
    (deduplicated) to its :class:`CoreTimeResult`.
    """
    return _build_core_times(graph, _validated_ks(ks), ts, te, with_skyline)


def _build_core_times(
    graph: TemporalGraph,
    ks: list[int],
    ts: int | None,
    te: int | None,
    with_skyline: bool,
) -> dict[int, CoreTimeResult]:
    """The CoreTime kernel: the level-fused build of ascending ``ks``.

    Behind both :func:`compute_core_times_multi` and
    :func:`~repro.core.coretime.compute_core_times` (one level), which
    call it directly rather than each other, so a traced kernel call is
    one span.
    """
    ts_lo = 1 if ts is None else ts
    ts_hi = graph.tmax if te is None else te
    graph.check_window(ts_lo, ts_hi)

    fused = _FusedMultiK(graph, ks, ts_lo, ts_hi, with_skyline)
    fused.scan_first_start()
    fused.run()
    return fused.results()


def build_core_indexes(
    graph: TemporalGraph, ks: Iterable[int]
) -> dict[int, CoreIndex]:
    """Full-span :class:`CoreIndex` for every ``k`` in ``ks``, one pass.

    Always computes; :meth:`IndexStore.build_all
    <repro.store.index_store.IndexStore.build_all>` opens stored indexes
    first and calls this for the rest.  Each call observes one
    ``repro_index_build_seconds`` sample labelled with the built ``k``
    values (``"2,4"``).  Returns ``{k: index}`` for the deduplicated
    ``ks``, ascending.
    """
    started = now()
    results = compute_core_times_multi(graph, ks)
    _build_seconds_histogram().labels(",".join(map(str, results))).observe(
        now() - started
    )
    return {
        k: CoreIndex.from_core_times(graph, k, result)
        for k, result in results.items()
    }
