"""Compiled flat-array representation of a temporal graph.

:class:`CompiledGraph` lowers a :class:`~repro.graph.temporal_graph.TemporalGraph`
into a handful of flat arrays so that the CoreTime kernel (Algorithm 2)
and the index-serving layer run over contiguous integer storage instead
of per-query dicts, nested list cells and closures:

* **Timestamp offsets** — edges are stored sorted by timestamp, so the
  edge ids of any window ``[ts, te]`` are the contiguous range
  ``time_offset[ts] .. time_offset[te + 1]``; window iteration is O(1)
  plus the matches.
* **Distinct-neighbour CSR** — ``adj_neighbour[adj_offsets[u] :
  adj_offsets[u + 1]]`` lists the distinct neighbours of ``u`` (sorted by
  vertex id).  Each adjacency *slot* carries the half-open slice
  ``slot_times_start[s] : slot_times_end[s]`` into the single flat
  ``pair_times`` array (``array('q')``) holding the pair's sorted edge
  timestamps, stored once per unordered pair; the two directional slots
  of a pair share the slice (``slot_pid`` maps a slot to its pair).
* **Edge→slot maps** — ``edge_slot_u[eid]`` / ``edge_slot_v[eid]`` give
  the adjacency slots of the edge's endpoints, so the decremental scan
  can maintain per-pair live-edge counts with two array writes per edge.
* **Incident-edge CSR** — per vertex, incident temporal edges sorted by
  ascending timestamp (``np_inc_time`` / ``np_inc_other`` /
  ``np_inc_eid``).  The skyline-emission loop needs the edges of a vertex
  with time at least the current start: with an ascending sort that is a
  binary-searchable *suffix* of the vertex's CSR segment, which the
  kernel slices with ``numpy.searchsorted`` and processes vectorised.

Arrays that feed the kernel's vectorised inner loops are mirrored as
``numpy.int64`` arrays (``np_`` prefix); the pointer-chasing loops of the
initial decremental scan read the plain-Python side.  The compiled form
is immutable, built once per graph in a single pass, and cached on the
graph by :meth:`TemporalGraph.compiled`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import TYPE_CHECKING

import numpy as np

from repro.utils.arrays import as_int64_array

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.graph.temporal_graph import TemporalGraph


def _int64_ndarray(section) -> np.ndarray:
    """An ``int64`` ndarray over any int64 buffer (zero-copy when possible)."""
    if len(section) == 0:
        return np.empty(0, dtype=np.int64)
    return np.frombuffer(section, dtype=np.int64)


class CompiledGraph:
    """Flat-array (CSR) view of a temporal graph, built once and reused.

    All attributes are read-only by convention; the CoreTime kernel
    copies the mutable bits (pair pointers, earliest-time cache, live
    counts) per query.
    """

    __slots__ = (
        "num_vertices",
        "num_edges",
        "tmax",
        "num_slots",
        "num_pairs",
        "edge_u",
        "edge_v",
        "edge_t",
        "time_offset",
        "adj_offsets",
        "adj_neighbour",
        "slot_pid",
        "slot_times_start",
        "slot_times_end",
        "slot_count",
        "pair_offset",
        "pair_times",
        "full_degree",
        "edge_slot_u",
        "edge_slot_v",
        "inc_offsets",
        "np_adj_neighbour",
        "np_slot_pid",
        "np_slot_first_time",
        "np_edge_u",
        "np_edge_v",
        "np_edge_t",
        "np_edge_slot_u",
        "np_inc_time",
        "np_inc_other",
        "np_inc_eid",
        "_int64_tables",
    )

    def __init__(self, graph: "TemporalGraph"):
        edges = graph.edges
        n = graph.num_vertices
        m = len(edges)
        tmax = graph.tmax
        self.num_vertices = n
        self.num_edges = m
        self.tmax = tmax

        edge_u = array("q", bytes(8 * m))
        edge_v = array("q", bytes(8 * m))
        edge_t = array("q", bytes(8 * m))
        for eid, (u, v, t) in enumerate(edges):
            edge_u[eid] = u
            edge_v[eid] = v
            edge_t[eid] = t

        # Timestamp -> edge-id offsets: the graph already maintains the
        # prefix table (edges are stored sorted by t); share it.
        time_offset = graph.time_offsets()

        # ---- distinct pairs and their timestamp lists ----
        # Edges arrive sorted by (t, u, v) with u < v, so each pair's
        # timestamp list is built already sorted.
        pair_ids: dict[int, int] = {}
        pair_times_lists: list[list[int]] = []
        pair_endpoints: list[tuple[int, int]] = []
        for u, v, t in edges:
            key = u * n + v
            pid = pair_ids.get(key)
            if pid is None:
                pair_ids[key] = len(pair_times_lists)
                pair_times_lists.append([t])
                pair_endpoints.append((u, v))
            else:
                pair_times_lists[pid].append(t)
        num_pairs = len(pair_times_lists)
        self.num_pairs = num_pairs

        # ---- distinct-neighbour CSR (sorted by neighbour id) ----
        neighbour_lists: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for pid, (u, v) in enumerate(pair_endpoints):
            neighbour_lists[u].append((v, pid))
            neighbour_lists[v].append((u, pid))
        num_slots = 2 * num_pairs
        self.num_slots = num_slots

        adj_offsets = [0] * (n + 1)
        adj_neighbour = [0] * num_slots
        slot_pid = [0] * num_slots
        slot_lookup: dict[int, int] = {}
        cursor = 0
        for u in range(n):
            adj_offsets[u] = cursor
            lst = neighbour_lists[u]
            lst.sort()
            for v, pid in lst:
                adj_neighbour[cursor] = v
                slot_pid[cursor] = pid
                slot_lookup[u * n + v] = cursor
                cursor += 1
        adj_offsets[n] = cursor

        # ---- flat pair timestamps with per-slot slices ----
        pair_offset = [0] * (num_pairs + 1)
        running = 0
        for pid, times in enumerate(pair_times_lists):
            pair_offset[pid] = running
            running += len(times)
        pair_offset[num_pairs] = running
        pair_times = array("q", bytes(8 * running))
        write = 0
        for times in pair_times_lists:
            for t in times:
                pair_times[write] = t
                write += 1
        slot_times_start = [pair_offset[pid] for pid in slot_pid]
        slot_times_end = [pair_offset[pid + 1] for pid in slot_pid]
        slot_count = [pair_offset[pid + 1] - pair_offset[pid] for pid in slot_pid]
        full_degree = [adj_offsets[u + 1] - adj_offsets[u] for u in range(n)]

        # ---- edge -> adjacency-slot maps ----
        edge_slot_u = array("q", bytes(8 * m))
        edge_slot_v = array("q", bytes(8 * m))
        for eid, (u, v, _) in enumerate(edges):
            edge_slot_u[eid] = slot_lookup[u * n + v]
            edge_slot_v[eid] = slot_lookup[v * n + u]

        # ---- per-vertex incident edges, ascending timestamp ----
        inc_degree = [0] * n
        for u, v, _ in edges:
            inc_degree[u] += 1
            inc_degree[v] += 1
        inc_offsets = [0] * (n + 1)
        running = 0
        for u in range(n):
            inc_offsets[u] = running
            running += inc_degree[u]
        inc_offsets[n] = running
        inc_time = array("q", bytes(8 * running))
        inc_other = array("q", bytes(8 * running))
        inc_eid = array("q", bytes(8 * running))
        fill = list(inc_offsets[:n])
        for eid in range(m):
            u = edge_u[eid]
            v = edge_v[eid]
            t = edge_t[eid]
            pos = fill[u]
            inc_time[pos] = t
            inc_other[pos] = v
            inc_eid[pos] = eid
            fill[u] = pos + 1
            pos = fill[v]
            inc_time[pos] = t
            inc_other[pos] = u
            inc_eid[pos] = eid
            fill[v] = pos + 1

        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_t = edge_t
        self.time_offset = time_offset
        # Tuples, not lists: the garbage collector untracks a tuple of
        # ints the first time it sees one, so these tables never cost a
        # collection pass again.
        self.adj_offsets = tuple(adj_offsets)
        self.adj_neighbour = tuple(adj_neighbour)
        self.slot_pid = tuple(slot_pid)
        self.slot_times_start = tuple(slot_times_start)
        self.slot_times_end = tuple(slot_times_end)
        self.slot_count = tuple(slot_count)
        self.pair_offset = tuple(pair_offset)
        self.pair_times = pair_times
        self.full_degree = tuple(full_degree)
        self.edge_slot_u = edge_slot_u
        self.edge_slot_v = edge_slot_v
        self.inc_offsets = tuple(inc_offsets)

        # ---- numpy mirrors feeding the vectorised kernel loops ----
        self.np_adj_neighbour = np.asarray(adj_neighbour, dtype=np.int64)
        self.np_slot_pid = np.asarray(slot_pid, dtype=np.int64)
        self.np_slot_first_time = np.asarray(
            [pair_times[start] for start in slot_times_start] if num_slots else [],
            dtype=np.int64,
        )
        self.np_edge_u = np.frombuffer(edge_u, dtype=np.int64) if m else np.empty(0, np.int64)
        self.np_edge_v = np.frombuffer(edge_v, dtype=np.int64) if m else np.empty(0, np.int64)
        self.np_edge_t = np.frombuffer(edge_t, dtype=np.int64) if m else np.empty(0, np.int64)
        self.np_edge_slot_u = (
            np.frombuffer(edge_slot_u, dtype=np.int64) if m else np.empty(0, np.int64)
        )
        self.np_inc_time = np.frombuffer(inc_time, dtype=np.int64) if running else np.empty(0, np.int64)
        self.np_inc_other = np.frombuffer(inc_other, dtype=np.int64) if running else np.empty(0, np.int64)
        self.np_inc_eid = np.frombuffer(inc_eid, dtype=np.int64) if running else np.empty(0, np.int64)
        self._int64_tables: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------

    @classmethod
    def _from_parts(cls, meta: dict, parts, time_offset) -> "CompiledGraph":
        """Rebuild a compiled view from persisted flat sections.

        Trusted fast path used by :mod:`repro.store`: ``parts`` must map
        section names to int64 sequences produced by the store codec
        from a compiled graph — no consistency checks happen here.
        Sequence attributes may be zero-copy ``memoryview`` slices of
        the store's file mapping; every kernel consumer indexes, slices
        or copies them, which memoryviews support.
        """
        cg = cls.__new__(cls)
        cg.num_vertices = meta["num_vertices"]
        cg.num_edges = meta["num_edges"]
        cg.tmax = meta["tmax"]
        cg.num_slots = meta["num_slots"]
        cg.num_pairs = meta["num_pairs"]
        cg.time_offset = time_offset
        for name in (
            "edge_u",
            "edge_v",
            "edge_t",
            "adj_offsets",
            "adj_neighbour",
            "slot_pid",
            "slot_times_start",
            "slot_times_end",
            "slot_count",
            "pair_offset",
            "pair_times",
            "full_degree",
            "edge_slot_u",
            "edge_slot_v",
            "inc_offsets",
        ):
            setattr(cg, name, parts[name])
        cg.np_adj_neighbour = _int64_ndarray(parts["adj_neighbour"])
        cg.np_slot_pid = _int64_ndarray(parts["slot_pid"])
        cg.np_edge_u = _int64_ndarray(parts["edge_u"])
        cg.np_edge_v = _int64_ndarray(parts["edge_v"])
        cg.np_edge_t = _int64_ndarray(parts["edge_t"])
        cg.np_edge_slot_u = _int64_ndarray(parts["edge_slot_u"])
        cg.np_inc_time = _int64_ndarray(parts["inc_time"])
        cg.np_inc_other = _int64_ndarray(parts["inc_other"])
        cg.np_inc_eid = _int64_ndarray(parts["inc_eid"])
        np_pair_times = _int64_ndarray(parts["pair_times"])
        starts = _int64_ndarray(parts["slot_times_start"])
        cg.np_slot_first_time = (
            np_pair_times[starts] if cg.num_slots else np.empty(0, np.int64)
        )
        cg._int64_tables = {}
        return cg

    def int64_table(self, name: str) -> np.ndarray:
        """The int table attribute ``name`` as an int64 ndarray (do not mutate).

        Converted on first use and cached: the C kernels take every
        table as an int64 buffer, and the tuple tables would otherwise
        be converted again on every build.
        """
        table = self._int64_tables.get(name)
        if table is None:
            table = self._int64_tables[name] = as_int64_array(getattr(self, name))
        return table

    def window_edge_range(self, ts: int, te: int) -> range:
        """Edge ids with timestamp in ``[ts, te]`` as a contiguous range.

        Bounds are clamped to the graph span; an empty window yields an
        empty range.  O(1).
        """
        if te < ts or te < 1 or ts > self.tmax:
            return range(0, 0)
        if ts < 1:
            ts = 1
        if te > self.tmax:
            te = self.tmax
        return range(self.time_offset[ts], self.time_offset[te + 1])

    def neighbours_of(self, u: int) -> list[int]:
        """Distinct neighbours of ``u`` over the full span (sorted)."""
        return list(self.adj_neighbour[self.adj_offsets[u] : self.adj_offsets[u + 1]])

    def pair_times_of(self, u: int, v: int) -> list[int]:
        """Sorted edge timestamps of the pair ``{u, v}`` (empty if none).

        Binary-searches ``u``'s sorted neighbour slice; O(log deg(u)).
        """
        hi = self.adj_offsets[u + 1]
        slot = bisect_left(self.adj_neighbour, v, self.adj_offsets[u], hi)
        if slot == hi or self.adj_neighbour[slot] != v:
            return []
        return list(
            self.pair_times[self.slot_times_start[slot] : self.slot_times_end[slot]]
        )

    def nbytes(self) -> int:
        """Approximate flat-storage footprint in bytes (flat arrays only).

        Numpy mirrors created with ``frombuffer`` share memory with their
        ``array('q')`` source (their ``base`` is set) and are not counted
        twice; only owning arrays contribute.
        """
        total = 0
        for name in self.__slots__:
            value = getattr(self, name)
            if isinstance(value, array):
                total += value.itemsize * len(value)
            elif isinstance(value, memoryview):
                total += value.nbytes
            elif isinstance(value, np.ndarray):
                if value.base is None:
                    total += value.nbytes
            elif isinstance(value, (list, tuple)):
                total += 8 * len(value)
        return total

    def __repr__(self) -> str:
        return (
            f"CompiledGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"pairs={self.num_pairs}, tmax={self.tmax})"
        )


def compile_graph(graph: "TemporalGraph") -> CompiledGraph:
    """Build (without caching) the compiled view of ``graph``.

    Most callers should use :meth:`TemporalGraph.compiled`, which caches
    the result on the graph instance.
    """
    return CompiledGraph(graph)
