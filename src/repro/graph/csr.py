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
  ``pair_times`` array holding the pair's sorted edge timestamps, stored
  once per unordered pair; the two directional slots of a pair share the
  slice (``slot_pid`` maps a slot to its pair).  Pair ids follow the
  first occurrence of each pair in edge-id order.
* **Edge→slot maps** — ``edge_slot_u[eid]`` / ``edge_slot_v[eid]`` give
  the adjacency slots of the edge's endpoints, so the decremental scan
  can maintain per-pair live-edge counts with two array writes per edge.
* **Incident-edge CSR** — per vertex, incident temporal edges in edge-id
  (so ascending timestamp) order (``inc_time`` / ``inc_other`` /
  ``inc_eid``).  The skyline harvest needs the edges of a vertex with
  time at least the current start: with an ascending sort that is a
  *suffix* of the vertex's CSR segment.

Every table is one read-only int64 ndarray, built by a few whole-array
numpy passes (one ``np.unique`` for the pairs, one ``lexsort`` per CSR)
from the graph's edge columns, which the compiled view shares.  The C
kernels take the tables' buffers as they are.  The compiled form is immutable, built once per graph and cached
on the graph by :meth:`TemporalGraph.compiled`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING

import numpy as np

from repro.utils.arrays import as_int64_array, offsets_from_keys

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.graph.temporal_graph import TemporalGraph

#: The int64 tables of a compiled graph, in store-section order (the
#: shared ``time_offset`` is persisted with the graph's parts).
TABLES = (
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
    "inc_time",
    "inc_other",
    "inc_eid",
)


def _read_only(values) -> np.ndarray:
    """``values`` as a read-only int64 ndarray (zero-copy where possible)."""
    table = as_int64_array(values)
    table.flags.writeable = False
    return table


class CompiledGraph:
    """Flat-array (CSR) view of a temporal graph, built once and reused.

    Every table (see :data:`TABLES`, plus ``time_offset``) is a read-only
    int64 ndarray; the CoreTime kernel copies the mutable bits (pair
    pointers, earliest-time cache, live counts) per build.
    """

    __slots__ = (
        "num_vertices",
        "num_edges",
        "tmax",
        "num_slots",
        "num_pairs",
        "time_offset",
        *TABLES,
    )

    def __init__(self, graph: "TemporalGraph"):
        from repro.core import native

        u, v, t = graph.edge_columns()
        n = graph.num_vertices
        m = len(u)
        self.num_vertices = n
        self.num_edges = m
        self.tmax = graph.tmax
        # The graph's prefix table (edges are stored sorted by t); shared.
        self.time_offset = graph.time_offsets()
        eids = np.arange(m, dtype=np.int64)

        # ---- distinct pairs, numbered by first occurrence ----
        unique_keys, first, inverse = np.unique(
            u * n + v, return_index=True, return_inverse=True
        )
        num_pairs = len(unique_keys)
        by_first = np.argsort(first)
        pid_of_key = np.empty(num_pairs, dtype=np.int64)
        pid_of_key[by_first] = np.arange(num_pairs, dtype=np.int64)
        edge_pid = pid_of_key[inverse.reshape(-1)]
        pair_u = u[first[by_first]]
        pair_v = v[first[by_first]]

        # ---- flat pair timestamps: a stable sort of the edges by pair
        # keeps each pair's times ascending (edges are sorted by t) ----
        by_pair, pair_offset = native.counting_order(edge_pid, num_pairs)
        pair_times = t[by_pair]

        # ---- distinct-neighbour CSR: pair p owns slot entries p (u -> v)
        # and num_pairs + p (v -> u), sorted by (owner, neighbour) ----
        owner = np.concatenate((pair_u, pair_v))
        neighbour = np.concatenate((pair_v, pair_u))
        slot_order = np.lexsort((neighbour, owner))
        slot_of_entry = np.empty(2 * num_pairs, dtype=np.int64)
        slot_of_entry[slot_order] = np.arange(2 * num_pairs, dtype=np.int64)
        adj_offsets = offsets_from_keys(owner, n)
        slot_pid = np.tile(np.arange(num_pairs, dtype=np.int64), 2)[slot_order]

        # ---- per-vertex incident edges in edge-id order ----
        endpoint = np.concatenate((u, v))
        entry_eid = np.concatenate((eids, eids))
        inc_order = np.lexsort((entry_eid, endpoint))
        inc_eid = entry_eid[inc_order]

        self.num_pairs = num_pairs
        self.num_slots = 2 * num_pairs
        self.edge_u, self.edge_v, self.edge_t = u, v, t
        tables = {
            "adj_offsets": adj_offsets,
            "adj_neighbour": neighbour[slot_order],
            "slot_pid": slot_pid,
            "slot_times_start": pair_offset[slot_pid],
            "slot_times_end": pair_offset[slot_pid + 1],
            "slot_count": pair_offset[slot_pid + 1] - pair_offset[slot_pid],
            "pair_offset": pair_offset,
            "pair_times": pair_times,
            "full_degree": adj_offsets[1:] - adj_offsets[:-1],
            "edge_slot_u": slot_of_entry[edge_pid],
            "edge_slot_v": slot_of_entry[num_pairs + edge_pid],
            "inc_offsets": offsets_from_keys(endpoint, n),
            "inc_time": t[inc_eid],
            "inc_other": np.concatenate((v, u))[inc_order],
            "inc_eid": inc_eid,
        }
        for name, table in tables.items():
            setattr(self, name, _read_only(table))

    # ------------------------------------------------------------------

    @classmethod
    def _from_parts(cls, meta: dict, parts, time_offset) -> "CompiledGraph":
        """Rebuild a compiled view from persisted flat sections.

        Trusted fast path used by :mod:`repro.store`: ``parts`` must map
        section names to int64 buffers produced by the store codec from
        a compiled graph — no consistency checks happen here.  The
        tables are zero-copy read-only views of the store's mapping.
        """
        cg = cls.__new__(cls)
        cg.num_vertices = meta["num_vertices"]
        cg.num_edges = meta["num_edges"]
        cg.tmax = meta["tmax"]
        cg.num_slots = meta["num_slots"]
        cg.num_pairs = meta["num_pairs"]
        cg.time_offset = time_offset
        for name in TABLES:
            setattr(cg, name, _read_only(parts[name]))
        return cg

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
        return range(int(self.time_offset[ts]), int(self.time_offset[te + 1]))

    def neighbours_of(self, u: int) -> list[int]:
        """Distinct neighbours of ``u`` over the full span (sorted)."""
        return self.adj_neighbour[self.adj_offsets[u] : self.adj_offsets[u + 1]].tolist()

    def pair_times_of(self, u: int, v: int) -> list[int]:
        """Sorted edge timestamps of the pair ``{u, v}`` (empty if none).

        Binary-searches ``u``'s sorted neighbour slice; O(log deg(u)).
        """
        lo, hi = int(self.adj_offsets[u]), int(self.adj_offsets[u + 1])
        slot = bisect_left(self.adj_neighbour, v, lo, hi)
        if slot == hi or self.adj_neighbour[slot] != v:
            return []
        return self.pair_times[self.slot_times_start[slot] : self.slot_times_end[slot]].tolist()

    def nbytes(self) -> int:
        """Flat-storage footprint of the tables in bytes."""
        return sum(getattr(self, name).nbytes for name in ("time_offset", *TABLES))

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
