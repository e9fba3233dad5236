"""Historical k-core queries — the query side of Yu et al. [13].

The time-range problem generalises the *historical* k-core query: given a
single window ``[ts, te]``, return the k-core of ``G[ts, te]``.  With the
VCT index this is answered without touching the graph topology: a vertex
``u`` belongs to the core iff ``CT_ts(u) <= te`` (Definition 4).

:class:`PHCIndex` extends the single-k VCT to all core levels
``1..kmax`` — the full "PHC" shape of [13] — so that arbitrary ``(k, ts,
te)`` historical queries are index-only.  The paper uses only the fixed-k
slice, but the multi-k index is a natural library feature and exercises
the same machinery.
"""

from __future__ import annotations

from repro.core.coretime import VertexCoreTimeIndex, compute_vertex_core_times
from repro.errors import InvalidParameterError
from repro.graph.static_core import core_decomposition
from repro.graph.temporal_graph import TemporalGraph


def historical_core_vertices(
    graph: TemporalGraph, vct: VertexCoreTimeIndex, ts: int, te: int
) -> set[int]:
    """Vertices of the k-core of ``G[ts, te]`` answered from the index.

    One vectorised sweep over the flat VCT arrays
    (:meth:`VertexCoreTimeIndex.core_members`), as
    :meth:`CoreIndex.historical_core <repro.core.index.CoreIndex.historical_core>`.
    """
    graph.check_window(ts, te)
    return set(vct.core_members(ts, te).tolist())


def historical_core_edge_ids(
    graph: TemporalGraph, vct: VertexCoreTimeIndex, ts: int, te: int
) -> list[int]:
    """Temporal edge ids of the k-core of ``G[ts, te]``.

    An edge belongs to the core iff both endpoints do and its timestamp
    falls inside the window (the fact behind Lemma 1).
    """
    members = historical_core_vertices(graph, vct, ts, te)
    if not members:
        return []
    return [
        eid
        for eid in graph.window_edge_ids(ts, te)
        if graph.edges[eid].u in members and graph.edges[eid].v in members
    ]


class PHCIndex:
    """Per-k VCT indexes for every core level of the graph.

    Building costs one :func:`compute_vertex_core_times` run per k in
    ``1..kmax``; queries are then index-only for any k.
    """

    def __init__(self, graph: TemporalGraph, *, max_k: int | None = None):
        self.graph = graph
        if max_k is None:
            adjacency: dict[int, set[int]] = {}
            for u, v, _ in graph.edges:
                adjacency.setdefault(u, set()).add(v)
                adjacency.setdefault(v, set()).add(u)
            cores = core_decomposition(adjacency)
            max_k = max(cores.values(), default=0)
        if max_k < 1:
            raise InvalidParameterError("graph has no core level >= 1")
        self.max_k = max_k
        self._levels: dict[int, VertexCoreTimeIndex] = {}

    def level(self, k: int) -> VertexCoreTimeIndex:
        """The VCT index for core level ``k`` (built lazily, cached)."""
        if k < 1 or k > self.max_k:
            raise InvalidParameterError(f"k={k} outside 1..{self.max_k}")
        index = self._levels.get(k)
        if index is None:
            index = compute_vertex_core_times(self.graph, k)
            self._levels[k] = index
        return index

    def build_all(self) -> None:
        """Eagerly build every level (the offline PHC construction)."""
        for k in range(1, self.max_k + 1):
            self.level(k)

    def query(self, k: int, ts: int, te: int) -> set[int]:
        """Historical k-core members of ``G[ts, te]``."""
        return historical_core_vertices(self.graph, self.level(k), ts, te)

    def size(self) -> int:
        """Total entries across all built levels."""
        return sum(index.size() for index in self._levels.values())
