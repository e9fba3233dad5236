"""Static snapshots of a temporal graph over a time window.

The paper's Definition 2 evaluates k-cores on the *projected graph*
``G[ts, te]`` — the unlabelled multigraph of all edges inside the window —
with degrees counted over distinct neighbours.  :class:`Snapshot` is the
simple-graph view used by the static k-core engine and the brute-force
oracle: it collapses parallel temporal edges of a pair into one static
edge while remembering the temporal edge ids behind each pair.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.graph.temporal_graph import TemporalGraph


class Snapshot:
    """Simple undirected graph induced by a time window.

    Attributes
    ----------
    window:
        The ``(ts, te)`` window the snapshot was taken over.
    """

    __slots__ = ("window", "_adj", "_pair_edge_ids", "_num_vertices")

    def __init__(self, num_vertices: int, window: tuple[int, int]):
        self.window = window
        self._num_vertices = num_vertices
        self._adj: dict[int, set[int]] = {}
        self._pair_edge_ids: dict[tuple[int, int], list[int]] = {}

    @classmethod
    def from_graph(cls, graph: TemporalGraph, ts: int, te: int) -> "Snapshot":
        """Project ``graph`` onto ``[ts, te]`` and collapse parallel edges."""
        snapshot = cls(graph.num_vertices, (ts, te))
        adj = snapshot._adj
        pair_ids = snapshot._pair_edge_ids
        window = graph.window_edge_ids(ts, te)
        edge_u, edge_v, _ = graph.edge_columns()
        rows = slice(window.start, window.stop)
        for eid, u, v in zip(window, edge_u[rows].tolist(), edge_v[rows].tolist()):
            pair = (u, v)
            ids = pair_ids.get(pair)
            if ids is None:
                pair_ids[pair] = [eid]
                adj.setdefault(u, set()).add(v)
                adj.setdefault(v, set()).add(u)
            else:
                ids.append(eid)
        return snapshot

    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the *parent* graph (isolated ones included)."""
        return self._num_vertices

    @property
    def num_active_vertices(self) -> int:
        """Vertices incident to at least one edge inside the window."""
        return len(self._adj)

    @property
    def num_static_edges(self) -> int:
        return len(self._pair_edge_ids)

    def neighbours(self, u: int) -> set[int]:
        """Distinct neighbours of ``u`` within the window (empty set if none)."""
        return self._adj.get(u, set())

    def degree(self, u: int) -> int:
        return len(self._adj.get(u, ()))

    def vertices(self) -> Iterator[int]:
        """Iterate over active vertices."""
        return iter(self._adj)

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Iterate over static edges as canonical ``(u, v)`` with ``u < v``."""
        return iter(self._pair_edge_ids)

    def temporal_edge_ids(self, u: int, v: int) -> list[int]:
        """Ids of the temporal edges behind static pair ``{u, v}``."""
        if u > v:
            u, v = v, u
        return self._pair_edge_ids.get((u, v), [])

    def induced_temporal_edge_ids(self, vertices: set[int]) -> list[int]:
        """All temporal edge ids with both endpoints inside ``vertices``."""
        ids: list[int] = []
        for (u, v), eids in self._pair_edge_ids.items():
            if u in vertices and v in vertices:
                ids.extend(eids)
        return ids

    def __repr__(self) -> str:
        ts, te = self.window
        return (
            f"Snapshot(window=[{ts}, {te}], active={self.num_active_vertices}, "
            f"pairs={self.num_static_edges})"
        )
