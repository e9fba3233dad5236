"""Dataset statistics — the generated side of Table III.

Computes, for any temporal graph, the four columns the paper reports:
``|V|``, ``|E|``, ``tmax`` (number of distinct timestamps) and ``kmax``
(the maximum core number over the whole-span simple graph).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.static_core import core_decomposition
from repro.graph.temporal_graph import TemporalGraph


@dataclass(frozen=True)
class DatasetStats:
    """Table III columns for one graph, plus the degree average used in
    the ``|VCT| * deg_avg`` complexity term."""

    num_vertices: int
    num_edges: int
    tmax: int
    kmax: int
    avg_degree: float

    def as_row(self) -> tuple[int, int, int, int]:
        return (self.num_vertices, self.num_edges, self.tmax, self.kmax)


def compute_stats(graph: TemporalGraph) -> DatasetStats:
    """Compute the Table III statistics of a temporal graph."""
    adjacency: dict[int, set[int]] = {}
    edge_u, edge_v, _ = graph.edge_columns()
    for u, v in zip(edge_u.tolist(), edge_v.tolist()):
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    cores = core_decomposition(adjacency)
    kmax = max(cores.values(), default=0)
    degrees = graph.degree_statistics()
    return DatasetStats(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        tmax=graph.tmax,
        kmax=kmax,
        avg_degree=degrees["avg"],
    )


def default_k(stats: DatasetStats, fraction: float = 0.3) -> int:
    """The paper's parameterisation: ``k = fraction * kmax`` (>= 2).

    The default fraction (30%) matches the paper's default; results are
    rounded to the nearest integer and clamped below by 2 because k = 1
    cores are degenerate (every edge forms one).
    """
    return max(2, round(stats.kmax * fraction))


def default_range_width(stats: DatasetStats, fraction: float = 0.1) -> int:
    """The paper's range width: ``fraction * tmax`` (at least 1)."""
    return max(1, round(stats.tmax * fraction))
