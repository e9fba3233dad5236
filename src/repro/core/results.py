"""Result types for temporal k-core enumeration.

A temporal k-core is identified by its edge set (Section II); its Tightest
Time Interval (Definition 3) is the minimal window spanning those edges
and is in one-to-one correspondence with the core.  ``|R|`` — the metric
the paper's complexity analysis and Figure 4 are built on — is the *total
number of edges across all distinct resulting cores*.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.graph.temporal_graph import TemporalGraph
from repro.utils.arrays import unique_sorted


@dataclass(frozen=True)
class TemporalKCore:
    """One distinct temporal k-core.

    Attributes
    ----------
    tti:
        The tightest time interval ``(ts, te)`` of the core.
    edge_ids:
        Ids of the temporal edges forming the core, in discovery order.
    """

    tti: tuple[int, int]
    edge_ids: tuple[int, ...]

    @property
    def num_edges(self) -> int:
        return len(self.edge_ids)

    def edge_set(self) -> frozenset[int]:
        """Canonical identity of the core (frozen set of edge ids)."""
        return frozenset(self.edge_ids)

    def edge_triples(
        self, graph: TemporalGraph
    ) -> list[tuple[Hashable, Hashable, int]]:
        """Edges as ``(label_u, label_v, t)`` triples."""
        return [
            (graph.label_of(u), graph.label_of(v), t)
            for u, v, t in (graph.edges[eid] for eid in self.edge_ids)
        ]

    def vertices(self, graph: TemporalGraph) -> set[int]:
        """Internal vertex ids spanned by the core's edges.

        One gather of both endpoint columns of the compiled graph.
        """
        cg = graph.compiled()
        eids = np.asarray(self.edge_ids, dtype=np.int64)
        ends = np.concatenate((cg.edge_u[eids], cg.edge_v[eids]))
        return set(unique_sorted(ends).tolist())

    def vertex_labels(self, graph: TemporalGraph) -> set[Hashable]:
        return {graph.label_of(u) for u in self.vertices(graph)}


#: Streaming consumer signature: ``(tti_start, tti_end, edge_ids_prefix)``.
#: ``edge_ids_prefix`` is a *live, growing* list — consumers that keep it
#: must copy; the enumerator materialises a copy itself in collect mode.
ResultCallback = Callable[[int, int, list[int]], None]


@dataclass
class EnumerationResult:
    """Aggregate outcome of one enumeration run.

    ``cores`` is populated only in collect mode; counters are always
    maintained so benchmark runs can stream without materialising results.
    ``completed`` is false when a deadline aborted the run (the paper's
    6-hour DNFs on OTCD are reported this way).
    """

    algorithm: str
    k: int
    time_range: tuple[int, int]
    num_results: int = 0
    total_edges: int = 0
    completed: bool = True
    cores: list[TemporalKCore] | None = None
    extra: dict[str, float] = field(default_factory=dict)

    def record(self, ts: int, te: int, edge_ids: list[int], collect: bool) -> None:
        """Account one result (and store it when collecting)."""
        self.num_results += 1
        self.total_edges += len(edge_ids)
        if collect:
            if self.cores is None:
                self.cores = []
            self.cores.append(TemporalKCore((ts, te), tuple(edge_ids)))

    def edge_sets(self) -> set[frozenset[int]]:
        """Set of canonical core identities (requires collect mode)."""
        if self.cores is None:
            raise ValueError("results were not collected; rerun with collect=True")
        return {core.edge_set() for core in self.cores}

    def by_tti(self) -> dict[tuple[int, int], TemporalKCore]:
        """Cores keyed by TTI (requires collect mode)."""
        if self.cores is None:
            raise ValueError("results were not collected; rerun with collect=True")
        return {core.tti: core for core in self.cores}

    def __iter__(self) -> Iterator[TemporalKCore]:
        if self.cores is None:
            raise ValueError("results were not collected; rerun with collect=True")
        return iter(self.cores)

    def __len__(self) -> int:
        return self.num_results
