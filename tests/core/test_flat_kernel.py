"""Compiled flat-array CoreTime kernel vs the reference implementation.

Seeded property tests: on random multigraphs the vectorised kernel of
:mod:`repro.core.coretime` must emit *identical* VCT transition lists and
ECS windows to the preserved dict-based kernel of
:mod:`repro.core.coretime_ref`, over the full span and arbitrary
sub-windows; and every query engine (including the shared-index serving
path) must enumerate the same cores.
"""

from __future__ import annotations

import pytest

from repro.core.coretime import (
    compute_core_times,
    compute_vertex_core_times,
    core_time_by_rescan,
)
from repro.core.coretime_ref import (
    compute_core_times_reference,
    core_time_by_rescan_reference,
)
from repro.core.query import ENGINES, TimeRangeCoreQuery
from repro.graph.generators import uniform_random_temporal
from repro.graph.temporal_graph import TemporalGraph


def assert_identical(graph, k, ts=None, te=None):
    flat = compute_core_times(graph, k, ts, te)
    reference = compute_core_times_reference(graph, k, ts, te)
    assert flat.vct.span == reference.vct.span
    for u in range(graph.num_vertices):
        assert flat.vct.entries_of(u) == reference.vct.entries_of(u), (u, k, ts, te)
    assert flat.ecs is not None and reference.ecs is not None
    for eid in range(graph.num_edges):
        assert flat.ecs.windows_of(eid) == reference.ecs.windows_of(eid), (
            eid, k, ts, te,
        )


@pytest.fixture(params=range(6))
def property_graph(request) -> TemporalGraph:
    """Seeded random multigraphs, denser than the oracle fixtures."""
    return uniform_random_temporal(14, 110, tmax=16, seed=1000 + request.param)


class TestKernelEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_full_span_identical(self, property_graph, k):
        assert_identical(property_graph, k)

    @pytest.mark.parametrize("k", [2, 3])
    def test_subwindows_identical(self, property_graph, k):
        tmax = property_graph.tmax
        for ts, te in [(2, tmax), (1, tmax - 2), (3, tmax - 3), (5, 9), (4, 4)]:
            if 1 <= ts <= te <= tmax:
                assert_identical(property_graph, k, ts, te)

    def test_paper_graph_identical(self, paper_graph):
        for k in (1, 2, 3, 4):
            assert_identical(paper_graph, k)

    def test_rescan_matches_reference(self, property_graph):
        tmax = property_graph.tmax
        for k in (2, 3):
            for ts, te in [(1, tmax), (2, tmax - 1), (tmax // 2, tmax)]:
                assert core_time_by_rescan(
                    property_graph, k, ts, te
                ) == core_time_by_rescan_reference(property_graph, k, ts, te)

    def test_rescan_values_are_plain_ints(self, property_graph):
        cts = core_time_by_rescan(property_graph, 2, 1, property_graph.tmax)
        for u, ct in cts.items():
            assert type(u) is int and type(ct) is int

    def test_vct_entries_are_plain_ints(self, property_graph):
        vct = compute_vertex_core_times(property_graph, 2)
        for u in range(property_graph.num_vertices):
            for start, ct in vct.entries_of(u):
                assert type(start) is int
                assert ct is None or type(ct) is int


@pytest.mark.usefixtures("numpy_fixpoint")
class TestKernelEquivalenceNumpy(TestKernelEquivalence):
    """Every kernel case again on the fallback: Python scan, numpy step loop."""


class TestEnginesAgree:
    @pytest.mark.parametrize("engine", [e for e in ENGINES if e != "enum"])
    def test_engine_matches_enum_on_random_graphs(self, property_graph, engine):
        tmax = property_graph.tmax
        for ts, te in [(1, tmax), (2, tmax - 2)]:
            expected = TimeRangeCoreQuery(
                property_graph, k=2, time_range=(ts, te), engine="enum"
            ).run()
            got = TimeRangeCoreQuery(
                property_graph, k=2, time_range=(ts, te), engine=engine
            ).run()
            assert got.edge_sets() == expected.edge_sets(), (engine, ts, te)

    def test_index_engine_reuses_cached_index(self, property_graph):
        from repro.core.index import CoreIndexRegistry

        registry = CoreIndexRegistry(capacity=2)
        tmax = property_graph.tmax
        for ts, te in [(1, tmax), (2, tmax - 1), (1, tmax // 2)]:
            TimeRangeCoreQuery(
                property_graph,
                k=2,
                time_range=(ts, te),
                engine="index",
                registry=registry,
            ).run()
        stats = registry.stats()
        assert (stats["misses"], stats["hits"]) == (1, 2)


class TestMultigraphEdgeCases:
    def test_heavy_parallel_edges(self):
        triples = []
        for t in range(1, 8):
            triples += [("a", "b", t), ("b", "c", t), ("a", "c", t)] * 2
        graph = TemporalGraph(triples)
        for k in (1, 2, 3):
            assert_identical(graph, k)

    def test_disconnected_components(self):
        graph = TemporalGraph(
            [("a", "b", 1), ("b", "c", 2), ("a", "c", 3),
             ("x", "y", 4), ("y", "z", 5), ("x", "z", 6)]
        )
        for k in (1, 2):
            assert_identical(graph, k)

    def test_k_above_max_degree(self, property_graph):
        result = compute_core_times(property_graph, 50)
        assert result.vct.size() == 0
        assert result.ecs is not None and result.ecs.size() == 0
