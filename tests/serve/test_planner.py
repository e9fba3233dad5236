"""Planner unit tests: grouping, dedup, merge policy, engine tags."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.graph.temporal_graph import TemporalGraph
from repro.serve.planner import (
    DEFAULT_MIN_OVERLAP,
    QueryRequest,
    plan_for_index,
    plan_queries,
)


@pytest.fixture()
def graph() -> TemporalGraph:
    edges = [(f"u{i}", f"u{i + 1}", t) for t in range(1, 101) for i in range(3)]
    return TemporalGraph(edges)


def ranges_of(plan):
    return {
        (group.graph, group.k): [(w.ts, w.te, sorted(w.requests)) for w in group.windows]
        for group in plan.groups
    }


class TestGrouping:
    def test_groups_by_graph_and_k(self, graph, paper_graph):
        plan = plan_queries([
            QueryRequest(graph, 2, 1, 10),
            QueryRequest(paper_graph, 2, 1, 4),
            QueryRequest(graph, 3, 1, 10),
            QueryRequest(graph, 2, 50, 60),
        ])
        keys = [(group.graph, group.k) for group in plan.groups]
        assert keys == [(graph, 2), (paper_graph, 2), (graph, 3)]
        assert plan.stats["groups"] == 3
        assert plan.stats["requests"] == 4

    def test_identical_ranges_dedupe_into_one_window(self, graph):
        plan = plan_queries([QueryRequest(graph, 2, 5, 20)] * 4)
        assert plan.num_windows == 1
        (window,) = plan.groups[0].windows
        assert (window.ts, window.te) == (5, 20)
        assert window.requests == [0, 1, 2, 3]
        assert plan.stats["deduped"] == 3
        assert window.is_shared

    def test_contained_range_rides_along(self, graph):
        plan = plan_queries([
            QueryRequest(graph, 2, 1, 50),
            QueryRequest(graph, 2, 10, 20),
        ])
        assert plan.num_windows == 1
        (window,) = plan.groups[0].windows
        assert (window.ts, window.te) == (1, 50)
        assert sorted(window.requests) == [0, 1]
        assert plan.stats["merged"] == 1

    def test_heavy_overlap_merges(self, graph):
        plan = plan_queries([
            QueryRequest(graph, 2, 1, 40),
            QueryRequest(graph, 2, 10, 50),
        ])
        assert plan.num_windows == 1
        (window,) = plan.groups[0].windows
        assert (window.ts, window.te) == (1, 50)

    def test_thin_overlap_stays_separate(self, graph):
        plan = plan_queries([
            QueryRequest(graph, 2, 1, 40),
            QueryRequest(graph, 2, 40, 80),
        ])
        assert plan.num_windows == 2

    def test_disjoint_never_merge(self, graph):
        plan = plan_queries([
            QueryRequest(graph, 2, 1, 10),
            QueryRequest(graph, 2, 11, 20),
        ])
        assert plan.num_windows == 2
        assert plan.stats["merged"] == 0

    def test_merge_overlaps_false_keeps_distinct_ranges(self, graph):
        plan = plan_queries(
            [
                QueryRequest(graph, 2, 1, 50),
                QueryRequest(graph, 2, 10, 20),
                QueryRequest(graph, 2, 10, 20),
            ],
            merge_overlaps=False,
        )
        assert plan.num_windows == 2  # identical ranges still dedupe
        assert plan.stats["deduped"] == 1
        assert plan.stats["merged"] == 0

    def test_chained_merge_extends_the_window(self, graph):
        plan = plan_queries([
            QueryRequest(graph, 2, 1, 30),
            QueryRequest(graph, 2, 15, 45),
            QueryRequest(graph, 2, 28, 60),
        ])
        assert plan.num_windows == 1
        (window,) = plan.groups[0].windows
        assert (window.ts, window.te) == (1, 60)


class TestEngineChoice:
    def test_default_engine_is_index(self, graph):
        plan = plan_queries([QueryRequest(graph, 2, 1, 10)])
        assert plan.groups[0].engine == "index"

    def test_forced_engines(self, graph):
        for engine in ("index", "direct"):
            plan = plan_queries(
                [QueryRequest(graph, 2, 1, 10)] * 2, engine=engine
            )
            assert all(group.engine == engine for group in plan.groups)


class TestValidation:
    def test_bad_k_rejected_at_request_construction(self, graph):
        with pytest.raises(InvalidParameterError):
            QueryRequest(graph, 0, 1, 10)

    def test_bad_window_rejected_at_request_construction(self, graph):
        with pytest.raises(InvalidParameterError):
            QueryRequest(graph, 2, 10, 1)
        with pytest.raises(InvalidParameterError):
            QueryRequest(graph, 2, 0, 10)

    def test_unknown_engine_rejected(self, graph):
        for engine in ("magic", "auto"):
            with pytest.raises(InvalidParameterError):
                plan_queries([QueryRequest(graph, 2, 1, 10)], engine=engine)

    def test_default_min_overlap_is_half(self):
        assert DEFAULT_MIN_OVERLAP == 0.5


class TestPlanForIndex:
    def test_pins_the_index_on_every_group(self, paper_graph):
        from repro.core.index import CoreIndex

        index = CoreIndex(paper_graph, 2)
        plan = plan_for_index(index, [(1, 4), (2, 4), (1, 4)])
        assert all(group.index is index for group in plan.groups)
        assert all(group.engine == "index" for group in plan.groups)
        assert plan.stats["deduped"] == 1

    def test_sinks_must_parallel_ranges(self, paper_graph):
        from repro.core.index import CoreIndex

        index = CoreIndex(paper_graph, 2)
        with pytest.raises(InvalidParameterError):
            plan_for_index(index, [(1, 4)], sinks=[None, None])
