"""Planner unit tests: grouping, dedup, merge policy, sharing rule, engine tags."""

from __future__ import annotations

import io
import random

import pytest

from repro.errors import InvalidParameterError
from repro.graph.temporal_graph import TemporalGraph
from repro.serve.planner import (
    DEFAULT_MIN_OVERLAP,
    QueryRequest,
    plan_for_index,
    plan_queries,
)
from repro.serve.sinks import CountSink, MaterializingSink, NDJSONSink


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

    def test_chained_merge_extends_the_window(self, graph):
        plan = plan_queries([
            QueryRequest(graph, 2, 1, 30),
            QueryRequest(graph, 2, 15, 45),
            QueryRequest(graph, 2, 28, 60),
        ])
        assert plan.num_windows == 1
        (window,) = plan.groups[0].windows
        assert (window.ts, window.te) == (1, 60)


def contended_ranges(rng, tmax, count, hot_regions=8):
    """Ranges piling onto ``hot_regions`` hot spots, 25% exact repeats.

    The draw of ``perfbench``'s ``serve-read`` batches
    (``perfbench/gens.py``), repeated here so the planner's shape for
    that traffic is pinned by the test suite.
    """
    span = tmax // hot_regions
    hots = [span // 2 + i * span for i in range(hot_regions)]
    ranges = []
    for _ in range(count):
        if rng.random() < 0.25 and ranges:
            ranges.append(rng.choice(ranges))
        else:
            hot = rng.choice(hots)
            lo = max(1, hot - span // 3 + rng.randint(-10, 10))
            hi = min(tmax, lo + rng.randint(span // 2, span - 1))
            ranges.append((lo, hi))
    return ranges


#: The covering windows of the seed-1 64-range contended batch over
#: ``tmax = 2000``, ``(ts, te, requests)`` as the planner lists them.
CONTENDED_WINDOWS = [
    (37, 279, [53, 52, 49, 31, 8, 13, 4, 60, 19, 63]),
    (284, 520, [41, 14, 38, 23, 0, 7, 27, 42]),
    (532, 772, [62, 39, 44, 47, 32]),
    (783, 1045, [59, 2, 6, 9, 50, 17, 21, 11, 29, 10, 46, 34, 36, 28, 5, 51]),
    (1033, 1265, [40, 55, 15, 61, 43]),
    (1284, 1537, [22, 35, 30, 37, 24]),
    (1533, 1780, [58, 33, 20, 16, 54, 57, 26]),
    (1789, 2000, [56, 12, 48, 1, 3, 25, 18, 45]),
]


class TestSharingRule:
    """Only counting requests (no sink, or a bare CountSink) share a window."""

    def test_emitting_requests_get_windows_of_their_own(self, graph):
        ranges = [(1, 50), (1, 50), (10, 20), (30, 70), (1, 50), (10, 20)]
        sinks = [None, MaterializingSink(), CountSink(), None,
                 NDJSONSink(io.StringIO()), MaterializingSink()]
        plan = plan_queries([
            QueryRequest(graph, 2, ts, te, sink=sink)
            for (ts, te), sink in zip(ranges, sinks)
        ])
        # Counting: 0 (1-50), 2 (10-20, contained), 3 (30-70, overlaps
        # 21 of 41) share one window.  Emitting: 1, 4 and 5 walk alone.
        assert ranges_of(plan)[(graph, 2)] == [
            (1, 70, [0, 2, 3]), (1, 50, [1]), (1, 50, [4]), (10, 20, [5])]
        assert plan.stats == {
            "requests": 6, "groups": 1, "windows": 4, "deduped": 0, "merged": 2}

    def test_a_count_sink_subclass_walks_alone(self, graph):
        class Tally(CountSink):
            pass

        plan = plan_queries([
            QueryRequest(graph, 2, 1, 50, sink=Tally()),
            QueryRequest(graph, 2, 1, 50, sink=CountSink()),
            QueryRequest(graph, 2, 1, 50),
        ])
        assert ranges_of(plan)[(graph, 2)] == [(1, 50, [1, 2]), (1, 50, [0])]

    def test_contended_counting_batch_plans_as_before(self):
        graph = TemporalGraph([(t % 7, (t + 1) % 7, t) for t in range(1, 2001)])
        ranges = contended_ranges(random.Random(1), graph.tmax, 64)
        for sink in (None, CountSink):
            plan = plan_queries([
                QueryRequest(graph, 3, ts, te, sink=sink and sink())
                for ts, te in ranges
            ])
            assert [
                (w.ts, w.te, w.requests) for w in plan.groups[0].windows
            ] == CONTENDED_WINDOWS
            assert plan.stats == {
                "requests": 64, "groups": 1, "windows": 8, "deduped": 16, "merged": 40}


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
