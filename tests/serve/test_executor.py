"""Executor tests: sliced shared-window answers == independent answers."""

from __future__ import annotations

import random

import pytest

from repro.core.enumerate_ref import enumerate_temporal_kcores_ref
from repro.core.index import CoreIndex, CoreIndexRegistry
from repro.errors import InvalidParameterError
from repro.graph.generators import uniform_random_temporal
from repro.serve.executor import execute_plan
from repro.serve.planner import QueryRequest, plan_for_index, plan_queries
from repro.serve.sinks import CountSink, FlatArraySink


def overlapping_ranges(rng, tmax, count):
    """Batches biased toward heavy overlap (hot regions + repeats)."""
    hot = rng.randint(1, max(1, tmax // 2))
    ranges = []
    for _ in range(count):
        mode = rng.random()
        if mode < 0.3 and ranges:
            ranges.append(rng.choice(ranges))  # exact repeat
        elif mode < 0.7:
            lo = max(1, hot + rng.randint(-3, 3))
            hi = min(tmax, lo + rng.randint(2, tmax // 2))
            ranges.append((lo, hi))
        else:
            a, b = rng.randint(1, tmax), rng.randint(1, tmax)
            ranges.append((min(a, b), max(a, b)))
    return ranges


class TestOverlapDedupCorrectness:
    @pytest.mark.parametrize("seed", range(5))
    def test_sliced_answers_equal_independent_answers(self, seed):
        graph = uniform_random_temporal(13, 150, tmax=24, seed=seed)
        index = CoreIndex(graph, 2)
        rng = random.Random(500 + seed)
        ranges = overlapping_ranges(rng, graph.tmax, 12)

        shared = index.query_batch(ranges, collect=True)
        lone = [
            enumerate_temporal_kcores_ref(graph, 2, ts, te, skyline=index.ecs)
            for ts, te in ranges
        ]
        for (ts, te), got, want in zip(ranges, shared, lone):
            assert got.time_range == (ts, te)
            assert got.num_results == want.num_results, (ts, te)
            assert got.total_edges == want.total_edges
            got_by_tti = got.by_tti()
            want_by_tti = want.by_tti()
            assert got_by_tti.keys() == want_by_tti.keys()
            for tti, core in got_by_tti.items():
                assert core.edge_set() == want_by_tti[tti].edge_set()

    @pytest.mark.parametrize("seed", range(3))
    def test_merge_and_no_merge_agree(self, seed):
        graph = uniform_random_temporal(12, 130, tmax=20, seed=seed)
        index = CoreIndex(graph, 3)
        rng = random.Random(900 + seed)
        ranges = overlapping_ranges(rng, graph.tmax, 10)
        merged = index.query_batch(ranges, merge_overlaps=True)
        split = index.query_batch(ranges, merge_overlaps=False)
        assert [
            (r.num_results, r.total_edges) for r in merged
        ] == [(r.num_results, r.total_edges) for r in split]

    def test_every_tti_stays_inside_its_request_range(self):
        graph = uniform_random_temporal(14, 160, tmax=22, seed=42)
        index = CoreIndex(graph, 2)
        ranges = [(1, 15), (5, 22), (8, 12), (5, 22)]
        for result in index.query_batch(ranges, collect=True):
            lo, hi = result.time_range
            for core in result:
                assert lo <= core.tti[0] <= core.tti[1] <= hi


class TestMixedPlans:
    def test_mixed_graphs_and_ks_route_in_input_order(self, paper_graph):
        other = uniform_random_temporal(10, 80, tmax=12, seed=1)
        registry = CoreIndexRegistry(capacity=4)
        requests = [
            QueryRequest(paper_graph, 2, 1, 4),
            QueryRequest(other, 2, 1, 12),
            QueryRequest(paper_graph, 3, 1, 7),
            QueryRequest(paper_graph, 2, 2, 4),
        ]
        plan = plan_queries(requests, engine="index")
        results = execute_plan(plan, registry=registry, collect=True)
        assert [r.time_range for r in results] == [
            (1, 4), (1, 12), (1, 7), (2, 4)]
        want0 = enumerate_temporal_kcores_ref(paper_graph, 2, 1, 4)
        assert results[0].edge_sets() == want0.edge_sets()
        want3 = enumerate_temporal_kcores_ref(paper_graph, 2, 2, 4)
        assert results[3].edge_sets() == want3.edge_sets()

    def test_direct_engine_answers_without_registry_population(self, paper_graph):
        registry = CoreIndexRegistry(capacity=4)
        plan = plan_queries(
            [QueryRequest(paper_graph, 2, 1, 4)], engine="direct"
        )
        results = execute_plan(plan, registry=registry, collect=True)
        assert results[0].num_results == 2
        assert len(registry) == 0  # direct plans never build an index

    def test_per_request_sinks_are_honoured(self, paper_graph):
        count = CountSink()
        flat = FlatArraySink()
        plan = plan_queries(
            [
                QueryRequest(paper_graph, 2, 1, 4, sink=count),
                QueryRequest(paper_graph, 2, 1, 4, sink=flat),
            ],
            engine="index",
        )
        results = execute_plan(plan, registry=CoreIndexRegistry(capacity=2))
        assert count.num_results == 2
        assert flat.num_results == 2
        assert {
            (ts, te) for ts, te, _run in flat.iter_cores()
        } == {(1, 4), (2, 3)}
        assert [r.num_results for r in results] == [2, 2]


class TestSliceRouter:
    """The vectorised flat-interval router (PR 6 satellite)."""

    @pytest.mark.parametrize("seed", range(3))
    def test_contended_batch_routes_like_single_queries(self, seed):
        """1000 requests on one hot region, all through one shared walk."""
        graph = uniform_random_temporal(13, 150, tmax=24, seed=seed)
        index = CoreIndex(graph, 2)
        rng = random.Random(3200 + seed)
        ranges = overlapping_ranges(rng, graph.tmax, 1000)
        batch = index.query_batch(ranges)
        singles = {
            time_range: index.query(*time_range, collect=False)
            for time_range in set(ranges)
        }
        for time_range, got in zip(ranges, batch):
            want = singles[time_range]
            assert got.num_results == want.num_results, time_range
            assert got.total_edges == want.total_edges, time_range

    def test_counting_fast_path_defers_sink_updates_to_finish(self):
        """All-CountSink routing accumulates in arrays, not per emission."""
        from repro.serve.executor import _SliceRouter

        sinks = [CountSink() for _ in range(3)]
        router = _SliceRouter(
            [(1, 6, sinks[0]), (2, 4, sinks[1]), (5, 9, sinks[2])]
        )
        assert router._counting
        import numpy as np

        router.emit(
            2,
            np.array([3, 5], dtype=np.int64),
            np.array([2, 4], dtype=np.int64),
            np.array([10, 11, 12, 13], dtype=np.int64),
        )
        # nothing delivered yet: the fast path writes once, at finish
        assert [s.num_results for s in sinks] == [0, 0, 0]
        router.finish(True)
        # target [1,6] sees both cut ends (3 and 5); [2,4] only end 3;
        # [5,9] is not active at t=2 (ts=5 > 2).
        assert [s.num_results for s in sinks] == [2, 1, 0]
        assert [s.total_edges for s in sinks] == [4 + 2, 2, 0]
        assert all(s.completed for s in sinks)

    def test_mixed_sinks_slice_prefixes_per_target(self):
        """A custom sink alongside counters still receives its own cut."""
        from repro.serve.executor import _SliceRouter

        import numpy as np

        flat = FlatArraySink()
        count = CountSink()
        router = _SliceRouter([(1, 9, flat), (1, 3, count)])
        assert not router._counting
        router.emit(
            1,
            np.array([3, 7], dtype=np.int64),
            np.array([2, 5], dtype=np.int64),
            np.array([4, 5, 6, 7, 8], dtype=np.int64),
        )
        router.finish(True)
        assert flat.num_results == 2 and flat.total_edges == 7
        assert count.num_results == 1 and count.total_edges == 2
        assert [
            (ts, te, list(run)) for ts, te, run in flat.iter_cores()
        ] == [(1, 3, [4, 5]), (1, 7, [4, 5, 6, 7, 8])]

    def test_targets_starting_later_activate_later(self):
        from repro.serve.executor import _SliceRouter

        import numpy as np

        early = CountSink()
        late = CountSink()
        router = _SliceRouter([(1, 9, early), (5, 9, late)])
        one = np.array([6], dtype=np.int64)
        router.emit(2, one, one, np.array([0], dtype=np.int64))
        router.emit(5, one, one, np.array([1], dtype=np.int64))
        router.finish(True)
        assert early.num_results == 2
        assert late.num_results == 1  # missed the t=2 emission


@pytest.mark.failed_compile
class TestSliceRouterNumpy(TestSliceRouter):
    """The router cases on a host whose compile failed: they raise, they never compute."""


class TestValidation:
    def test_sub_span_index_rejects_outside_ranges(self, paper_graph):
        from repro.core.coretime import compute_core_times

        sub = CoreIndex.from_core_times(
            paper_graph, 2, compute_core_times(paper_graph, 2, 2, 5)
        )
        with pytest.raises(InvalidParameterError):
            sub.query_batch([(1, 5)])
        with pytest.raises(InvalidParameterError):
            sub.query(2, 6)

    def test_empty_batch_returns_empty(self, paper_graph):
        index = CoreIndex(paper_graph, 2)
        assert index.query_batch([]) == []


class TestDeadline:
    def test_expired_deadline_marks_all_requests_incomplete(self, paper_graph):
        from repro.obs.timing import Deadline

        index = CoreIndex(paper_graph, 2)
        results = index.query_batch(
            [(1, 4), (2, 5)], deadline=Deadline(0.0)
        )
        assert all(not result.completed for result in results)
        assert all(result.num_results == 0 for result in results)
