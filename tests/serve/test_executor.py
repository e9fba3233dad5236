"""Executor tests: shared-window answers == independent answers."""

from __future__ import annotations

import io
import json
import random

import pytest

from repro.core.enumerate_ref import enumerate_temporal_kcores_ref
from repro.core.index import CoreIndex, CoreIndexRegistry
from repro.errors import InvalidParameterError
from repro.graph.generators import uniform_random_temporal
from repro.serve.columnar import run_columnar_walk
from repro.serve.executor import execute_plan
from repro.serve.planner import QueryRequest, plan_for_index, plan_queries
from repro.serve.sinks import CountSink, MaterializingSink, NDJSONSink


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

        shared = index.query_batch(ranges)
        collected = index.query_batch(ranges, collect=True)
        lone = [
            enumerate_temporal_kcores_ref(graph, 2, ts, te, skyline=index.ecs)
            for ts, te in ranges
        ]
        for (ts, te), counted, got, want in zip(ranges, shared, collected, lone):
            assert (counted.num_results, counted.total_edges) == (
                want.num_results, want.total_edges), (ts, te)
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
        """Counted on merged windows, or collected one walk per range."""
        graph = uniform_random_temporal(12, 130, tmax=20, seed=seed)
        index = CoreIndex(graph, 3)
        rng = random.Random(900 + seed)
        ranges = overlapping_ranges(rng, graph.tmax, 10)
        merged = index.query_batch(ranges)
        split = index.query_batch(ranges, collect=True)
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
            QueryRequest(graph, k, ts, te, sink=MaterializingSink())
            for graph, k, ts, te in [
                (paper_graph, 2, 1, 4),
                (other, 2, 1, 12),
                (paper_graph, 3, 1, 7),
                (paper_graph, 2, 2, 4),
            ]
        ]
        plan = plan_queries(requests, engine="index")
        results = execute_plan(plan, registry=registry)
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
        results = execute_plan(plan, registry=registry)
        assert results[0].num_results == 2
        assert len(registry) == 0  # direct plans never build an index

    def test_per_request_sinks_are_honoured(self, paper_graph):
        count = CountSink()
        cores = MaterializingSink()
        plan = plan_queries(
            [
                QueryRequest(paper_graph, 2, 1, 4, sink=count),
                QueryRequest(paper_graph, 2, 1, 4, sink=cores),
            ],
            engine="index",
        )
        results = execute_plan(plan, registry=CoreIndexRegistry(capacity=2))
        assert count.num_results == 2
        assert cores.num_results == 2
        assert {core.tti for core in cores.cores} == {(1, 4), (2, 3)}
        assert [r.num_results for r in results] == [2, 2]
        assert results[1].cores is cores.cores


def counting_router(targets):
    """A slice router over ``targets``, each delivering to a bare CountSink."""
    from repro.serve.executor import _SliceRouter

    sinks = [CountSink() for _ in targets]
    router = _SliceRouter([(ts, te, s) for (ts, te), s in zip(targets, sinks)])
    return router, sinks


def oracle_counts(graph, k, targets):
    """``(num_results, total_edges, completed)`` of the seed enumerator per range."""
    return [
        (want.num_results, want.total_edges, True)
        for want in (
            enumerate_temporal_kcores_ref(graph, k, ts, te) for ts, te in targets
        )
    ]


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
        """All-CountSink routing accumulates in arrays, not per emission:
        the counting walk fills them, :meth:`finish` writes the sinks."""
        graph = uniform_random_temporal(13, 150, tmax=24, seed=4)
        targets = [(1, 20), (3, 12), (8, 24)]
        router, sinks = counting_router(targets)
        assert router.counting_targets() is not None
        cut = CoreIndex(graph, 2).ecs.cut(1, graph.tmax)
        done = run_columnar_walk(cut, router)
        # nothing delivered yet: the sinks are written once, at finish
        assert [s.num_results for s in sinks] == [0, 0, 0]
        router.finish(done)
        assert [
            (s.num_results, s.total_edges, s.completed) for s in sinks
        ] == oracle_counts(graph, 2, targets)
        assert sinks[0].num_results > 0

    def test_targets_starting_later_activate_later(self):
        """A target whose range starts later than the window misses the
        earlier start times' cores, exactly as its own query would."""
        graph = uniform_random_temporal(13, 150, tmax=24, seed=1)
        targets = [(1, 18), (6, 18)]
        router, sinks = counting_router(targets)
        cut = CoreIndex(graph, 2).ecs.cut(1, 18)
        router.finish(run_columnar_walk(cut, router))
        want = oracle_counts(graph, 2, targets)
        assert [
            (s.num_results, s.total_edges, s.completed) for s in sinks
        ] == want
        assert want[0][0] > want[1][0] > 0


class TestSharingRule:
    """A batch mixing counting and emitting requests over related ranges.

    Counting requests (no sink, or a bare CountSink) are deduped and
    merged among themselves; every emitting request walks a window of
    its own; every answer is the range's own.
    """

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_batch_answers_like_single_queries(self, seed):
        graph = uniform_random_temporal(13, 150, tmax=24, seed=seed)
        index = CoreIndex(graph, 2)
        # Identical, contained and overlapping ranges, each asked both
        # by counting and by emitting requests.
        ranges = [(3, 18), (3, 18), (5, 12), (10, 22), (3, 18), (5, 12),
                  (10, 22), (1, 24), (6, 9)]
        kinds = ["none", "count", "none", "count", "collect", "collect",
                 "ndjson", "collect", "none"]
        streams = {}

        def sink_for(position, kind):
            if kind == "count":
                return CountSink()
            if kind == "collect":
                return MaterializingSink()
            if kind == "ndjson":
                streams[position] = io.StringIO()
                return NDJSONSink(streams[position])
            return None

        sinks = [sink_for(i, kind) for i, kind in enumerate(kinds)]
        plan = plan_for_index(index, ranges, sinks=sinks)
        counting = [i for i, kind in enumerate(kinds) if kind in ("none", "count")]
        emitting = [i for i in range(len(ranges)) if i not in counting]
        (group,) = plan.groups
        owners = {rid: window for window in group.windows for rid in window.requests}
        for rid in emitting:
            window = owners[rid]
            assert window.requests == [rid]
            assert (window.ts, window.te) == ranges[rid]
        # Among the counting requests: (3, 18) twice -> 1 deduped; (5, 12)
        # and (6, 9) ride inside (3, 18); (10, 22) overlaps 9 of 13 -> merged.
        assert (plan.stats["deduped"], plan.stats["merged"]) == (1, 3)
        assert plan.stats["windows"] == 1 + len(emitting)
        assert sorted(rid for w in group.windows if w.is_shared for rid in w.requests) \
            == counting

        results = execute_plan(plan)
        for rid, ((ts, te), result) in enumerate(zip(ranges, results)):
            single = index.query(ts, te)
            oracle = enumerate_temporal_kcores_ref(graph, 2, ts, te)
            assert result.time_range == (ts, te)
            assert (result.num_results, result.total_edges, result.completed) == (
                single.num_results, single.total_edges, True) == (
                oracle.num_results, oracle.total_edges, True), (rid, ts, te)
            if kinds[rid] == "collect":
                assert result.edge_sets() == oracle.edge_sets() == single.edge_sets()
            if kinds[rid] == "ndjson":
                lines = [json.loads(line) for line in streams[rid].getvalue().splitlines()]
                assert sorted(
                    (tuple(line["tti"]), frozenset(line["edge_ids"])) for line in lines
                ) == sorted((core.tti, core.edge_set()) for core in oracle)
            if sinks[rid] is not None:
                assert (sinks[rid].num_results, sinks[rid].total_edges) == (
                    result.num_results, result.total_edges)


class TestCountingReadsTheCut:
    """A counting batch reads the skyline's cut: no slice, no eids, no activation pass."""

    @pytest.mark.parametrize("scale", [1, 997])
    def test_counting_paths_never_materialise_a_slice(self, monkeypatch, scale):
        from repro.core.query import TimeRangeCoreQuery
        from repro.core.windows import EdgeCoreSkyline
        from repro.graph.temporal_graph import TemporalGraph

        dense = uniform_random_temporal(13, 150, tmax=24, seed=6)
        u, v, t = dense.edge_columns()
        graph = TemporalGraph(
            zip(u.tolist(), v.tolist(), (t * scale).tolist()), normalize_time=False
        )
        ranges = overlapping_ranges(random.Random(6), dense.tmax, 40)
        ranges = [(ts * scale, te * scale) for ts, te in ranges]
        index = CoreIndex(graph, 2)
        want = oracle_counts(dense, 2, [(ts // scale, te // scale) for ts, te in ranges])

        def refused(*_args, **_kwargs):
            raise AssertionError("a counting walk materialised a window slice")

        for name in ("selection_from_cut", "active_arrays_from_selection", "window_eids"):
            monkeypatch.setattr(EdgeCoreSkyline, name, refused)
        got = [(r.num_results, r.total_edges, r.completed) for r in index.query_batch(ranges)]
        assert got == want
        ts, te = ranges[0]
        single = index.query(ts, te, collect=False)
        direct = TimeRangeCoreQuery(graph, 2, (ts, te), engine="enum", collect=False).run()
        for result in (single, direct):
            assert (result.num_results, result.total_edges, result.completed) == want[0]


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
