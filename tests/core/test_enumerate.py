"""Enum (Algorithms 4-5): oracle equivalence, TTI correctness, modes."""

from __future__ import annotations

import pytest

from repro.baselines.bruteforce import enumerate_bruteforce
from repro.core.coretime import compute_core_times
from repro.core.enumerate import enumerate_temporal_kcores
from repro.errors import InvalidParameterError
from repro.graph.temporal_graph import TemporalGraph
from repro.graph.validation import exact_core_edge_ids, tightest_time_interval
from repro.obs.timing import Deadline


class TestOracleEquivalence:
    @pytest.mark.parametrize("k", [2, 3])
    def test_full_span_equals_bruteforce(self, random_graph, k):
        ours = enumerate_temporal_kcores(random_graph, k)
        oracle = enumerate_bruteforce(random_graph, k)
        assert ours.edge_sets() == oracle.edge_sets()
        assert set(ours.by_tti()) == set(oracle.by_tti())

    def test_subranges_equal_bruteforce(self, random_graph):
        tmax = random_graph.tmax
        for ts, te in [(1, tmax // 2), (tmax // 3, tmax), (2, tmax - 1)]:
            if ts > te:
                continue
            ours = enumerate_temporal_kcores(random_graph, 2, ts, te)
            oracle = enumerate_bruteforce(random_graph, 2, ts, te)
            assert ours.edge_sets() == oracle.edge_sets(), (ts, te)

    def test_no_duplicate_results(self, random_graph):
        result = enumerate_temporal_kcores(random_graph, 2)
        assert len(result.edge_sets()) == result.num_results

    def test_reported_tti_is_genuine(self, random_graph):
        """Each result's TTI matches its edge span *and* its window core."""
        result = enumerate_temporal_kcores(random_graph, 2)
        for core in result:
            ts, te = core.tti
            assert tightest_time_interval(random_graph, set(core.edge_ids)) == (ts, te)
            assert set(core.edge_ids) == exact_core_edge_ids(random_graph, 2, ts, te)


class TestModes:
    def test_streaming_counters_match_collect(self, random_graph):
        collected = enumerate_temporal_kcores(random_graph, 2, collect=True)
        streamed = enumerate_temporal_kcores(random_graph, 2, collect=False)
        assert streamed.cores is None
        assert streamed.num_results == collected.num_results
        assert streamed.total_edges == collected.total_edges

    def test_total_edges_accounting(self, random_graph):
        result = enumerate_temporal_kcores(random_graph, 2)
        assert result.total_edges == sum(core.num_edges for core in result)

    def test_uncollected_access_raises(self, paper_graph):
        result = enumerate_temporal_kcores(paper_graph, 2, collect=False)
        with pytest.raises(ValueError):
            result.edge_sets()
        with pytest.raises(ValueError):
            list(result)


class TestParameters:
    def test_precomputed_skyline_reuse(self, paper_graph):
        skyline = compute_core_times(paper_graph, 2, 1, 4).ecs
        result = enumerate_temporal_kcores(paper_graph, 2, 1, 4, skyline=skyline)
        fresh = enumerate_temporal_kcores(paper_graph, 2, 1, 4)
        assert result.edge_sets() == fresh.edge_sets()

    def test_mismatched_skyline_rejected(self, paper_graph):
        skyline = compute_core_times(paper_graph, 2, 1, 4).ecs
        with pytest.raises(InvalidParameterError):
            enumerate_temporal_kcores(paper_graph, 2, 1, 5, skyline=skyline)
        with pytest.raises(InvalidParameterError):
            enumerate_temporal_kcores(paper_graph, 3, 1, 4, skyline=skyline)

    def test_invalid_k_raises(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            enumerate_temporal_kcores(paper_graph, 0)

    def test_invalid_window_raises(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            enumerate_temporal_kcores(paper_graph, 2, 5, 3)

    def test_empty_result_when_k_too_large(self, paper_graph):
        result = enumerate_temporal_kcores(paper_graph, 9)
        assert result.num_results == 0
        assert result.cores is None or result.cores == []

    def test_single_timestamp_range(self, paper_graph):
        # t=5 has the v1-v6-v7 triangle: exactly one core.
        result = enumerate_temporal_kcores(paper_graph, 2, 5, 5)
        assert result.num_results == 1
        assert result.cores[0].tti == (5, 5)

    def test_deadline_aborts_cleanly(self, random_graph):
        result = enumerate_temporal_kcores(
            random_graph, 2, deadline=Deadline(0.0)
        )
        assert not result.completed

    def test_triangle_graph_single_core(self, triangle_graph):
        result = enumerate_temporal_kcores(triangle_graph, 2)
        assert result.num_results == 1
        assert result.cores[0].tti == (1, 3)
        assert result.cores[0].num_edges == 3


class TestMultiEdges:
    def test_parallel_edges_all_reported(self):
        g = TemporalGraph(
            [("a", "b", 1), ("a", "b", 2), ("b", "c", 2), ("a", "c", 2)]
        )
        result = enumerate_temporal_kcores(g, 2)
        oracle = enumerate_bruteforce(g, 2)
        assert result.edge_sets() == oracle.edge_sets()
        # The widest core includes both parallel (a, b) edges.
        largest = max(result, key=lambda c: c.num_edges)
        assert largest.num_edges == 4

    def test_duplicate_timestamp_pairs(self):
        g = TemporalGraph(
            [("a", "b", 1), ("a", "b", 1), ("b", "c", 1), ("a", "c", 1)]
        )
        result = enumerate_temporal_kcores(g, 2)
        oracle = enumerate_bruteforce(g, 2)
        assert result.edge_sets() == oracle.edge_sets()
