"""Harness behaviour: engine routing, DNFs, summary arithmetic."""

from __future__ import annotations

import pytest

from repro.bench import harness
from repro.bench.harness import (
    EngineSummary,
    QueryRecord,
    _run_engine_once,
    run_dataset_point,
    run_workload,
)
from repro.bench.workloads import Workload, build_workload
from repro.errors import BenchmarkError


class TestRunEngineOnce:
    @pytest.mark.parametrize(
        "engine", ["enum", "enumbase", "otcd", "otcd-nopruning"]
    )
    def test_engines_complete(self, paper_graph, engine):
        record = _run_engine_once(paper_graph, engine, 2, 1, 4, None, False)
        assert record.completed
        assert record.num_results == 2

    def test_coretime_engine_reports_sizes(self, paper_graph):
        record = _run_engine_once(paper_graph, "coretime", 2, 1, 7, None, False)
        assert record.vct_size > 0
        assert record.ecs_size > 0

    def test_unknown_engine(self, paper_graph):
        with pytest.raises(BenchmarkError):
            _run_engine_once(paper_graph, "nope", 2, 1, 4, None, False)

    def test_timeout_records_dnf(self, paper_graph):
        record = _run_engine_once(paper_graph, "otcd", 2, 1, 7, 0.0, False)
        assert not record.completed


class TestSummaries:
    def _summary(self, *records):
        summary = EngineSummary("x")
        summary.records.extend(records)
        return summary

    def test_mean_excludes_dnf(self):
        summary = self._summary(
            QueryRecord("x", (1, 2), 1.0, True, num_results=4),
            QueryRecord("x", (1, 2), 99.0, False),
        )
        assert summary.mean_seconds == 1.0
        assert summary.num_dnf == 1
        assert summary.mean_results == 4

    def test_all_dnf_mean_is_none(self):
        summary = self._summary(QueryRecord("x", (1, 2), 9.0, False))
        assert summary.mean_seconds is None

    def test_memory_mean(self):
        summary = self._summary(
            QueryRecord("x", (1, 2), 1.0, True, peak_bytes=100),
            QueryRecord("x", (1, 2), 1.0, True, peak_bytes=300),
        )
        assert summary.mean_peak_bytes == 200


class TestRunWorkload:
    def test_full_point(self, paper_graph):
        workload = build_workload(
            paper_graph, "example", k_fraction=1.0, range_fraction=0.6,
            num_queries=2, seed=0,
        )
        summaries = run_workload(
            paper_graph, workload, ("enum", "otcd"), timeout=5.0
        )
        assert set(summaries) == {"enum", "otcd"}
        for summary in summaries.values():
            assert summary.num_queries == 2
            assert summary.num_dnf == 0
        # Both engines count the same results on every range.
        for r_enum, r_otcd in zip(
            summaries["enum"].records, summaries["otcd"].records
        ):
            assert r_enum.num_results == r_otcd.num_results

    def test_memory_measurement(self, paper_graph):
        workload = build_workload(
            paper_graph, "example", k_fraction=1.0, range_fraction=0.6,
            num_queries=1, seed=0,
        )
        summaries = run_workload(
            paper_graph, workload, ("enum",), timeout=5.0, measure_memory=True
        )
        assert summaries["enum"].records[0].peak_bytes > 0

    def test_no_compile_inside_a_timed_engine_call(self, paper_graph, monkeypatch):
        """The graph's one-off compile stays out of every engine's timing."""
        from repro.graph.csr import CompiledGraph

        timing = []
        compiled_while_timing = []
        run_engine_once = harness._run_engine_once
        compile_graph = CompiledGraph.__init__

        def timed_run(*args):
            timing.append(True)
            try:
                return run_engine_once(*args)
            finally:
                timing.pop()

        def compile_spy(self, graph):
            compiled_while_timing.append(bool(timing))
            compile_graph(self, graph)

        monkeypatch.setattr(harness, "_run_engine_once", timed_run)
        monkeypatch.setattr(CompiledGraph, "__init__", compile_spy)
        workload = Workload("example", 2, 4, ((1, 4), (2, 6)), 1.0, 0.6)
        run_workload(paper_graph, workload, ("coretime", "enum"), timeout=5.0)
        assert compiled_while_timing == [False]


class TestRunDatasetPoint:
    def test_smallest_dataset_end_to_end(self):
        workload, summaries = run_dataset_point(
            "FB", num_queries=1, engines=("coretime", "enum"), timeout=10.0
        )
        assert workload.dataset == "FB"
        assert summaries["enum"].records[0].completed
