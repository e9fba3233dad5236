"""Deadline aborts through the streaming-sink path.

PR 7 wired deadlines into the columnar walk; this suite closes the gap
the daemon exposed: a deadline that expires (or a client that cancels)
while results stream through caller-provided sinks must abort cleanly:
windows whose preparation never started are skipped outright (counted
under ``repro_execute_windows_total{mode="skipped"}``), every affected
request reports ``completed=False``, and whatever was already streamed
is a valid prefix of the full answer.
"""

from __future__ import annotations

import io
import time

import pytest

from repro.core.index import CoreIndex
from repro.core.maintenance import StreamingCoreService
from repro.graph.generators import uniform_random_temporal
from repro.obs.metrics import get_registry
from repro.obs.timing import Deadline
from repro.serve.executor import execute_plan
from repro.serve.planner import plan_for_index
from repro.serve.sinks import MaterializingSink, NDJSONSink


@pytest.fixture(scope="module")
def graph():
    return uniform_random_temporal(24, 700, tmax=48, seed=11)


RANGES = [(1, 20), (5, 30), (2, 44)]


def skipped_windows() -> float:
    counter = get_registry().counter(
        "repro_execute_windows_total",
        "Covering windows enumerated, by sharing mode",
        ("mode",),
    )
    return counter.labels("skipped").value


class TestServiceStreamingSinks:
    def test_service_sinks_match_collect(self, graph):
        edges = [
            (graph.label_of(u), graph.label_of(v), t)
            for u, v, t in graph.edges
        ]
        service = StreamingCoreService(2, edges)
        service.refresh()
        index = service.built[1][2]
        sinks = [MaterializingSink() for _ in RANGES]
        streamed = index.query_batch(RANGES, sinks=sinks)
        collected = index.query_batch(RANGES, collect=True)
        for sink, through_sink, result in zip(sinks, streamed, collected):
            assert through_sink.num_results == result.num_results
            assert through_sink.total_edges == result.total_edges
            assert sink.cores == result.cores


class TestExpiredDeadlineSequential:
    def test_all_windows_skipped_and_incomplete(self, graph):
        index = CoreIndex(graph, 2)
        sinks = [io.StringIO() for _ in RANGES]
        plan = plan_for_index(
            index, RANGES, sinks=[NDJSONSink(s) for s in sinks]
        )
        before = skipped_windows()
        results = execute_plan(plan, deadline=Deadline(0.0))
        assert all(not r.completed for r in results)
        assert all(r.num_results == 0 for r in results)
        assert all(s.getvalue() == "" for s in sinks)
        # Every covering window was skipped before preparation.
        assert skipped_windows() - before == plan.num_windows

    def test_expired_service_batch(self, graph):
        edges = [
            (graph.label_of(u), graph.label_of(v), t)
            for u, v, t in graph.edges
        ]
        service = StreamingCoreService(2, edges)
        service.refresh()
        results = service.built[1][2].query_batch(RANGES, deadline=Deadline(0.0))
        assert all(not r.completed for r in results)


class TestMidWalkCancellation:
    def full_stream(self, graph) -> str:
        index = CoreIndex(graph, 2)
        buffer = io.StringIO()
        plan = plan_for_index(
            index, [(1, graph.tmax)], sinks=[NDJSONSink(buffer)]
        )
        [result] = execute_plan(plan)
        assert result.completed
        return buffer.getvalue()

    def test_cancel_mid_walk_leaves_valid_prefix(self, graph):
        full = self.full_stream(graph)
        assert full.count("\n") > 20  # enough stream to cancel inside

        index = CoreIndex(graph, 2)
        buffer = io.StringIO()
        # Trip the external-cancel hook (the daemon's client-gone
        # signal) once a handful of cores have streamed; the walk polls
        # per start time, so it stops at the next checkpoint.
        cancelled = lambda: buffer.getvalue().count("\n") >= 5  # noqa: E731
        plan = plan_for_index(
            index, [(1, graph.tmax)], sinks=[NDJSONSink(buffer)]
        )
        [result] = execute_plan(
            plan, deadline=Deadline(3600.0, cancelled=cancelled)
        )
        streamed = buffer.getvalue()
        assert not result.completed
        assert result.num_results == streamed.count("\n") >= 5
        assert streamed != full  # it really stopped early
        assert full.startswith(streamed)  # and what streamed is a prefix

    def test_abort_is_materially_faster_than_full_run(self):
        # Secondary, generous timing check: an immediately expired
        # deadline must cost far less than the full enumeration.
        heavy = uniform_random_temporal(40, 2500, tmax=60, seed=5)
        index = CoreIndex(heavy, 2)
        window = [(1, heavy.tmax)]

        start = time.perf_counter()
        [full] = execute_plan(plan_for_index(index, window))
        full_elapsed = time.perf_counter() - start
        assert full.completed

        start = time.perf_counter()
        [aborted] = execute_plan(
            plan_for_index(index, window), deadline=Deadline(0.0)
        )
        abort_elapsed = time.perf_counter() - start
        assert not aborted.completed
        assert abort_elapsed < max(full_elapsed * 0.5, 0.05)
