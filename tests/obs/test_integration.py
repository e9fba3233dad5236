"""End-to-end observability: the registry and traces versus real serving.

The acceptance test of the unified observability layer: after a mixed,
store-backed batch, ONE ``snapshot()`` of the process metrics registry
must report registry hits/misses, store saves and loads, and the
plan/execute latency histograms — and every component's legacy
``stats()`` dict must agree with the registry series it claims to be a
view of.
"""

from __future__ import annotations

import pytest

from repro.core.index import CoreIndex, CoreIndexRegistry
from repro.obs.metrics import get_registry
from repro.obs.trace import Trace
from repro.serve.executor import execute_batch, execute_plan
from repro.serve.planner import QueryRequest, plan_queries
from repro.store import IndexStore


def sample(snap: dict, name: str, **labels) -> dict | None:
    """The snapshot sample of ``name`` whose labels include ``labels``."""
    for candidate in snap.get(name, {"values": ()})["values"]:
        if all(candidate["labels"].get(k) == v for k, v in labels.items()):
            return candidate
    return None


def counters(results):
    return [(r.num_results, r.total_edges, r.completed) for r in results]


def series_value(snap: dict, name: str, **labels) -> float:
    found = sample(snap, name, **labels)
    return found["value"] if found is not None else 0.0


class TestSnapshotCrossCheck:
    def test_mixed_store_backed_batch(
        self, tmp_path, paper_graph, triangle_graph
    ):
        store = IndexStore(tmp_path / "store")
        registry = CoreIndexRegistry(capacity=8, store=store)
        queries = [
            (paper_graph, 2, (1, 4)),
            (triangle_graph, 2, (1, 3)),
            (paper_graph, 3, (1, 7)),
            (paper_graph, 2, (2, 6)),
            (paper_graph, 2, (1, 4)),  # identical: dedup + registry hit
        ]
        requests = [QueryRequest(g, k, ts, te) for g, k, (ts, te) in queries]
        _plan, answers = execute_batch(requests, registry=registry)
        replayed = execute_plan(plan_queries(requests), registry=registry)
        assert counters(replayed) == counters(answers)

        snap = get_registry().snapshot()

        # -- the index registry's stats() is a faithful view ------------
        registry_stats = registry.stats()
        instance = registry.instance
        assert registry_stats["hits"] == series_value(
            snap, "repro_registry_hits_total", registry=instance
        )
        assert registry_stats["misses"] == series_value(
            snap, "repro_registry_misses_total", registry=instance
        )
        assert registry_stats["store_hits"] == series_value(
            snap, "repro_registry_store_hits_total", registry=instance
        )
        assert registry_stats["multik_builds"] == series_value(
            snap, "repro_registry_multik_builds_total", registry=instance
        )
        for k, count in registry_stats["store_hits_by_k"].items():
            assert count == series_value(
                snap, "repro_registry_store_hits_by_k_total",
                registry=instance, k=str(k),
            )
        assert registry_stats["size"] == series_value(
            snap, "repro_registry_size", registry=instance
        )
        assert registry_stats["capacity"] == series_value(
            snap, "repro_registry_capacity", registry=instance
        )
        # The batch actually exercised the cache both ways.
        assert registry_stats["misses"] > 0
        assert registry_stats["hits"] > 0

        # -- the store's stats() is a faithful view ---------------------
        store_stats = store.stats()
        store_instance = store.instance
        assert store_stats["index_saves"] == series_value(
            snap, "repro_store_index_saves_total", store=store_instance
        )
        assert store_stats["index_load_hits"] == series_value(
            snap, "repro_store_index_loads_total",
            store=store_instance, outcome="hit",
        )
        assert store_stats["index_load_misses"] == series_value(
            snap, "repro_store_index_loads_total",
            store=store_instance, outcome="miss",
        )
        assert store_stats["stale_takeovers"] == series_value(
            snap, "repro_store_stale_takeovers_total", store=store_instance
        )
        assert store_stats["index_saves"] > 0  # the misses were persisted

        # -- the serving latency histograms saw the batch ---------------
        assert sample(snap, "repro_plan_seconds")["count"] > 0
        assert sample(snap, "repro_execute_seconds")["count"] > 0
        assert snap["repro_enumerate_seconds"]["values"][0]["count"] > 0

        # -- plan counters moved, including the dedup ------------------
        assert series_value(snap, "repro_plan_requests_total") > 0
        assert series_value(snap, "repro_plan_deduped_total") > 0

    def test_index_build_histogram_observes_builds(self, triangle_graph):
        before = get_registry().snapshot()
        count_before = (
            sample(before, "repro_index_build_seconds", k="2") or {"count": 0}
        )["count"]
        CoreIndex(triangle_graph, 2)
        after = get_registry().snapshot()
        assert (
            sample(after, "repro_index_build_seconds", k="2")["count"]
            == count_before + 1
        )

    def test_index_build_histogram_observes_shared_builds(self, paper_graph):
        before = get_registry().snapshot()
        count_before = (
            sample(before, "repro_index_build_seconds", k="2,4") or {"count": 0}
        )["count"]
        CoreIndexRegistry().get_many(paper_graph, [2, 4])
        after = get_registry().snapshot()
        assert (
            sample(after, "repro_index_build_seconds", k="2,4")["count"]
            == count_before + 1
        )


class TestTraceIntegration:
    def test_query_batch_produces_nested_plan_execute_spans(self, paper_graph):
        index = CoreIndex(paper_graph, 2)
        trace = Trace("batch")
        results = index.query_batch(
            [(1, 4), (2, 6), (1, 4)], trace=trace
        )
        assert len(results) == 3

        (root,) = trace.find("query_batch")
        (plan,) = trace.find("plan")
        (execute,) = trace.find("execute")
        assert root.parent is None
        assert plan.parent == root.span_id and plan.depth == 1
        assert execute.parent == root.span_id and execute.depth == 1
        assert plan.attrs["requests"] == 3
        assert plan.attrs["deduped"] == 1

        enumerates = trace.find("enumerate")
        flushes = trace.find("sink_flush")
        assert enumerates and len(enumerates) == len(flushes)
        assert all(span.parent == execute.span_id for span in enumerates)
        assert all(span.parent == execute.span_id for span in flushes)
        # Window spans carry their range and fan-out width.
        assert all(
            {"ts", "te", "requests"} <= set(span.attrs) for span in enumerates
        )

    def test_untraced_query_batch_stays_silent(self, paper_graph):
        from repro.obs.trace import NULL_TRACE

        index = CoreIndex(paper_graph, 2)
        index.query_batch([(1, 4)])
        assert NULL_TRACE.spans() == []
