"""Batch answering: fixed-``k`` batches through a registry-resolved index,
mixed batches through :func:`repro.serve.execute_batch`."""

from __future__ import annotations

import pytest

from repro.core.enumerate import enumerate_temporal_kcores
from repro.core.index import CoreIndex, CoreIndexRegistry, get_core_index
from repro.errors import InvalidParameterError
from repro.serve import QueryRequest, execute_batch


def counters(results):
    return [(r.time_range, r.num_results, r.total_edges) for r in results]


def mixed(queries, **kwargs):
    """``execute_batch`` over ``(graph, k, (ts, te))`` triples; the results."""
    _plan, results = execute_batch(
        [QueryRequest(graph, k, ts, te) for graph, k, (ts, te) in queries],
        **kwargs,
    )
    return results


class TestSequentialBatch:
    def test_answers_in_order(self, paper_graph):
        ranges = [(1, 4), (2, 3), (1, 7), (5, 5)]
        answers = CoreIndex(paper_graph, 2).query_batch(ranges)
        assert [a.time_range for a in answers] == ranges
        assert [a.num_results for a in answers] == [2, 1, 13, 1]

    def test_counters_match_direct_runs(self, random_graph):
        ranges = [(1, random_graph.tmax), (2, random_graph.tmax - 1)]
        answers = CoreIndex(random_graph, 2).query_batch(ranges)
        for answer in answers:
            direct = enumerate_temporal_kcores(
                random_graph, 2, *answer.time_range, collect=False
            )
            assert answer.num_results == direct.num_results
            assert answer.total_edges == direct.total_edges

    def test_empty_batch(self, paper_graph):
        assert CoreIndex(paper_graph, 2).query_batch([]) == []

    def test_validation(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            CoreIndex(paper_graph, 0)
        with pytest.raises(InvalidParameterError):
            CoreIndex(paper_graph, 2).query_batch([(0, 3)])


class TestEngineBatch:
    def test_batch_reuses_registry_index(self, paper_graph):
        registry = CoreIndexRegistry(capacity=2)
        get_core_index(paper_graph, 2, registry=registry).query_batch(
            [(1, 4), (2, 6)]
        )
        get_core_index(paper_graph, 2, registry=registry).query_batch([(1, 7)])
        stats = registry.stats()
        assert (stats["misses"], stats["hits"]) == (1, 1)

    def test_batch_store_fallthrough_computes_nothing(
        self, paper_graph, tmp_path, monkeypatch
    ):
        """A store-backed batch warm-starts from disk."""
        import repro.core.index as index_module
        import repro.core.multik as multik_module
        from repro.store import IndexStore

        store = IndexStore(tmp_path / "store")
        store.save_index(CoreIndex(paper_graph, 2), name="paper")

        def explode(*args, **kwargs):
            raise AssertionError("store-backed batch recomputed the index")

        monkeypatch.setattr(index_module, "compute_core_times", explode)
        monkeypatch.setattr(multik_module, "compute_core_times_multi", explode)
        registry = CoreIndexRegistry(capacity=2, store=store)
        answers = get_core_index(paper_graph, 2, registry=registry).query_batch(
            [(1, 4), (2, 3)]
        )
        assert [a.num_results for a in answers] == [2, 1]
        assert registry.stats()["store_hits"] == 1


class TestMixedBatch:
    def test_matches_fixed_k_batches(self, paper_graph):
        registry = CoreIndexRegistry(capacity=8)
        queries = [
            (paper_graph, 2, (1, 4)),
            (paper_graph, 3, (1, 7)),
            (paper_graph, 2, (2, 3)),
            (paper_graph, 3, (2, 6)),
        ]
        answers = mixed(queries, registry=registry)
        assert [a.k for a in answers] == [2, 3, 2, 3]
        for answer, (graph, k, time_range) in zip(answers, queries):
            expected = CoreIndex(graph, k).query_batch([time_range])[0]
            assert answer.time_range == expected.time_range
            assert answer.num_results == expected.num_results
            assert answer.total_edges == expected.total_edges

    def test_one_shared_build_per_graph(self, paper_graph):
        registry = CoreIndexRegistry(capacity=8)
        mixed(
            [
                (paper_graph, 2, (1, 4)),
                (paper_graph, 3, (1, 4)),
                (paper_graph, 4, (1, 4)),
                (paper_graph, 2, (2, 6)),
            ],
            registry=registry,
        )
        stats = registry.stats()
        assert stats["multik_builds"] == 1
        assert stats["multik_builds_by_k"] == {2: 1, 3: 1, 4: 1}

    def test_groups_by_graph_identity(self, paper_graph, triangle_graph):
        registry = CoreIndexRegistry(capacity=8)
        answers = mixed(
            [
                (paper_graph, 2, (1, 7)),
                (triangle_graph, 2, (1, 3)),
                (paper_graph, 3, (1, 7)),
            ],
            registry=registry,
        )
        assert len(answers) == 3
        assert answers[1].num_results == 1  # the triangle
        assert registry.stats()["size"] == 3

    def test_store_fallthrough_warm_starts(self, paper_graph, tmp_path, monkeypatch):
        """Acceptance: a prebuilt store serves a mixed batch, zero compute."""
        import repro.core.index as index_module
        import repro.core.multik as multik_module
        from repro.store import IndexStore

        store = IndexStore(tmp_path / "store")
        store.build_all(paper_graph, [2, 3], name="paper")

        def explode(*args, **kwargs):
            raise AssertionError("mixed batch recomputed despite a warm store")

        monkeypatch.setattr(index_module, "compute_core_times", explode)
        monkeypatch.setattr(multik_module, "compute_core_times_multi", explode)
        registry = CoreIndexRegistry(capacity=8, store=store)
        answers = mixed(
            [(paper_graph, 2, (1, 4)), (paper_graph, 3, (1, 7))],
            registry=registry,
        )
        assert [a.k for a in answers] == [2, 3]
        stats = registry.stats()
        assert stats["store_hits_by_k"] == {2: 1, 3: 1}
        assert stats["multik_builds"] == 0

    def test_empty_and_validation(self, paper_graph):
        assert mixed([]) == []
        with pytest.raises(InvalidParameterError):
            mixed([(paper_graph, 0, (1, 2))])
        with pytest.raises(InvalidParameterError):
            mixed([(paper_graph, 2, (0, 3))])
