"""CoreIndex: prebuilt-index queries vs fresh runs; the index registry."""

from __future__ import annotations

import pytest

from repro.core.enumerate import enumerate_temporal_kcores
from repro.core.index import CoreIndex
from repro.errors import InvalidParameterError


class TestIndexQueries:
    def test_every_subrange_matches_fresh(self, paper_graph):
        index = CoreIndex(paper_graph, 2)
        tmax = paper_graph.tmax
        for ts in range(1, tmax + 1):
            for te in range(ts, tmax + 1):
                via_index = index.query(ts, te)
                fresh = enumerate_temporal_kcores(paper_graph, 2, ts, te)
                assert via_index.edge_sets() == fresh.edge_sets(), (ts, te)

    def test_random_graph_subranges(self, random_graph):
        index = CoreIndex(random_graph, 2)
        tmax = random_graph.tmax
        for ts, te in [(1, tmax), (2, tmax - 1), (tmax // 2, tmax)]:
            if ts > te:
                continue
            assert (
                index.query(ts, te).edge_sets()
                == enumerate_temporal_kcores(random_graph, 2, ts, te).edge_sets()
            )

    def test_historical_core(self, paper_graph):
        index = CoreIndex(paper_graph, 2)
        members = index.historical_core(1, 4)
        assert {paper_graph.label_of(u) for u in members} == {
            "v1", "v2", "v3", "v4", "v9",
        }

    def test_invalid_k(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            CoreIndex(paper_graph, 0)

    def test_streaming_query(self, paper_graph):
        index = CoreIndex(paper_graph, 2)
        result = index.query(1, 7, collect=False)
        assert result.cores is None
        assert result.num_results == 13


class TestCoreIndexRegistry:
    def test_hit_and_miss_counters(self, paper_graph):
        from repro.core.index import CoreIndexRegistry

        registry = CoreIndexRegistry(capacity=4)
        first = registry.get(paper_graph, 2)
        second = registry.get(paper_graph, 2)
        assert first is second
        assert registry.stats() == {
            "hits": 1, "misses": 1, "store_hits": 0, "multik_builds": 1,
            "store_hits_by_k": {}, "multik_builds_by_k": {2: 1},
            "size": 1, "capacity": 4,
        }

    def test_distinct_k_are_distinct_entries(self, paper_graph):
        from repro.core.index import CoreIndexRegistry

        registry = CoreIndexRegistry(capacity=4)
        assert registry.get(paper_graph, 2) is not registry.get(paper_graph, 3)
        assert len(registry) == 2

    def test_lru_eviction(self, paper_graph, triangle_graph):
        from repro.core.index import CoreIndexRegistry

        registry = CoreIndexRegistry(capacity=2)
        a = registry.get(paper_graph, 2)
        b = registry.get(triangle_graph, 2)
        registry.get(paper_graph, 2)  # refresh a
        registry.get(paper_graph, 3)  # evicts b (least recently used)
        assert len(registry) == 2
        assert registry.get(paper_graph, 2) is a
        assert registry.get(triangle_graph, 2) is not b  # rebuilt after eviction

    def test_identity_keying_rejects_stale_graph(self, paper_graph):
        from repro.core.index import CoreIndexRegistry
        from repro.datasets.paper_example import paper_example_graph

        registry = CoreIndexRegistry(capacity=2)
        registry.get(paper_graph, 2)
        other = paper_example_graph()  # equal content, different object
        built = registry.get(other, 2)
        assert built.graph is other
        assert registry.stats()["misses"] == 2

    def test_invalid_capacity(self):
        from repro.core.index import CoreIndexRegistry

        with pytest.raises(InvalidParameterError):
            CoreIndexRegistry(capacity=0)

    def test_default_registry_helper(self, paper_graph):
        from repro.core.index import CoreIndexRegistry, get_core_index

        registry = CoreIndexRegistry(capacity=1)
        index = get_core_index(paper_graph, 2, registry=registry)
        assert get_core_index(paper_graph, 2, registry=registry) is index

    def test_clear_drops_entries(self, paper_graph):
        from repro.core.index import CoreIndexRegistry

        registry = CoreIndexRegistry(capacity=2)
        registry.get(paper_graph, 2)
        registry.clear()
        assert len(registry) == 0
