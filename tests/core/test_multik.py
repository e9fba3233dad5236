"""Shared-scan multi-k builds: equivalence, registry get_many, serving.

The acceptance property: :func:`compute_core_times_multi` must emit
VCT transition lists and ECS windows *identical* to one single-k
:func:`compute_core_times` run per ``k`` — and, transitively, to the
preserved dict-based reference kernel — for ``ks = {2, 3, 4, 5}`` on
the paper example and seeded random multigraphs, over the full span and
sub-windows.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.core.index as index_module
from repro.core import multik, native
from repro.core.coretime import compute_core_times
from repro.core.coretime_ref import compute_core_times_reference
from repro.core.index import CoreIndex, CoreIndexRegistry
from repro.core.multik import build_core_indexes, compute_core_times_multi
from repro.errors import InvalidParameterError
from repro.graph.generators import uniform_random_temporal
from repro.graph.temporal_graph import TemporalGraph


def assert_multi_identical(graph, ks, ts=None, te=None, *, oracle=False):
    """Multi-k output must equal per-k single builds entry-by-entry."""
    multi = compute_core_times_multi(graph, ks, ts, te)
    assert sorted(multi) == sorted(set(ks))
    for k in multi:
        single = compute_core_times(graph, k, ts, te)
        if oracle:
            reference = compute_core_times_reference(graph, k, ts, te)
        got = multi[k]
        assert got.vct.span == single.vct.span
        assert got.vct.size() == single.vct.size()
        for u in range(graph.num_vertices):
            expected = single.vct.entries_of(u)
            assert got.vct.entries_of(u) == expected, (k, u, ts, te)
            if oracle:
                assert reference.vct.entries_of(u) == expected, (k, u)
        assert got.ecs is not None and single.ecs is not None
        assert got.ecs.size() == single.ecs.size()
        for eid in range(graph.num_edges):
            expected = single.ecs.windows_of(eid)
            assert got.ecs.windows_of(eid) == expected, (k, eid, ts, te)
            if oracle:
                assert reference.ecs.windows_of(eid) == expected, (k, eid)


@pytest.fixture(params=range(6))
def property_graph(request) -> TemporalGraph:
    """Seeded random multigraphs, denser than the oracle fixtures."""
    return uniform_random_temporal(14, 110, tmax=16, seed=1000 + request.param)


class TestMultiKEquivalence:
    def test_acceptance_ks_2345_random(self, property_graph):
        """Acceptance: ks={2,3,4,5} bit-identical on generated graphs."""
        assert_multi_identical(property_graph, [2, 3, 4, 5], oracle=True)

    def test_acceptance_ks_2345_paper(self, paper_graph):
        """Acceptance: ks={2,3,4,5} bit-identical on the paper example."""
        assert_multi_identical(paper_graph, [2, 3, 4, 5], oracle=True)

    def test_includes_k1_and_sparse_k_sets(self, property_graph):
        assert_multi_identical(property_graph, [1, 3, 7])

    def test_subwindows(self, property_graph):
        tmax = property_graph.tmax
        for ts, te in [(2, tmax), (1, tmax - 2), (3, tmax - 3), (5, 9)]:
            assert_multi_identical(property_graph, [2, 3], ts, te)

    def test_duplicate_and_unordered_ks(self, paper_graph):
        multi = compute_core_times_multi(paper_graph, [5, 2, 2, 3, 5])
        assert sorted(multi) == [2, 3, 5]
        assert_multi_identical(paper_graph, [5, 2, 2, 3, 5])

    def test_single_k_delegates_to_single_kernel(self, paper_graph):
        multi = compute_core_times_multi(paper_graph, [2])
        single = compute_core_times(paper_graph, 2)
        for u in range(paper_graph.num_vertices):
            assert multi[2].vct.entries_of(u) == single.vct.entries_of(u)

    def test_without_skyline(self, paper_graph):
        multi = compute_core_times_multi(paper_graph, [2, 3], with_skyline=False)
        assert multi[2].ecs is None and multi[3].ecs is None
        single = compute_core_times(paper_graph, 3, with_skyline=False)
        for u in range(paper_graph.num_vertices):
            assert multi[3].vct.entries_of(u) == single.vct.entries_of(u)

    def test_dense_parallel_edges(self):
        triples = []
        for t in range(1, 8):
            triples += [("a", "b", t), ("b", "c", t), ("a", "c", t)] * 2
        assert_multi_identical(TemporalGraph(triples), [1, 2, 3], oracle=True)

    def test_k_above_max_degree(self, property_graph):
        multi = compute_core_times_multi(property_graph, [2, 50])
        assert multi[50].vct.size() == 0
        assert multi[50].ecs.size() == 0
        assert_multi_identical(property_graph, [1, 2, 50])

    def test_width_one_windows(self, property_graph):
        for t in (1, 2, property_graph.tmax // 2, property_graph.tmax):
            assert_multi_identical(property_graph, [1, 2, 3], t, t)

    def test_large_batch_at_one_timestamp(self):
        """One timestamp carrying most edges: every level seeds at once."""
        rng = random.Random(77)
        triples = [
            (f"v{rng.randrange(40)}", f"w{rng.randrange(40)}", rng.randint(1, 6))
            for _ in range(300)
        ]
        triples += [(f"v{i}", f"v{j}", 3) for i in range(30) for j in range(i)]
        graph = TemporalGraph(triples)
        for ts, te in [(None, None), (2, 5), (3, 6)]:
            assert_multi_identical(graph, [1, 2, 5, 12], ts, te)

    def test_high_degree_hubs(self):
        """Degrees well past 16 with few tied times exercise the k-th
        smallest selection (quickselect in the compiled step)."""
        rng = random.Random(3)
        triples = [
            (f"h{rng.randrange(6)}", f"x{rng.randrange(60)}", rng.randint(1, 400))
            for _ in range(1200)
        ]
        triples += [
            (f"x{rng.randrange(60)}", f"x{rng.randrange(60)}", rng.randint(1, 400))
            for _ in range(400)
        ]
        graph = TemporalGraph(triples)
        assert_multi_identical(graph, [1, 3, 8, 20])
        assert_multi_identical(graph, [2, 5], 100, 300)

    def test_without_skyline_random(self, property_graph):
        tmax = property_graph.tmax
        for ts, te in [(None, None), (3, tmax - 2)]:
            multi = compute_core_times_multi(
                property_graph, [1, 3, 5], ts, te, with_skyline=False
            )
            for k, got in multi.items():
                assert got.ecs is None
                reference = compute_core_times_reference(property_graph, k, ts, te)
                for u in range(property_graph.num_vertices):
                    assert got.vct.entries_of(u) == reference.vct.entries_of(u), (k, u)

    def test_span_end_below_tmax(self, property_graph):
        """An end below tmax bounds every vertex's incident-edge cursor."""
        tmax = property_graph.tmax
        for ts, te in [(1, tmax - 1), (1, tmax // 2), (4, tmax - 5)]:
            assert_multi_identical(property_graph, [1, 2, 4], ts, te, oracle=True)

    def test_validation(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            compute_core_times_multi(paper_graph, [])
        with pytest.raises(InvalidParameterError):
            compute_core_times_multi(paper_graph, [0, 2])
        with pytest.raises(InvalidParameterError):
            compute_core_times_multi(paper_graph, [2], 0, 99)

    def test_validation_checks_values_before_dedup(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            compute_core_times_multi(paper_graph, [2, "3"])
        with pytest.raises(InvalidParameterError):
            compute_core_times_multi(paper_graph, [1, True])


@pytest.mark.usefixtures("numpy_fixpoint")
class TestMultiKEquivalenceNumpy(TestMultiKEquivalence):
    """Every equivalence case again on the numpy fixpoint rounds."""


@pytest.mark.skipif(native.library() is None, reason="no working C compiler")
class TestCompiledBuildPass:
    """The one-call build pass against the numpy step loop."""

    @pytest.fixture()
    def pass_calls(self, monkeypatch):
        """Starts every build with no output space; counts pass calls."""
        kernels = native.library()
        calls: list[int] = []

        def counted(args, ts_from):
            calls.append(ts_from)
            return kernels.build_pass(args, ts_from)

        monkeypatch.setattr(multik._FusedMultiK, "_START_ROWS", 0)
        monkeypatch.setattr(native, "library", lambda: kernels._replace(build_pass=counted))
        return calls

    @staticmethod
    def _numpy_build(monkeypatch, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(native, "library", lambda: None)
            return compute_core_times_multi(*args, **kwargs)

    def test_resume_matches_numpy_loop(self, pass_calls, monkeypatch, property_graph):
        tmax = property_graph.tmax
        for ts, te in [(None, None), (2, tmax - 3)]:
            pass_calls.clear()
            got = compute_core_times_multi(property_graph, [1, 2, 4], ts, te)
            assert len(pass_calls) > 1  # stopped short and resumed
            assert pass_calls == sorted(pass_calls)
            want = self._numpy_build(monkeypatch, property_graph, [1, 2, 4], ts, te)
            for k in (1, 2, 4):
                for got_part, want_part in zip(
                    got[k].vct.flat_parts() + got[k].ecs.flat_parts(),
                    want[k].vct.flat_parts() + want[k].ecs.flat_parts(),
                ):
                    assert list(got_part) == list(want_part), k
            assert_multi_identical(property_graph, [1, 2, 4], ts, te, oracle=True)

    def test_resume_without_skyline(self, pass_calls, paper_graph):
        got = compute_core_times_multi(paper_graph, [2, 3], with_skyline=False)
        assert len(pass_calls) > 1
        for k in (2, 3):
            reference = compute_core_times_reference(paper_graph, k)
            for u in range(paper_graph.num_vertices):
                assert got[k].vct.entries_of(u) == reference.vct.entries_of(u)

    def test_rejects_non_contiguous_state(self, paper_graph):
        fused = multik._FusedMultiK(paper_graph, [2, 3], 1, paper_graph.tmax, True)
        multik._shared_initial_scan(fused.base, [2, 3], fused.ct_matrix)
        fused.seed_from_initial_scan()
        fused.base.ett = np.repeat(fused.base.ett, 2)[::2]
        with pytest.raises(TypeError):
            fused.run()


class TestBuildCoreIndexes:
    def test_builds_every_k(self, paper_graph):
        indexes = build_core_indexes(paper_graph, [2, 3, 4])
        assert sorted(indexes) == [2, 3, 4]
        for k, index in indexes.items():
            assert isinstance(index, CoreIndex)
            assert index.k == k and index.graph is paper_graph

    def test_queries_match_fresh_index(self, paper_graph):
        indexes = build_core_indexes(paper_graph, [2, 3])
        for k in (2, 3):
            fresh = CoreIndex(paper_graph, k)
            for ts, te in [(1, 7), (2, 4), (1, 4)]:
                assert indexes[k].query(ts, te).edge_sets() == fresh.query(
                    ts, te
                ).edge_sets()

    def test_store_hits_skip_compute(self, paper_graph, tmp_path, monkeypatch):
        from repro.store import IndexStore

        store = IndexStore(tmp_path / "store")
        store.save_index(CoreIndex(paper_graph, 2), name="paper")
        store.save_index(CoreIndex(paper_graph, 3), name="paper")

        def explode(*args, **kwargs):
            raise AssertionError("computed although the store holds every k")

        monkeypatch.setattr(index_module, "compute_core_times", explode)
        import repro.core.multik as multik_module

        monkeypatch.setattr(multik_module, "compute_core_times_multi", explode)
        indexes = build_core_indexes(paper_graph, [2, 3], store=store)
        assert sorted(indexes) == [2, 3]

    def test_partial_store_builds_only_missing(self, paper_graph, tmp_path):
        from repro.store import IndexStore

        store = IndexStore(tmp_path / "store")
        store.save_index(CoreIndex(paper_graph, 2), name="paper")
        indexes = build_core_indexes(paper_graph, [2, 3, 4], store=store)
        assert sorted(indexes) == [2, 3, 4]
        # The store only ever held k=2; nothing was written back.
        assert store.stored_ks("paper") == [2]

    def test_from_core_times_requires_skyline(self, paper_graph):
        result = compute_core_times(paper_graph, 2, with_skyline=False)
        with pytest.raises(InvalidParameterError):
            CoreIndex.from_core_times(paper_graph, 2, result)


class TestRegistryGetMany:
    def test_single_shared_build_for_all_misses(self, paper_graph):
        registry = CoreIndexRegistry(capacity=8)
        out = registry.get_many(paper_graph, [2, 3, 4])
        assert sorted(out) == [2, 3, 4]
        stats = registry.stats()
        assert stats["misses"] == 3
        assert stats["multik_builds"] == 1
        assert stats["multik_builds_by_k"] == {2: 1, 3: 1, 4: 1}

    def test_second_call_all_hits(self, paper_graph):
        registry = CoreIndexRegistry(capacity=8)
        first = registry.get_many(paper_graph, [2, 3])
        second = registry.get_many(paper_graph, [2, 3])
        assert first[2] is second[2] and first[3] is second[3]
        stats = registry.stats()
        assert stats["hits"] == 2 and stats["multik_builds"] == 1

    def test_get_and_get_many_share_entries(self, paper_graph):
        registry = CoreIndexRegistry(capacity=8)
        single = registry.get(paper_graph, 2)
        out = registry.get_many(paper_graph, [2, 3])
        assert out[2] is single

    def test_store_fallthrough_counts_per_k(self, paper_graph, tmp_path, monkeypatch):
        from repro.datasets.paper_example import paper_example_graph
        from repro.store import IndexStore

        store = IndexStore(tmp_path / "store")
        store.save_index(CoreIndex(paper_graph, 2), name="paper")
        store.save_index(CoreIndex(paper_graph, 3), name="paper")

        def explode(*args, **kwargs):
            raise AssertionError("warm path computed an index")

        monkeypatch.setattr(index_module, "compute_core_times", explode)
        registry = CoreIndexRegistry(capacity=8, store=store)
        fresh = paper_example_graph()  # equal content, different object
        out = registry.get_many(fresh, [2, 3])
        assert sorted(out) == [2, 3]
        stats = registry.stats()
        assert stats["store_hits"] == 2
        assert stats["store_hits_by_k"] == {2: 1, 3: 1}
        assert stats["multik_builds"] == 0
        assert stats["multik_builds_by_k"] == {}

    def test_mixed_store_and_build(self, paper_graph, tmp_path):
        from repro.store import IndexStore

        store = IndexStore(tmp_path / "store")
        store.save_index(CoreIndex(paper_graph, 2), name="paper")
        registry = CoreIndexRegistry(capacity=8, store=store)
        registry.get_many(paper_graph, [2, 3, 4])
        stats = registry.stats()
        assert stats["store_hits_by_k"] == {2: 1}
        assert stats["multik_builds_by_k"] == {3: 1, 4: 1}
        assert stats["multik_builds"] == 1

    def test_validation(self, paper_graph):
        registry = CoreIndexRegistry()
        with pytest.raises(InvalidParameterError):
            registry.get_many(paper_graph, [])
        with pytest.raises(InvalidParameterError):
            registry.get_many(paper_graph, [0])

    def test_answers_match_direct_engine(self, property_graph):
        registry = CoreIndexRegistry(capacity=8)
        out = registry.get_many(property_graph, [2, 3])
        for k in (2, 3):
            expected = compute_core_times(property_graph, k)
            for u in range(property_graph.num_vertices):
                assert out[k].vct.entries_of(u) == expected.vct.entries_of(u)


class TestRegistryEvictionUnderPressure:
    """Satellite: capacity < len(ks) must not thrash during get_many."""

    def test_single_build_populates_then_lru_evicts(self, paper_graph):
        registry = CoreIndexRegistry(capacity=2)
        out = registry.get_many(paper_graph, [2, 3, 4])
        # All three come back usable even though only two stay cached.
        assert sorted(out) == [2, 3, 4]
        stats = registry.stats()
        assert stats["multik_builds"] == 1  # one shared build, no thrash
        assert stats["size"] == 2
        # Insertion follows the requested order, so the LRU keeps the
        # last two deterministically.
        assert [k for (_gid, k) in registry._entries] == [3, 4]

    def test_evicted_k_rebuilds_on_next_call(self, paper_graph):
        registry = CoreIndexRegistry(capacity=2)
        registry.get_many(paper_graph, [2, 3, 4])
        out = registry.get_many(paper_graph, [2])  # evicted: miss again
        assert out[2].k == 2
        stats = registry.stats()
        assert stats["misses"] == 4
        assert stats["multik_builds"] == 2

    def test_requested_order_controls_survivors(self, paper_graph):
        registry = CoreIndexRegistry(capacity=2)
        registry.get_many(paper_graph, [4, 3, 2])
        assert [k for (_gid, k) in registry._entries] == [3, 2]


class TestRegistryWarmKs:
    @pytest.fixture()
    def populated(self, tmp_path, paper_graph):
        from repro.store import IndexStore

        store = IndexStore(tmp_path / "store")
        store.save_index(CoreIndex(paper_graph, 2), name="paper")
        return store

    def test_warm_builds_requested_missing_ks(self, populated):
        registry = CoreIndexRegistry(capacity=8)
        loaded = registry.warm(populated, ks=[2, 3])
        assert loaded == 2  # one loaded from disk + one built
        assert len(registry) == 2
        assert registry.stats()["multik_builds"] == 1

    def test_warm_without_ks_only_loads(self, populated):
        registry = CoreIndexRegistry(capacity=8)
        assert registry.warm(populated) == 1
        assert registry.stats()["multik_builds"] == 0

    def test_warm_gap_fill_uses_the_warmed_store(self, populated, tmp_path):
        """warm(B, ks=...) must not resolve gaps from the attached store."""
        from repro.datasets.paper_example import paper_example_graph
        from repro.store import IndexStore

        attached = IndexStore(tmp_path / "attached")
        attached.save_index(CoreIndex(paper_example_graph(), 3), name="paper")
        registry = CoreIndexRegistry(capacity=8, store=attached)
        registry.warm(populated, ks=[2, 3])  # k=3 absent from `populated`
        stats = registry.stats()
        # The gap was built, not served from the attached store.
        assert stats["store_hits"] == 0
        assert stats["multik_builds_by_k"] == {3: 1}

    def test_warm_counts_only_freshly_resolved_ks(self, populated):
        registry = CoreIndexRegistry(capacity=8)
        assert registry.warm(populated, ks=[2, 3]) == 2  # 1 load + 1 build
        # The gap-fill count derives from get_many misses, and cached
        # entries produce hits, not misses — so cached ks can never
        # inflate a warm count.
        graph = next(
            index.graph for (_gid, _k), index in registry._entries.items()
        )
        misses_before = registry.misses
        registry.get_many(graph, [2, 3])  # pure cache hits
        assert registry.misses == misses_before

    def test_warmed_ks_serve_without_compute(self, populated, monkeypatch):
        from repro.datasets.paper_example import paper_example_graph

        registry = CoreIndexRegistry(capacity=8, store=populated)
        registry.warm(ks=[2, 3])

        def explode(*args, **kwargs):
            raise AssertionError("served k recomputed after warm(ks=...)")

        monkeypatch.setattr(index_module, "compute_core_times", explode)
        # The same graph object warm() loaded is cached; an equal fresh
        # graph hits the store for stored ks.
        fresh = paper_example_graph()
        index = registry.get(fresh, 2)
        assert index.query(1, 4).num_results > 0
