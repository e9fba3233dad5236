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
from hypothesis import example, given, settings, strategies as st

import repro.core.index as index_module
from repro.core import multik, native
from repro.core.coretime import compute_core_times
from repro.core.coretime_ref import (
    compute_core_times_reference,
    core_time_by_rescan_reference,
)
from repro.core.index import CoreIndex, CoreIndexRegistry
from repro.core.multik import build_core_indexes, compute_core_times_multi
from repro.datasets.paper_example import paper_example_graph
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
        """Degrees well past 16 with few tied times exercise every k-th
        smallest selection of the compiled step: the count of
        availabilities at most the old core time, the smallest one
        above it, and quickselect on a copy when neither settles it
        (ks 15, 16 and 17 on a dense block)."""
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
        limit = 16
        # A dense block keeps cores at those ks alive over wide windows.
        triples += [
            (f"y{rng.randrange(30)}", f"y{rng.randrange(30)}", rng.randint(1, 400))
            for _ in range(1500)
        ]
        graph = TemporalGraph(triples)
        ks = [limit - 1, limit, limit + 1]
        assert (graph.compiled().full_degree > limit + 1).sum() >= 36
        fallbacks = multik.kernel_work_counts()["fallback_selections"]
        assert all(result.vct.size() for result in compute_core_times_multi(graph, ks).values())
        assert multik.kernel_work_counts()["fallback_selections"] > fallbacks
        assert_multi_identical(graph, ks, oracle=True)
        assert_multi_identical(graph, ks, 50, 350, oracle=True)

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


@pytest.mark.failed_compile
class TestMultiKEquivalenceNumpy(TestMultiKEquivalence):
    """Every equivalence case on a host whose compile failed: it raises, it never computes."""


class TestCompiledBuildPass:
    """The one-call build pass, stopped short and resumed, against the seed oracle."""

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

    def test_resume_matches_numpy_loop(self, pass_calls, property_graph):
        """A resumed build equals the seed oracle (the numpy loop of the name is gone)."""
        tmax = property_graph.tmax
        for ts, te in [(None, None), (2, tmax - 3)]:
            pass_calls.clear()
            compute_core_times_multi(property_graph, [1, 2, 4], ts, te)
            assert len(pass_calls) > 1  # stopped short and resumed
            assert pass_calls == sorted(pass_calls)
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
        fused.scan_first_start()
        fused.seed_from_initial_scan()
        fused.base.ett = np.repeat(fused.base.ett, 2)[::2]
        with pytest.raises(TypeError):
            fused.run()


def hot_stream(seed: int, count: int) -> list[tuple[str, str, int]]:
    """The first ``count`` edges of perfbench's ``HotStream(seed)`` (``perfbench/gens.py``).

    Endpoints are beta-skewed into an 80-vertex pool of 3000 that drifts
    forward with every edge; the clock advances before 55% of draws.
    """
    rng = random.Random(seed)
    t, base, out = 1, 0.0, []

    def draw() -> str:
        return f"v{(int(base) + int(rng.betavariate(1.2, 3.0) * 80)) % 3000}"

    while len(out) < count:
        if rng.random() < 0.55:
            t += 1
        u, v = draw(), draw()
        if u == v:
            continue
        out.append((u, v, t))
        base += 0.02
    return out


def work_of(build) -> dict[str, int]:
    """The ``repro_kernel_work_total`` counts ``build()`` adds, by unit."""
    before = multik.kernel_work_counts()
    build()
    after = multik.kernel_work_counts()
    return {unit: after[unit] - before[unit] for unit in multik.WORK_UNITS}


class TestWorkCounts:
    """The build pass's work counts are exact: pinned, and equal across runs."""

    def test_paper_example(self, paper_graph):
        def build():
            compute_core_times_multi(paper_graph, [2, 3, 4, 5])

        want = {"evaluations": 16, "fallback_selections": 1, "harvest_steps": 18}
        assert work_of(build) == want
        assert work_of(build) == want

    def test_without_skyline_nothing_is_harvested(self, paper_graph):
        got = work_of(lambda: compute_core_times_multi(paper_graph, [2, 3, 4, 5], with_skyline=False))
        assert got == {"evaluations": 16, "fallback_selections": 1, "harvest_steps": 0}

    def test_hot_stream(self):
        """perfbench ``build-cold``'s graph and ks: its skyline holds 187,572 rows."""
        graph = TemporalGraph(hot_stream(11, 5000))
        built = []

        def build():
            built.append(compute_core_times_multi(graph, [2, 4, 8]))

        want = {"evaluations": 87_140, "fallback_selections": 6_154, "harvest_steps": 426_497}
        assert work_of(build) == want
        assert work_of(build) == want
        assert sum(result.ecs.size() for result in built[0].values()) == 187_572


@st.composite
def multigraph_cases(draw):
    """A multigraph with pairs repeated at one timestamp, ks within 1..20, a sub-span."""
    n = draw(st.integers(min_value=4, max_value=9))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = [
        (u, v, t)
        for u, v, t in draw(
            st.lists(
                st.tuples(vertex, vertex, st.integers(min_value=1, max_value=24)),
                min_size=40,
                max_size=160,
            )
        )
        if u != v
    ] or [(0, 1, 1)]
    edges += draw(st.lists(st.sampled_from(edges), max_size=20))
    graph = TemporalGraph(edges)
    ks = sorted(draw(st.sets(st.integers(min_value=1, max_value=20), min_size=1, max_size=6)))
    bound = st.integers(min_value=1, max_value=graph.tmax)
    ts, te = sorted((draw(bound), draw(bound)))
    return graph, ks, ts, te


class TestDrawnMultigraphs:
    def test_matches_reference_for_every_k(self):
        """The fused build equals ``coretime_ref`` entry for entry on drawn
        multigraphs, and the drawn cases reach the quickselect fallback."""
        fallbacks = multik.kernel_work_counts()["fallback_selections"]

        paper = paper_example_graph()

        # The paper example at ks 2..5 takes the fallback once, so the
        # sum below does not rest on the draws alone.
        @example(case=(paper, [2, 3, 4, 5], 1, paper.tmax))
        @settings(max_examples=60, deadline=None, database=None)
        @given(case=multigraph_cases())
        def check(case):
            graph, ks, ts, te = case
            multi = compute_core_times_multi(graph, ks, ts, te)
            assert sorted(multi) == ks
            for k in ks:
                reference = compute_core_times_reference(graph, k, ts, te)
                got = multi[k]
                for u in range(graph.num_vertices):
                    assert got.vct.entries_of(u) == reference.vct.entries_of(u), (k, u)
                for eid in range(graph.num_edges):
                    assert got.ecs.windows_of(eid) == reference.ecs.windows_of(eid), (k, eid)

        check()
        assert multik.kernel_work_counts()["fallback_selections"] > fallbacks


class TestCompiledInitialScan:
    """``repro_initial_scan`` against the seed oracle's rescan, level by level."""

    @staticmethod
    def assert_scans_identical(graph, ks, ts, te):
        """Each row of the scan's core-time matrix is the oracle's; the rest hold inf."""
        compiled = multik._FusedMultiK(graph, ks, ts, te, False)
        compiled.scan_first_start()
        for level, k in enumerate(ks):
            row = compiled.ct_matrix[level].tolist()
            finite = {u: ct for u, ct in enumerate(row) if ct <= te}
            assert finite == core_time_by_rescan_reference(graph, k, ts, te), (k, ts, te)
            assert all(ct == te + 1 for ct in row if ct > te), (k, ts, te)
        return compiled.ct_matrix

    @pytest.mark.parametrize("ks", [[1], [2], [1, 3, 7], [2, 3, 4, 5], [1, 2, 40]])
    def test_full_span_and_subwindows(self, property_graph, ks):
        tmax = property_graph.tmax
        for ts, te in [(1, tmax), (2, tmax), (1, tmax - 2), (3, tmax - 3), (5, 9)]:
            ct = self.assert_scans_identical(property_graph, ks, ts, te)
            if ks[0] == 1 and (ts, te) == (1, tmax):
                assert (ct[0] <= te).any()  # the case is not vacuous

    @pytest.mark.parametrize("ks", [[1], [1, 2], [2, 4]])
    def test_single_timestamp_windows(self, property_graph, ks):
        tmax = property_graph.tmax
        for t in (1, 4, tmax):
            self.assert_scans_identical(property_graph, ks, t, t)

    def test_paper_graph(self, paper_graph):
        for ks in ([1, 2, 3, 4], [2], [3, 5]):
            self.assert_scans_identical(paper_graph, ks, 1, paper_graph.tmax)
            self.assert_scans_identical(paper_graph, ks, 2, 6)

    def test_no_vertex_survives(self, property_graph):
        path = TemporalGraph([("a", "b", 1), ("b", "c", 2), ("c", "d", 3)])
        ct = self.assert_scans_identical(path, [2, 3], 1, 3)
        assert (ct == 4).all()
        tmax = property_graph.tmax
        ct = self.assert_scans_identical(property_graph, [30, 50], 1, tmax)
        assert (ct == tmax + 1).all()
        ct = self.assert_scans_identical(property_graph, [1, 2, 30], 1, tmax)
        assert (ct[2] == tmax + 1).all() and (ct[0] <= tmax).any()


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
        indexes = CoreIndexRegistry(store=store).get_many(paper_graph, [2, 3])
        assert sorted(indexes) == [2, 3]

    def test_partial_store_builds_only_missing(self, paper_graph, tmp_path):
        from repro.store import IndexStore

        store = IndexStore(tmp_path / "store")
        store.save_index(CoreIndex(paper_graph, 2), name="paper")
        indexes = CoreIndexRegistry(store=store).get_many(paper_graph, [2, 3, 4])
        assert sorted(indexes) == [2, 3, 4]
        # k=2 was opened as stored; the two built ks landed in one commit.
        assert store.stats()["index_saves"] == 3
        assert store.stored_ks("paper") == [2, 3, 4]

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
        monkeypatch.setattr(multik, "compute_core_times_multi", explode)
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
