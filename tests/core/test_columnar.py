"""Columnar serving path vs the seed list-based oracle.

The native VCT/ECS representation is offset-indexed flat arrays with
vectorised per-query answering (``restricted_to`` /
``active_window_arrays`` / ``core_members`` / ``query_batch``).  These
property tests re-implement the seed list-of-tuples semantics verbatim
— per-edge window scans, per-edge activation loops, per-vertex bisect
membership — and assert the vectorised paths return identical answers
over randomised graphs, ``k`` values and query windows, including
degenerate (empty-result) and full-span windows, plus a store round
trip of the native representation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coretime import compute_core_times
from repro.core.index import CoreIndex, CoreIndexRegistry, get_core_index
from repro.core.query import TimeRangeCoreQuery
from repro.graph.generators import uniform_random_temporal
from repro.serve.executor import execute_batch
from repro.serve.planner import QueryRequest
from repro.store.index_store import IndexStore


# ----------------------------------------------------------------------
# Seed list-based oracle (pre-columnar semantics, kept verbatim)
# ----------------------------------------------------------------------

def oracle_restricted(skyline, ts: int, te: int) -> list[tuple[tuple[int, int], ...]]:
    """The seed ``EdgeCoreSkyline.restricted_to``: a per-edge Python scan."""
    return [
        tuple(w for w in skyline.windows_of(eid) if ts <= w[0] and w[1] <= te)
        for eid in range(skyline.num_edges)
    ]


def oracle_active_windows(
    windows_by_edge: list[tuple[tuple[int, int], ...]], ts_lo: int
) -> list[tuple[int, int, int, int]]:
    """The seed ``build_active_windows``: per-edge activation chaining.

    Returns ``(eid, start, end, active)`` tuples in per-edge order —
    the same order the columnar arrays use (edge-major, ascending
    start).
    """
    out: list[tuple[int, int, int, int]] = []
    for eid, windows in enumerate(windows_by_edge):
        previous_start: int | None = None
        for t1, t2 in windows:
            active = ts_lo if previous_start is None else previous_start + 1
            out.append((eid, t1, t2, active))
            previous_start = t1
    return out


def oracle_historical(vct, num_vertices: int, ts: int, te: int) -> set[int]:
    """The seed ``historical_core``: a per-vertex membership loop."""
    return {u for u in range(num_vertices) if vct.in_core(u, ts, te)}


def query_windows(tmax: int) -> list[tuple[int, int]]:
    """Full span, single instants, boundaries and interior sub-ranges."""
    windows = [
        (1, tmax),
        (1, 1),
        (tmax, tmax),
        (1, max(1, tmax - 1)),
        (2, tmax),
        (2, max(2, tmax - 2)),
        (max(1, tmax // 2), tmax),
        (max(1, tmax // 3), max(1, 2 * tmax // 3)),
    ]
    return sorted({(ts, te) for ts, te in windows if ts <= te})


@pytest.fixture(params=range(4))
def columnar_graph(request):
    """Seeded random multigraphs sized for exhaustive window sweeps."""
    return uniform_random_temporal(13, 90, tmax=15, seed=4000 + request.param)


class TestRestrictedToOracle:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_seed_scan_on_all_windows(self, columnar_graph, k):
        skyline = compute_core_times(columnar_graph, k).ecs
        for ts, te in query_windows(columnar_graph.tmax):
            narrowed = skyline.restricted_to(ts, te)
            expected = oracle_restricted(skyline, ts, te)
            assert narrowed.span == (ts, te)
            for eid in range(skyline.num_edges):
                assert narrowed.windows_of(eid) == expected[eid], (k, ts, te, eid)
            narrowed.check_skyline_invariant()

    def test_restriction_of_restriction(self, columnar_graph):
        skyline = compute_core_times(columnar_graph, 2).ecs
        tmax = columnar_graph.tmax
        once = skyline.restricted_to(2, tmax - 1)
        twice = once.restricted_to(3, tmax - 2)
        expected = oracle_restricted(skyline, 3, tmax - 2)
        for eid in range(skyline.num_edges):
            assert twice.windows_of(eid) == expected[eid]

    def test_empty_skyline(self, columnar_graph):
        """k above any degree: every window restriction is empty."""
        skyline = compute_core_times(columnar_graph, 40).ecs
        assert skyline.size() == 0
        narrowed = skyline.restricted_to(2, columnar_graph.tmax - 1)
        assert narrowed.size() == 0
        assert all(
            narrowed.windows_of(eid) == () for eid in range(narrowed.num_edges)
        )


class TestActiveWindowArraysOracle:
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_seed_activation(self, columnar_graph, k):
        skyline = compute_core_times(columnar_graph, k).ecs
        for ts, te in query_windows(columnar_graph.tmax):
            eids, starts, ends, actives = skyline.active_window_arrays(ts, te)
            expected = oracle_active_windows(oracle_restricted(skyline, ts, te), ts)
            got = list(
                zip(eids.tolist(), starts.tolist(), ends.tolist(), actives.tolist())
            )
            assert got == expected, (k, ts, te)

    def test_activation_bounds(self, columnar_graph):
        skyline = compute_core_times(columnar_graph, 2).ecs
        ts, te = 2, columnar_graph.tmax - 1
        _eids, starts, _ends, actives = skyline.active_window_arrays(ts, te)
        assert np.all(actives >= ts)
        assert np.all(actives <= starts)


class TestHistoricalCoreOracle:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_per_vertex_loop(self, columnar_graph, k):
        index = CoreIndex(columnar_graph, k)
        n = columnar_graph.num_vertices
        for ts, te in query_windows(columnar_graph.tmax):
            expected = oracle_historical(index.vct, n, ts, te)
            assert index.historical_core(ts, te) == expected, (k, ts, te)

    def test_members_are_plain_ints(self, columnar_graph):
        members = CoreIndex(columnar_graph, 2).historical_core(
            1, columnar_graph.tmax
        )
        assert all(type(u) is int for u in members)

    def test_empty_vct(self, columnar_graph):
        index = CoreIndex(columnar_graph, 40)
        assert index.historical_core(1, columnar_graph.tmax) == set()


class TestBatchOracle:
    def test_query_batch_matches_enum_engine(self, columnar_graph):
        index = CoreIndex(columnar_graph, 2)
        ranges = query_windows(columnar_graph.tmax)
        results = index.query_batch(ranges, collect=True)
        for (ts, te), got in zip(ranges, results):
            fresh = TimeRangeCoreQuery(
                columnar_graph, 2, time_range=(ts, te), engine="enum"
            ).run()
            assert got.edge_sets() == fresh.edge_sets(), (ts, te)
            assert got.num_results == fresh.num_results
            assert got.total_edges == fresh.total_edges

    def test_query_batch_counts_match_enum(self, columnar_graph):
        ranges = query_windows(columnar_graph.tmax)
        registry = CoreIndexRegistry(capacity=2)
        index = get_core_index(columnar_graph, 2, registry=registry)
        answers = index.query_batch(ranges)
        for (ts, te), answer in zip(ranges, answers):
            fresh = TimeRangeCoreQuery(
                columnar_graph, 2, time_range=(ts, te), engine="enum", collect=False
            ).run()
            assert answer.time_range == (ts, te)
            assert answer.num_results == fresh.num_results
            assert answer.total_edges == fresh.total_edges

    def test_mixed_batch_matches_per_query(self, columnar_graph):
        other = uniform_random_temporal(10, 60, tmax=12, seed=4999)
        queries = []
        for graph in (columnar_graph, other):
            for k in (2, 3):
                for ts, te in query_windows(graph.tmax)[:4]:
                    queries.append((graph, k, (ts, te)))
        registry = CoreIndexRegistry(capacity=8)
        _plan, answers = execute_batch(
            [QueryRequest(g, k, ts, te) for g, k, (ts, te) in queries],
            registry=registry,
        )
        assert len(answers) == len(queries)
        for (graph, k, (ts, te)), answer in zip(queries, answers):
            fresh = TimeRangeCoreQuery(
                graph, k, time_range=(ts, te), engine="enum", collect=False
            ).run()
            assert answer.k == k
            assert answer.num_results == fresh.num_results
            assert answer.total_edges == fresh.total_edges

    def test_empty_batch(self, columnar_graph):
        assert CoreIndex(columnar_graph, 2).query_batch([]) == []

    def test_query_batch_rejects_range_outside_subspan_index(self, columnar_graph):
        """A sub-span index must reject out-of-span batch ranges like query()."""
        from repro.core.coretime import CoreTimeResult  # noqa: F401
        from repro.errors import InvalidParameterError

        tmax = columnar_graph.tmax
        result = compute_core_times(columnar_graph, 2, 4, tmax - 3)
        index = CoreIndex.from_core_times(columnar_graph, 2, result)
        with pytest.raises(InvalidParameterError):
            index.query_batch([(2, tmax - 1)])
        with pytest.raises(InvalidParameterError):
            index.query_batch([(5, 6), (4, tmax - 2)])
        # In-span ranges still answer, identically to query().
        inside = (5, tmax - 4)
        batch = index.query_batch([inside], collect=True)
        assert batch[0].edge_sets() == index.query(*inside).edge_sets()


class TestStoreRoundTripNative:
    """In-memory and on-disk layouts coincide: round trips are exact."""

    def test_flat_parts_survive_round_trip(self, tmp_path, columnar_graph):
        store = IndexStore(tmp_path / "store")
        index = CoreIndex(columnar_graph, 2)
        store.save_index(index)
        loaded = store.load_index(columnar_graph, 2)
        assert loaded is not None
        for built, reopened in (
            (index.vct.flat_parts(), loaded.vct.flat_parts()),
            (index.ecs.flat_parts(), loaded.ecs.flat_parts()),
        ):
            for a, b in zip(built, reopened):
                assert np.array_equal(np.asarray(a), np.asarray(b))

    def test_loaded_index_serves_vectorised_queries(self, tmp_path, columnar_graph):
        store = IndexStore(tmp_path / "store")
        index = CoreIndex(columnar_graph, 2)
        store.save_index(index)
        loaded = store.load_index(columnar_graph, 2)
        assert loaded is not None
        for ts, te in query_windows(columnar_graph.tmax):
            assert (
                loaded.query(ts, te).edge_sets()
                == index.query(ts, te).edge_sets()
            )
            assert loaded.historical_core(ts, te) == index.historical_core(ts, te)
        narrowed = loaded.ecs.restricted_to(2, columnar_graph.tmax - 1)
        expected = oracle_restricted(index.ecs, 2, columnar_graph.tmax - 1)
        for eid in range(loaded.ecs.num_edges):
            assert narrowed.windows_of(eid) == expected[eid]

    def test_multik_build_round_trips_identically(self, tmp_path, columnar_graph):
        from repro.core.multik import build_core_indexes

        store = IndexStore(tmp_path / "store")
        built = build_core_indexes(columnar_graph, [2, 3])
        for index in built.values():
            store.save_index(index)
        for k, index in built.items():
            loaded = store.load_index(columnar_graph, k)
            assert loaded is not None
            for a, b in zip(index.ecs.flat_parts(), loaded.ecs.flat_parts()):
                assert np.array_equal(np.asarray(a), np.asarray(b))


class TestEvictionSpill:
    """What an evicted index leaves in an attached store.

    A registry miss commits what it builds before serving it, so an
    evicted index is already on disk: eviction only drops it from
    memory and the next miss reloads it instead of rebuilding.
    """

    def test_evicted_index_spills_to_store(self, tmp_path, columnar_graph):
        store = IndexStore(tmp_path / "store")
        registry = CoreIndexRegistry(capacity=1, store=store)
        registry.get(columnar_graph, 2)
        assert store.load_index(columnar_graph, 2) is not None  # at build
        registry.get(columnar_graph, 3)  # evicts k=2
        spilled = store.load_index(columnar_graph, 2)
        assert spilled is not None
        full = columnar_graph.tmax
        assert (
            spilled.query(1, full).edge_sets()
            == CoreIndex(columnar_graph, 2).query(1, full).edge_sets()
        )

    def test_already_persisted_eviction_is_not_recounted(
        self, tmp_path, columnar_graph
    ):
        store = IndexStore(tmp_path / "store")
        store.save_index(CoreIndex(columnar_graph, 2))
        registry = CoreIndexRegistry(capacity=1, store=store)
        registry.get(columnar_graph, 2)  # store hit
        registry.get(columnar_graph, 3)  # evicts k=2, already on disk
        assert store.stats()["index_saves"] == 2  # the seed k=2 and k=3

    def test_eviction_without_store_is_silent(self, columnar_graph):
        registry = CoreIndexRegistry(capacity=1)
        registry.get(columnar_graph, 2)
        registry.get(columnar_graph, 3)
        assert len(registry) == 1

    def test_repeated_thrash_spills_each_key_once(self, tmp_path, columnar_graph):
        """Capacity thrash re-evicts the same keys; each is persisted once."""
        store = IndexStore(tmp_path / "store")
        registry = CoreIndexRegistry(capacity=1, store=store)
        for _ in range(3):
            for k in (2, 3):
                registry.get(columnar_graph, k)
        assert store.stats()["index_saves"] == 2
        assert registry.stats()["multik_builds"] == 2  # later misses load
        assert store.stored_ks(store.find(columnar_graph)) == [2, 3]

    def test_unpersistable_graph_spill_is_swallowed(self, tmp_path):
        from repro.graph.temporal_graph import TemporalGraph

        # Tuple labels cannot be persisted; the failed commit must not
        # fail the lookup, and the built index is served and cached.
        graph = TemporalGraph(
            [(("a", 0), ("b", 0), 1), (("b", 0), ("c", 0), 1), (("a", 0), ("c", 0), 2)]
        )
        store = IndexStore(tmp_path / "store")
        registry = CoreIndexRegistry(capacity=1, store=store)
        index = registry.get(graph, 2)
        assert index.query(1, 2).num_results == 1
        assert registry.get(graph, 2) is index
        assert store.keys() == []

    def test_failed_commit_does_not_rebuild(self, tmp_path, monkeypatch):
        """The indexes the failed commit carried are served, not rebuilt."""
        import repro.core.multik as multik_module
        from repro.graph.temporal_graph import TemporalGraph

        calls = []
        real = multik_module.compute_core_times_multi

        def spy(graph, ks):
            calls.append(list(ks))
            return real(graph, ks)

        monkeypatch.setattr(multik_module, "compute_core_times_multi", spy)
        graph = TemporalGraph(
            [(("a", 0), ("b", 0), 1), (("b", 0), ("c", 0), 1), (("a", 0), ("c", 0), 2)]
        )
        registry = CoreIndexRegistry(store=IndexStore(tmp_path / "store"))
        registry.get(graph, 2)
        assert calls == [[2]]


@pytest.mark.usefixtures("numpy_fixpoint")
class TestBatchOracleNumpy(TestBatchOracle):
    """The batch oracle cases again on the numpy walk."""


@pytest.mark.usefixtures("numpy_fixpoint")
class TestStoreRoundTripNativeNumpy(TestStoreRoundTripNative):
    """The round-trip cases again on the numpy walk (and numpy builds)."""


@pytest.mark.usefixtures("numpy_fixpoint")
class TestEvictionSpillNumpy(TestEvictionSpill):
    """The eviction cases again on the numpy walk."""
