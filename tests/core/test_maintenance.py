"""StreamingCoreService: ingestion, refresh, snapshots; reads from ``built``."""

from __future__ import annotations

import pytest

import repro.core.maintenance as maintenance
from repro.core.enumerate import enumerate_temporal_kcores
from repro.core.maintenance import StreamingCoreService, fold_fallback_counts
from repro.datasets.paper_example import PAPER_EXAMPLE_EDGES
from repro.errors import InvalidParameterError
from repro.graph.temporal_graph import TemporalGraph


@pytest.fixture()
def service():
    return StreamingCoreService(2, PAPER_EXAMPLE_EDGES)


@pytest.fixture()
def restore():
    """``StreamingCoreService.restore``; closes each attached log at teardown."""
    opened = []

    def _restore(store, k, name):
        resumed = StreamingCoreService.restore(store, k, name=name)
        opened.append(resumed)
        return resumed

    yield _restore
    for resumed in opened:
        resumed.wal.close()


def built_index(svc, k=2):
    """The graph of the service's last build and its ``k`` index."""
    graph, indexes = svc.built
    return graph, indexes[k]


def refresh_counting(svc) -> tuple[str, dict[str, int]]:
    """``svc.refresh()``'s mode and the fold fallbacks it counted."""
    before = fold_fallback_counts()
    mode = svc.refresh()
    return mode, {
        reason: n - before.get(reason, 0)
        for reason, n in fold_fallback_counts().items()
        if n != before.get(reason, 0)
    }


class TestIngestion:
    def test_append_and_count(self, service):
        assert service.num_edges == 14
        service.append("v1", "v9", 8)
        assert service.num_edges == 15
        assert service.num_pending == 15  # nothing built yet

    def test_out_of_order_rejected(self, service):
        with pytest.raises(InvalidParameterError):
            service.append("v1", "v9", 3)

    def test_equal_timestamp_allowed(self, service):
        service.append("v1", "v9", 7)
        assert service.num_edges == 15

    def test_extend(self):
        svc = StreamingCoreService(2)
        svc.extend([("a", "b", 1), ("b", "c", 2)])
        assert svc.num_edges == 2

    def test_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            StreamingCoreService(0)

    def test_refresh_without_edges(self):
        with pytest.raises(InvalidParameterError):
            StreamingCoreService(2).refresh()


class TestStaleness:
    def test_first_query_builds(self, service):
        assert service.is_stale
        assert service.built == (None, {})
        assert service.refresh() == "full"
        _graph, index = built_index(service)
        assert index.query(1, 4).num_results == 2
        assert not service.is_stale

    def test_small_backlog_tolerated(self, service):
        """Appends pend without a rebuild; the last build keeps serving."""
        service.refresh()
        graph, index = built_index(service)
        service.append("v1", "v9", 8)
        assert built_index(service) == (graph, index)
        assert index.query(1, 4).num_results == 2
        assert service.num_pending == 1
        assert service.is_stale

    def test_answers_match_offline_pipeline(self, service):
        """After any refresh the answers equal a from-scratch run."""
        service.extend([("a", "b", 8), ("b", "c", 8), ("a", "c", 9)])
        service.refresh()
        graph, index = built_index(service)
        result = index.query(1, graph.tmax)
        offline = enumerate_temporal_kcores(
            TemporalGraph(list(PAPER_EXAMPLE_EDGES)
                          + [("a", "b", 8), ("b", "c", 8), ("a", "c", 9)]),
            2,
        )
        assert result.edge_sets() == offline.edge_sets()


class TestSnapshotRestore:
    """Streaming snapshots: a restarted daemon resumes from disk."""

    EXTRA = [("a", "b", 8), ("b", "c", 8), ("a", "c", 9)]

    @staticmethod
    def _store(tmp_path):
        from repro.store import IndexStore

        return IndexStore(tmp_path / "store")

    @staticmethod
    def _canonical(result, graph):
        """Cores as label-space edge triples (internal ids may differ)."""
        return {
            frozenset((*sorted((str(u), str(v))), t) for u, v, t in core.edge_triples(graph))
            for core in result
        }

    @staticmethod
    def _raw_query(svc, raw_ts, raw_te):
        """The built k=2 answer between two raw timestamps, and its graph."""
        graph, index = built_index(svc)
        window = graph.snap_raw_window(raw_ts, raw_te)
        assert window is not None
        return index.query(*window), graph

    def test_snapshot_folds_pending_first(self, tmp_path, service):
        store = self._store(tmp_path)
        key = service.snapshot(store, name="svc")
        assert key == "svc"
        assert service.num_pending == 0
        assert store.stored_ks("svc") == [2]

    def test_restore_resumes_without_compute(
        self, restore, tmp_path, service, monkeypatch
    ):
        import repro.core.index as index_module
        import repro.core.multik as multik_module

        service.snapshot(store := self._store(tmp_path), name="svc")

        def explode(*args, **kwargs):
            raise AssertionError("restore path recomputed the index")

        monkeypatch.setattr(index_module, "compute_core_times", explode)
        monkeypatch.setattr(multik_module, "compute_core_times_multi", explode)
        restored = restore(store, 2, "svc")
        assert restored.num_edges == service.num_edges
        assert restored.num_pending == 0
        assert not restored.is_stale
        _graph, index = built_index(restored)
        assert index.query(1, 4).num_results == 2

    def test_restore_plus_pending_appends_matches_scratch(
        self, restore, tmp_path, service
    ):
        """Acceptance: restore + appends is bit-identical to a full rebuild."""
        service.snapshot(store := self._store(tmp_path), name="svc")
        restored = restore(store, 2, "svc")
        restored.extend(self.EXTRA)
        assert restored.num_pending == len(self.EXTRA)
        # The refresh folds the pending edges in *before* the raw range
        # is snapped, so it covers the grown full span.
        restored.refresh()
        result, graph = self._raw_query(restored, 1, 10**9)

        scratch = StreamingCoreService(2, list(PAPER_EXAMPLE_EDGES) + self.EXTRA)
        scratch.refresh()
        expected, scratch_graph = self._raw_query(scratch, 1, 10**9)
        assert self._canonical(result, graph) == self._canonical(
            expected, scratch_graph
        )

    def test_restore_ambiguous_store_requires_name(self, restore, tmp_path, service):
        """With several graphs stored, ``name`` picks which one resumes."""
        store = self._store(tmp_path)
        service.snapshot(store, name="one")
        StreamingCoreService(2, [("x", "y", 1), ("y", "z", 2), ("x", "z", 3)]).snapshot(
            store, name="two"
        )
        assert restore(store, 2, "one").num_edges == 14
        assert restore(store, 2, "two").num_edges == 3

    def test_restore_unknown_name(self, restore, tmp_path, service):
        """A name the store lacks resumes as an empty stream with a log."""
        service.snapshot(store := self._store(tmp_path), name="svc")
        fresh = restore(store, 2, "nope")
        assert fresh.num_edges == 0
        assert fresh.built == (None, {})
        assert fresh.append("a", "b", 1) == 1

    def test_restore_with_corrupt_index_rebuilds(self, restore, tmp_path, service):
        """Fingerprint/checksum failure leaves the service stale, not wrong."""
        service.snapshot(store := self._store(tmp_path), name="svc")
        path = store.root / "svc" / "k2.idx"
        path.write_bytes(path.read_bytes()[:-32])
        restored = restore(store, 2, "svc")
        assert restored.is_stale
        assert restored.built == (None, {})
        assert restored.refresh() == "full"
        _graph, index = built_index(restored)
        assert index.query(1, 4).num_results == 2

    def test_restore_with_different_k_rebuilds(self, restore, tmp_path, service):
        service.snapshot(store := self._store(tmp_path), name="svc")
        restored = restore(store, 3, "svc")  # only k=2 stored
        assert restored.is_stale
        assert restored.refresh() == "full"
        _graph, index = built_index(restored, 3)
        assert index.query(1, 7).completed

    def test_raw_queries_survive_restore(self, restore, tmp_path):
        svc = StreamingCoreService(
            2, [("a", "b", 100), ("b", "c", 200), ("a", "c", 300)]
        )
        svc.snapshot(store := self._store(tmp_path), name="svc")
        restored = restore(store, 2, "svc")
        assert self._raw_query(restored, 50, 350)[0].num_results == 1
        restored.append("a", "b", 400)
        restored.refresh()
        scratch = StreamingCoreService(
            2, [("a", "b", 100), ("b", "c", 200), ("a", "c", 300), ("a", "b", 400)]
        )
        scratch.refresh()
        assert self._canonical(
            *self._raw_query(restored, 50, 450)
        ) == self._canonical(*self._raw_query(scratch, 50, 450))

    LOOPED = [("x", "y", 5), ("z", "w", 1), ("w", "x", 1), ("y", "z", 3),
              ("q", "q", 2), ("x", "z", 4), ("w", "y", 5)]

    def test_restore_counts_the_snapshots_self_loops(self, restore, tmp_path):
        svc = StreamingCoreService(2, self.LOOPED)
        svc.snapshot(store := self._store(tmp_path), name="svc")
        restored = restore(store, 2, "svc")
        assert restored.num_edges == svc.num_edges == 7

    def test_full_rebuild_after_restore_keeps_labels(
        self, restore, tmp_path, monkeypatch
    ):
        """A tie on the last raw time forces the full rebuild; it must equal
        a graph built from every ingested edge, ids and all."""
        from repro.store.codec import graph_fingerprint

        StreamingCoreService(2, self.LOOPED).snapshot(
            store := self._store(tmp_path), name="svc"
        )
        restored = restore(store, 2, "svc")
        stored_graph, _ = restored.built
        assert stored_graph._edges is None
        restored.append("w", "x", 5)
        assert refresh_counting(restored) == ("full", {"boundary-tie": 1})
        rebuilt, _ = restored.built
        expected = TemporalGraph(self.LOOPED + [("w", "x", 5)])
        assert rebuilt._labels == expected._labels == ("x", "y", "z", "w")
        for got, want in zip(rebuilt.edge_columns(), expected.edge_columns()):
            assert got.tolist() == want.tolist()
        assert rebuilt.time_offsets().tolist() == expected.time_offsets().tolist()
        assert rebuilt._raw_times == expected._raw_times
        assert rebuilt.num_dropped_self_loops == expected.num_dropped_self_loops == 1
        assert graph_fingerprint(rebuilt) == graph_fingerprint(expected)
        assert restored.num_edges == 8
        # The tiny graph's fold window exceeds the default cost bound;
        # lift it to pin the fold after a restored full rebuild.
        monkeypatch.setattr(maintenance, "MAX_WINDOW_FRACTION", 1.0)
        restored.append("x", "q", 6)
        assert restored.refresh() == "incremental"
        assert stored_graph._edges is None
        assert restored.num_edges == 9


class TestMultiKService:
    """Several registered k values rebuild together in one shared pass."""

    def test_registered_ks_normalised(self):
        svc = StreamingCoreService([3, 2, 3], PAPER_EXAMPLE_EDGES)
        assert svc.ks == (2, 3)

    def test_one_rebuild_covers_every_k(self, monkeypatch):
        import repro.core.multik as multik_module

        builds = []
        build = multik_module.build_core_indexes
        monkeypatch.setattr(
            multik_module, "build_core_indexes",
            lambda graph, ks: builds.append(ks) or build(graph, ks),
        )
        svc = StreamingCoreService([2, 3], PAPER_EXAMPLE_EDGES)
        svc.refresh()
        assert builds == [(2, 3)]                          # one shared build
        _graph, indexes = svc.built
        assert indexes[2].query(1, 4).num_results == 2
        assert indexes[3].query(1, 7).num_results == 0     # no 3-core exists

    def test_answers_match_single_k_services(self):
        multi = StreamingCoreService([2, 3], PAPER_EXAMPLE_EDGES)
        multi.refresh()
        graph, indexes = multi.built
        scratch = TemporalGraph(list(PAPER_EXAMPLE_EDGES))
        for k in (2, 3):
            single = StreamingCoreService(k, PAPER_EXAMPLE_EDGES)
            single.refresh()
            assert indexes[k].query(1, 7).edge_sets() == built_index(
                single, k
            )[1].query(1, 7).edge_sets()
            assert indexes[k].query(1, graph.tmax).edge_sets() \
                == enumerate_temporal_kcores(scratch, k).edge_sets()

    def test_unregistered_k_rejected(self):
        svc = StreamingCoreService([2, 3], PAPER_EXAMPLE_EDGES)
        svc.refresh()
        _graph, indexes = svc.built
        assert sorted(indexes) == [2, 3]  # k=5 is not maintained

    def test_appends_invalidate_all_ks(self):
        svc = StreamingCoreService([2, 3], PAPER_EXAMPLE_EDGES)
        svc.refresh()
        before = dict(svc.built[1])
        svc.append("v1", "v9", 8)
        assert svc.is_stale
        svc.refresh()  # one refresh replaces both
        graph, after = svc.built
        assert not svc.is_stale
        assert sorted(after) == [2, 3]
        assert all(after[k] is not before[k] for k in (2, 3))
        assert all(after[k].graph is graph for k in (2, 3))

    def test_snapshot_persists_every_k(self, tmp_path):
        from repro.store import IndexStore

        store = IndexStore(tmp_path / "store")
        svc = StreamingCoreService([2, 3], PAPER_EXAMPLE_EDGES)
        key = svc.snapshot(store, name="svc")
        assert store.stored_ks(key) == [2, 3]
        assert not svc.is_stale

    def test_restore_multi_k_without_compute(self, restore, tmp_path, monkeypatch):
        import repro.core.index as index_module
        import repro.core.multik as multik_module
        from repro.store import IndexStore

        store = IndexStore(tmp_path / "store")
        StreamingCoreService([2, 3], PAPER_EXAMPLE_EDGES).snapshot(store, name="svc")

        def explode(*args, **kwargs):
            raise AssertionError("restore path recomputed an index")

        monkeypatch.setattr(index_module, "compute_core_times", explode)
        monkeypatch.setattr(multik_module, "compute_core_times_multi", explode)
        restored = restore(store, [2, 3], "svc")
        assert not restored.is_stale
        _graph, indexes = restored.built
        assert indexes[2].query(1, 4).num_results == 2
        assert indexes[3].query(1, 7).completed            # served, no compute

    def test_restore_with_missing_k_is_stale(self, restore, tmp_path):
        from repro.store import IndexStore

        store = IndexStore(tmp_path / "store")
        StreamingCoreService(2, PAPER_EXAMPLE_EDGES).snapshot(store, name="svc")
        restored = restore(store, [2, 3], "svc")
        assert restored.is_stale  # k=3 never snapshotted
        assert restored.built == (None, {})
        assert restored.refresh() == "full"  # one shared rebuild, both ks
        _graph, indexes = restored.built
        assert indexes[3].query(1, 7).completed

    def test_validation(self):
        # An empty k set is a graph-only stream: refresh builds the graph.
        svc = StreamingCoreService([], [("a", "b", 1), ("b", "c", 2)])
        assert svc.refresh() == "full"
        graph, indexes = svc.built
        assert graph.num_edges == 2 and indexes == {}
        with pytest.raises(InvalidParameterError):
            StreamingCoreService([2, 0])


class TestRawTimeQueries:
    """Raw-timestamp reads snap through the built graph's time axis."""

    TRIANGLE = [("a", "b", 100), ("b", "c", 200), ("a", "c", 300)]

    @staticmethod
    def _built(edges):
        svc = StreamingCoreService(2, edges)
        svc.refresh()
        return built_index(svc)

    def test_raw_range_snaps_inward(self):
        graph, index = self._built(self.TRIANGLE)
        assert index.query(*graph.snap_raw_window(50, 350)).num_results == 1

    def test_raw_range_excludes_outside(self):
        graph, index = self._built(self.TRIANGLE)
        window = graph.snap_raw_window(100, 200)  # triangle incomplete here
        assert index.query(*window).num_results == 0

    def test_empty_raw_range_raises(self):
        graph, _index = self._built([("a", "b", 100)])
        assert graph.snap_raw_window(500, 600) is None
        assert graph.snap_raw_window(600, 500) is None


class TestIncrementalRefresh:
    """PR 10: frontier batches fold instead of rebuilding."""

    def _seeded(self, ks=(2,)):
        svc = StreamingCoreService(ks, PAPER_EXAMPLE_EDGES)
        assert svc.refresh() == "full"
        return svc

    @pytest.fixture()
    def uncapped(self, monkeypatch):
        # The paper graph is tiny, so any delta's window exceeds the
        # default cost bound: lift it to pin the fold itself.
        monkeypatch.setattr(maintenance, "MAX_WINDOW_FRACTION", 1.0)

    def test_frontier_batch_folds(self, uncapped):
        svc = self._seeded()
        svc.extend([("v1", "v2", 8), ("v2", "v3", 8), ("v1", "v3", 9)])
        assert refresh_counting(svc) == ("incremental", {})
        assert svc.num_pending == 0

    def test_boundary_tie_falls_back_to_full(self, uncapped):
        svc = self._seeded()
        svc.append("v1", "v2", 7)  # ties the built graph's last instant
        assert refresh_counting(svc) == ("full", {"boundary-tie": 1})

    def test_folded_answers_match_offline(self, uncapped):
        extra = [("v1", "v9", 8), ("v9", "v5", 8), ("v1", "v5", 9)]
        svc = self._seeded()
        svc.extend(extra)
        assert svc.refresh() == "incremental"
        graph, index = built_index(svc)
        result = index.query(1, graph.tmax)
        offline = enumerate_temporal_kcores(
            TemporalGraph(list(PAPER_EXAMPLE_EDGES) + extra), 2
        )
        assert result.edge_sets() == offline.edge_sets()

    def test_auto_cost_model_refuses_oversized_windows(self):
        # On the tiny paper graph a 3-edge delta's recompute window is
        # most of the span: refresh rebuilds and counts why.
        svc = self._seeded()
        svc.extend([("v1", "v2", 8), ("v2", "v3", 8), ("v1", "v3", 9)])
        assert refresh_counting(svc) == ("full", {"window-fraction": 1})

    def test_stats_surface(self):
        """Lag reads while edges pend; the fold histogram counts refreshes."""
        from repro.obs.metrics import get_registry

        folds = get_registry().histogram(
            "repro_stream_fold_seconds",
            "Streaming refresh latency by resolved mode",
            ("mode",),
        )
        svc = self._seeded()
        svc.extend([("v1", "v2", 8), ("v2", "v3", 9)])
        assert svc.num_pending == 2
        assert svc.lag_seconds > 0.0
        before = folds.labels("full").count
        svc.refresh()
        assert svc.num_pending == 0
        assert svc.lag_seconds == 0.0
        assert folds.labels("full").count == before + 1


class TestMaxLag:
    def test_no_lag_budget_by_default(self):
        """The service never refreshes itself, however old its backlog."""
        svc = StreamingCoreService(2, PAPER_EXAMPLE_EDGES)
        svc.refresh()
        built = svc.built
        svc.append("v1", "v2", 8)
        svc._pending_since -= 10_000.0
        assert svc.lag_seconds >= 10_000.0
        assert svc.built == built
        assert svc.num_pending == 1
