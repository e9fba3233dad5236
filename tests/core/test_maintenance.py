"""StreamingCoreService: ingestion, staleness policy, raw-time queries."""

from __future__ import annotations

import pytest

from repro.core.enumerate import enumerate_temporal_kcores
from repro.core.maintenance import StreamingCoreService
from repro.datasets.paper_example import PAPER_EXAMPLE_EDGES
from repro.errors import InvalidParameterError
from repro.graph.temporal_graph import TemporalGraph


@pytest.fixture()
def service():
    return StreamingCoreService(2, PAPER_EXAMPLE_EDGES, max_pending=3)


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
        with pytest.raises(InvalidParameterError):
            StreamingCoreService(2, max_pending=-1)

    def test_refresh_without_edges(self):
        with pytest.raises(InvalidParameterError):
            StreamingCoreService(2).refresh()


class TestStaleness:
    def test_first_query_builds(self, service):
        assert service.is_stale
        result = service.query(1, 4)
        assert result.num_results == 2
        assert service.num_rebuilds == 1
        assert not service.is_stale

    def test_small_backlog_tolerated(self, service):
        service.query(1, 4)
        service.append("v1", "v9", 8)
        service.query(1, 4)  # within max_pending: no rebuild
        assert service.num_rebuilds == 1
        assert service.num_pending == 1

    def test_backlog_over_budget_triggers_rebuild(self, service):
        service.query(1, 4)
        for i in range(4):  # exceeds max_pending=3
            service.append("v1", "v9", 8 + i)
        service.query(1, 4)
        assert service.num_rebuilds == 2
        assert service.num_pending == 0

    def test_strict_forces_freshness(self, service):
        service.query(1, 4)
        service.append("v5", "v9", 8)
        result = service.query(1, 4, strict=True)
        assert service.num_rebuilds == 2
        assert result.num_results == 2

    def test_answers_match_offline_pipeline(self, service):
        """After any refresh the answers equal a from-scratch run."""
        service.extend([("a", "b", 8), ("b", "c", 8), ("a", "c", 9)])
        result = service.query(1, service.graph.tmax, strict=True)
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

    def test_snapshot_folds_pending_first(self, tmp_path, service):
        store = self._store(tmp_path)
        key = service.snapshot(store, name="svc")
        assert key == "svc"
        assert service.num_pending == 0
        assert store.stored_ks("svc") == [2]

    def test_restore_resumes_without_compute(self, tmp_path, service, monkeypatch):
        import repro.core.index as index_module
        from repro.core.maintenance import StreamingCoreService

        service.snapshot(store := self._store(tmp_path), name="svc")

        def explode(*args, **kwargs):
            raise AssertionError("restore path recomputed the index")

        monkeypatch.setattr(index_module, "compute_core_times", explode)
        restored = StreamingCoreService.restore(store, 2, name="svc")
        assert restored.num_edges == service.num_edges
        assert restored.num_pending == 0
        assert not restored.is_stale
        result = restored.query(1, 4)
        assert result.num_results == 2
        assert restored.num_rebuilds == 0

    def test_restore_plus_pending_appends_matches_scratch(self, tmp_path, service):
        """Acceptance: restore + appends is bit-identical to a full rebuild."""
        from repro.core.maintenance import StreamingCoreService

        service.snapshot(store := self._store(tmp_path), name="svc")
        restored = StreamingCoreService.restore(store, 2, name="svc")
        restored.extend(self.EXTRA)
        assert restored.num_pending == len(self.EXTRA)
        # query_raw with strict folds the pending edges in *before*
        # snapping the range, so this covers the grown full span.
        result = restored.query_raw(1, 10**9, strict=True)

        scratch = StreamingCoreService(2, list(PAPER_EXAMPLE_EDGES) + self.EXTRA)
        expected = scratch.query_raw(1, 10**9, strict=True)
        assert self._canonical(result, restored.graph) == self._canonical(
            expected, scratch.graph
        )

    def test_restore_single_graph_needs_no_name(self, tmp_path, service):
        from repro.core.maintenance import StreamingCoreService

        service.snapshot(store := self._store(tmp_path))
        restored = StreamingCoreService.restore(store, 2)
        assert restored.num_edges == service.num_edges

    def test_restore_ambiguous_store_requires_name(self, tmp_path, service):
        from repro.core.maintenance import StreamingCoreService

        store = self._store(tmp_path)
        service.snapshot(store, name="one")
        StreamingCoreService(2, [("x", "y", 1), ("y", "z", 2), ("x", "z", 3)]).snapshot(
            store, name="two"
        )
        with pytest.raises(InvalidParameterError, match="name"):
            StreamingCoreService.restore(store, 2)

    def test_restore_unknown_name(self, tmp_path, service):
        from repro.core.maintenance import StreamingCoreService

        service.snapshot(store := self._store(tmp_path), name="svc")
        with pytest.raises(InvalidParameterError, match="nope"):
            StreamingCoreService.restore(store, 2, name="nope")

    def test_restore_with_corrupt_index_rebuilds(self, tmp_path, service):
        """Fingerprint/checksum failure leaves the service stale, not wrong."""
        from repro.core.maintenance import StreamingCoreService

        service.snapshot(store := self._store(tmp_path), name="svc")
        path = store.root / "svc" / "k2.idx"
        path.write_bytes(path.read_bytes()[:-32])
        restored = StreamingCoreService.restore(store, 2, name="svc")
        assert restored.is_stale
        result = restored.query(1, 4)
        assert result.num_results == 2
        assert restored.num_rebuilds == 1

    def test_restore_with_different_k_rebuilds(self, tmp_path, service):
        from repro.core.maintenance import StreamingCoreService

        service.snapshot(store := self._store(tmp_path), name="svc")
        restored = StreamingCoreService.restore(store, 3, name="svc")  # only k=2 stored
        assert restored.is_stale
        restored.query(1, 7)
        assert restored.num_rebuilds == 1

    def test_raw_queries_survive_restore(self, tmp_path):
        from repro.core.maintenance import StreamingCoreService

        svc = StreamingCoreService(
            2, [("a", "b", 100), ("b", "c", 200), ("a", "c", 300)]
        )
        svc.snapshot(store := self._store(tmp_path), name="svc")
        restored = StreamingCoreService.restore(store, 2, name="svc")
        assert restored.query_raw(50, 350).num_results == 1
        restored.append("a", "b", 400)
        scratch = StreamingCoreService(
            2, [("a", "b", 100), ("b", "c", 200), ("a", "c", 300), ("a", "b", 400)]
        )
        assert self._canonical(
            restored.query_raw(50, 450, strict=True), restored.graph
        ) == self._canonical(scratch.query_raw(50, 450), scratch.graph)

    LOOPED = [("x", "y", 5), ("z", "w", 1), ("w", "x", 1), ("y", "z", 3),
              ("q", "q", 2), ("x", "z", 4), ("w", "y", 5)]

    def test_restore_counts_the_snapshots_self_loops(self, tmp_path):
        from repro.core.maintenance import StreamingCoreService

        svc = StreamingCoreService(2, self.LOOPED)
        svc.snapshot(store := self._store(tmp_path), name="svc")
        restored = StreamingCoreService.restore(store, 2, name="svc")
        assert restored.num_edges == svc.num_edges == 7
        assert restored.stats()["num_edges"] == svc.stats()["num_edges"] == 7

    def test_full_rebuild_after_restore_keeps_labels(self, tmp_path):
        """A tie on the last raw time forces the full rebuild; it must equal
        a graph built from every ingested edge, ids and all."""
        from repro.core.maintenance import StreamingCoreService
        from repro.store.codec import graph_fingerprint

        StreamingCoreService(2, self.LOOPED).snapshot(
            store := self._store(tmp_path), name="svc"
        )
        restored = StreamingCoreService.restore(store, 2, name="svc")
        stored_graph, _ = restored.built
        assert stored_graph._edges is None
        restored.append("w", "x", 5)
        assert restored.refresh() == "full"
        assert restored.last_fallback_reason == "boundary-tie"
        rebuilt, expected = restored.graph, TemporalGraph(self.LOOPED + [("w", "x", 5)])
        assert rebuilt._labels == expected._labels == ("x", "y", "z", "w")
        for got, want in zip(rebuilt.edge_columns(), expected.edge_columns()):
            assert got.tolist() == want.tolist()
        assert rebuilt.time_offsets().tolist() == expected.time_offsets().tolist()
        assert rebuilt._raw_times == expected._raw_times
        assert rebuilt.num_dropped_self_loops == expected.num_dropped_self_loops == 1
        assert graph_fingerprint(rebuilt) == graph_fingerprint(expected)
        assert restored.num_edges == 8
        restored.append("x", "q", 6)
        assert restored.refresh(mode="incremental") == "incremental"
        assert stored_graph._edges is None
        assert restored.num_edges == 9


class TestMultiKService:
    """Several registered k values rebuild together in one shared pass."""

    def test_registered_ks_normalised(self):
        svc = StreamingCoreService([3, 2, 3], PAPER_EXAMPLE_EDGES)
        assert svc.ks == (2, 3)
        assert svc.k == 2  # queries default to the smallest

    def test_one_rebuild_covers_every_k(self):
        svc = StreamingCoreService([2, 3], PAPER_EXAMPLE_EDGES)
        assert svc.query(1, 4).num_results == 2            # k=2 default
        assert svc.query(1, 7, k=3).num_results == 0       # no 3-core exists
        assert svc.num_rebuilds == 1                       # but same build

    def test_answers_match_single_k_services(self):
        multi = StreamingCoreService([2, 3], PAPER_EXAMPLE_EDGES)
        for k in (2, 3):
            single = StreamingCoreService(k, PAPER_EXAMPLE_EDGES)
            assert multi.query(1, 7, k=k).edge_sets() == single.query(
                1, 7
            ).edge_sets()
        assert multi.num_rebuilds == 1

    def test_unregistered_k_rejected(self):
        svc = StreamingCoreService([2, 3], PAPER_EXAMPLE_EDGES)
        with pytest.raises(InvalidParameterError, match="not served"):
            svc.query(1, 4, k=5)

    def test_appends_invalidate_all_ks(self):
        svc = StreamingCoreService([2, 3], PAPER_EXAMPLE_EDGES, max_pending=0)
        svc.query(1, 4)
        svc.append("v1", "v9", 8)
        svc.query(1, 4, k=3)  # over budget: one rebuild refreshes both
        assert svc.num_rebuilds == 2
        assert not svc.is_stale

    def test_snapshot_persists_every_k(self, tmp_path):
        from repro.store import IndexStore

        store = IndexStore(tmp_path / "store")
        svc = StreamingCoreService([2, 3], PAPER_EXAMPLE_EDGES)
        key = svc.snapshot(store, name="svc")
        assert store.stored_ks(key) == [2, 3]
        assert svc.num_rebuilds == 1

    def test_restore_multi_k_without_compute(self, tmp_path, monkeypatch):
        import repro.core.index as index_module
        import repro.core.multik as multik_module
        from repro.store import IndexStore

        store = IndexStore(tmp_path / "store")
        StreamingCoreService([2, 3], PAPER_EXAMPLE_EDGES).snapshot(store, name="svc")

        def explode(*args, **kwargs):
            raise AssertionError("restore path recomputed an index")

        monkeypatch.setattr(index_module, "compute_core_times", explode)
        monkeypatch.setattr(multik_module, "compute_core_times_multi", explode)
        restored = StreamingCoreService.restore(store, [2, 3], name="svc")
        assert not restored.is_stale
        assert restored.query(1, 4).num_results == 2
        assert restored.query(1, 7, k=3).completed         # served, no compute
        assert restored.num_rebuilds == 0

    def test_restore_with_missing_k_is_stale(self, tmp_path):
        from repro.store import IndexStore

        store = IndexStore(tmp_path / "store")
        StreamingCoreService(2, PAPER_EXAMPLE_EDGES).snapshot(store, name="svc")
        restored = StreamingCoreService.restore(store, [2, 3], name="svc")
        assert restored.is_stale  # k=3 never snapshotted
        assert restored.query(1, 7, k=3).completed
        assert restored.num_rebuilds == 1  # one shared rebuild, both ks

    def test_validation(self):
        # An empty k set is a graph-only stream: refresh builds the graph.
        svc = StreamingCoreService([], [("a", "b", 1), ("b", "c", 2)])
        assert svc.refresh() == "full"
        graph, indexes = svc.built
        assert graph.num_edges == 2 and indexes == {}
        with pytest.raises(InvalidParameterError):
            StreamingCoreService([2, 0])


class TestRawTimeQueries:
    def test_raw_range_snaps_inward(self):
        svc = StreamingCoreService(
            2, [("a", "b", 100), ("b", "c", 200), ("a", "c", 300)]
        )
        result = svc.query_raw(50, 350)
        assert result.num_results == 1

    def test_raw_range_excludes_outside(self):
        svc = StreamingCoreService(
            2, [("a", "b", 100), ("b", "c", 200), ("a", "c", 300)]
        )
        result = svc.query_raw(100, 200)  # triangle incomplete here
        assert result.num_results == 0

    def test_empty_raw_range_raises(self):
        svc = StreamingCoreService(2, [("a", "b", 100)])
        with pytest.raises(InvalidParameterError):
            svc.query_raw(500, 600)
        with pytest.raises(InvalidParameterError):
            svc.query_raw(600, 500)


class TestIncrementalRefresh:
    """PR 10: frontier batches fold instead of rebuilding."""

    def _seeded(self, ks=(2,), **kwargs):
        svc = StreamingCoreService(ks, PAPER_EXAMPLE_EDGES, **kwargs)
        svc.refresh(mode="full")
        return svc

    def test_mode_validation(self, service):
        with pytest.raises(InvalidParameterError):
            service.refresh(mode="sideways")

    def test_frontier_batch_folds(self):
        svc = self._seeded()
        svc.extend([("v1", "v2", 8), ("v2", "v3", 8), ("v1", "v3", 9)])
        assert svc.refresh(mode="incremental") == "incremental"
        assert svc.num_incremental_folds == 1
        assert svc.num_full_rebuilds == 1
        assert svc.num_pending == 0

    def test_boundary_tie_falls_back_to_full(self):
        svc = self._seeded()
        svc.append("v1", "v2", 7)  # ties the built graph's last instant
        assert svc.refresh() == "full"
        assert svc.last_fallback_reason == "boundary-tie"
        assert svc.num_incremental_folds == 0

    def test_full_mode_forced(self):
        svc = self._seeded()
        svc.append("v1", "v2", 8)
        assert svc.refresh(mode="full") == "full"
        assert svc.num_incremental_folds == 0

    def test_folded_answers_match_offline(self):
        extra = [("v1", "v9", 8), ("v9", "v5", 8), ("v1", "v5", 9)]
        svc = self._seeded()
        svc.extend(extra)
        assert svc.refresh(mode="incremental") == "incremental"
        result = svc.query(1, svc.graph.tmax)
        offline = enumerate_temporal_kcores(
            TemporalGraph(list(PAPER_EXAMPLE_EDGES) + extra), 2
        )
        assert result.edge_sets() == offline.edge_sets()

    def test_auto_refresh_on_query_path_folds(self):
        # The paper graph is tiny, so any delta's window exceeds the
        # default cost bound — widen it to pin the query-path wiring.
        svc = self._seeded(max_pending=1, max_window_fraction=1.0)
        svc.extend([("v1", "v2", 8), ("v2", "v3", 8)])
        svc.query(1, 7)  # over budget: refresh happens implicitly
        assert svc.num_incremental_folds == 1

    def test_auto_cost_model_refuses_oversized_windows(self):
        # On the tiny paper graph a 3-edge delta's recompute window is
        # most of the span: auto mode rebuilds and records why.
        svc = self._seeded()
        svc.extend([("v1", "v2", 8), ("v2", "v3", 8), ("v1", "v3", 9)])
        assert svc.refresh(mode="auto") == "full"
        assert svc.last_fallback_reason == "window-fraction"

    def test_stats_surface(self):
        svc = self._seeded()
        svc.extend([("v1", "v2", 8), ("v2", "v3", 9)])
        stats = svc.stats()
        assert stats["num_pending"] == 2
        assert stats["lag_edges"] == 2
        assert stats["lag_seconds"] > 0.0
        svc.refresh(mode="incremental")
        stats = svc.stats()
        assert stats["num_pending"] == 0
        assert stats["lag_seconds"] == 0.0
        assert stats["incremental_folds"] == 1
        assert stats["full_rebuilds"] == 1
        assert stats["last_fold"]["delta_edges"] == 2
        assert stats["last_fold"]["seconds"] >= 0.0


class TestMaxLag:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            StreamingCoreService(2, max_lag=-1.0)

    def test_lag_budget_triggers_refresh(self):
        svc = StreamingCoreService(
            2, PAPER_EXAMPLE_EDGES, max_pending=1_000, max_lag=60.0
        )
        svc.query(1, 7)
        svc.append("v1", "v2", 8)
        assert not svc.lag_exceeded
        svc.query(1, 7)
        assert svc.num_rebuilds == 1  # within both budgets
        svc._pending_since -= 120.0  # backdate: oldest append 2min old
        assert svc.lag_exceeded
        svc.query(1, 7)
        assert svc.num_rebuilds == 2
        assert svc.num_pending == 0

    def test_no_lag_budget_by_default(self):
        svc = StreamingCoreService(2, PAPER_EXAMPLE_EDGES, max_pending=1_000)
        svc.query(1, 7)
        svc.append("v1", "v2", 8)
        svc._pending_since -= 10_000.0
        assert not svc.lag_exceeded
        svc.query(1, 7)
        assert svc.num_rebuilds == 1

    def test_restore_forwards_max_lag(self, tmp_path):
        from repro.store.index_store import IndexStore

        store = IndexStore(tmp_path / "store")
        svc = StreamingCoreService(2, PAPER_EXAMPLE_EDGES)
        svc.snapshot(store, name="g")
        resumed = StreamingCoreService.restore(store, 2, max_lag=5.0)
        assert resumed.max_lag == 5.0

