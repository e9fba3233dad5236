"""IndexStore.recover + StreamingCoreService WAL restore semantics."""

from __future__ import annotations

import pytest

from repro.core.maintenance import StreamingCoreService
from repro.errors import ReproError
from repro.store import IndexStore
from repro.store import wal as wal_module


EDGES = [
    ("a", "b", 1), ("b", "c", 1), ("a", "c", 2), ("c", "d", 3),
    ("b", "d", 3), ("a", "d", 4), ("d", "e", 5), ("c", "e", 5),
]


@pytest.fixture()
def store(tmp_path):
    return IndexStore(tmp_path / "store")


@pytest.fixture()
def small_segments(monkeypatch):
    """Logs opened from here on rotate at 256 bytes."""
    monkeypatch.setattr(wal_module, "DEFAULT_SEGMENT_BYTES", 256)


def canon(seq):
    return sorted((t, tuple(sorted((str(u), str(v))))) for u, v, t in seq)


def graph_triples(graph):
    return [
        (graph.label_of(u), graph.label_of(v), graph.raw_time_of(t))
        for u, v, t in graph.edges
    ]


class TestStoreRecover:
    def test_wal_only_key(self, store):
        with store.wal("s") as wal:
            for u, v, t in EDGES[:3]:
                wal.append_edges([(u, v, t)])
        recovery = store.recover("s")
        try:
            assert recovery.graph is None
            assert recovery.snapshot_lsn == 0
            assert [(e.u, e.v, e.t) for e in recovery.events] == EDGES[:3]
            assert recovery.replayed == 3
        finally:
            recovery.wal.close()

    def test_snapshot_plus_tail(self, store):
        service = StreamingCoreService((2,), wal=store.wal("s"))
        for u, v, t in EDGES[:5]:
            service.append(u, v, t)
        service.snapshot(store, name="s")
        for u, v, t in EDGES[5:]:
            service.append(u, v, t)
        service.wal.close()

        recovery = store.recover("s")
        try:
            assert recovery.snapshot_lsn == 5
            assert recovery.graph is not None
            assert canon(graph_triples(recovery.graph)) == canon(EDGES[:5])
            assert [(e.u, e.v, e.t) for e in recovery.events] == EDGES[5:]
        finally:
            recovery.wal.close()

    def test_unknown_key_has_empty_recovery(self, store):
        recovery = store.recover("nothing")
        try:
            assert recovery.graph is None
            assert recovery.events == []
        finally:
            recovery.wal.close()

    def test_stream_lsn_roundtrip(self, store):
        service = StreamingCoreService((2,), wal=store.wal("s"))
        for u, v, t in EDGES:
            service.append(u, v, t)
        service.snapshot(store, name="s")
        service.wal.close()
        assert store.stream_lsn("s") == len(EDGES)


class TestServiceWal:
    def test_append_returns_lsn(self, store):
        service = StreamingCoreService((2,), wal=store.wal("s"))
        assert service.append("a", "b", 1) == 1
        assert service.append("b", "c", 2) == 2
        assert service.extend([("a", "c", 3), ("b", "d", 3)]) == (3, 2, False)
        service.wal.close()

    def test_dedupe_token_across_restart(self, store):
        service = StreamingCoreService((2,), wal=store.wal("s"))
        lsn = service.append("a", "b", 1, token="tok-1")
        service.wal.close()

        resumed = StreamingCoreService.restore(store, (2,), name="s")
        # The retried batch answers its original ack and applies nothing,
        # and the log counts the answer as a deduplicated append.
        assert resumed.extend([("a", "b", 1)], token="tok-1") == (lsn, 1, True)
        assert resumed.num_edges == 1
        deduped = resumed.wal.metrics.get("repro_wal_deduped_appends_total")
        assert deduped.labels(resumed.wal.instance).value == 1
        resumed.wal.close()

    def test_dedupe_retry_after_later_append(self, store):
        """A retried token answers its original LSN even after a later
        append moved the ordering watermark past its timestamps."""
        service = StreamingCoreService((2,), wal=store.wal("s"))
        lsn = service.append("a", "b", 1, token="tok-1")
        service.append("b", "c", 3)
        assert service.append("a", "b", 1, token="tok-1") == lsn
        service.wal.close()

        resumed = StreamingCoreService.restore(store, (2,), name="s")
        assert resumed.append("a", "b", 1, token="tok-1") == lsn
        assert resumed.num_edges == 2
        resumed.wal.close()

    def test_restore_replays_tail_and_serves(self, store):
        service = StreamingCoreService((2,), wal=store.wal("s"))
        for u, v, t in EDGES[:5]:
            service.append(u, v, t)
        service.snapshot(store, name="s")
        for u, v, t in EDGES[5:]:
            service.append(u, v, t)
        service.refresh()
        graph, indexes = service.built
        want = indexes[2].query(1, graph.tmax)
        service.wal.close()

        resumed = StreamingCoreService.restore(store, (2,), name="s")
        assert resumed.num_edges == len(EDGES)
        resumed.refresh()
        resumed_graph, resumed_indexes = resumed.built
        got = resumed_indexes[2].query(1, resumed_graph.tmax)
        assert {frozenset(c.vertex_labels(resumed_graph)) for c in got.cores} \
            == {frozenset(c.vertex_labels(graph)) for c in want.cores}
        resumed.wal.close()

    def test_restore_without_wal_matches_plain_path(self, store, paper_graph):
        """A key saved without a log restores its graph and indexes as
        stored, and gains an empty log for the appends that follow."""
        from repro.core.index import CoreIndex

        store.save_graph(paper_graph, name="p")
        store.save_index(CoreIndex(paper_graph, 2), name="p")
        service = StreamingCoreService.restore(store, (2,), name="p")
        assert service.wal is not None and service.wal.last_lsn == 0
        assert service.num_edges == paper_graph.num_edges
        graph, indexes = service.built
        assert indexes[2].query(1, graph.tmax).edge_sets() \
            == CoreIndex(paper_graph, 2).query(1, paper_graph.tmax).edge_sets()
        service.wal.close()

    def test_wal_rejects_out_of_order_batch_before_writing(self, store):
        service = StreamingCoreService((2,), wal=store.wal("s"))
        service.append("a", "b", 5)
        with pytest.raises(ReproError):
            service.extend([("b", "c", 6), ("c", "d", 4)])
        # The invalid batch must not have been half-written to the log.
        assert service.wal.last_lsn == 1
        assert service.num_edges == 1
        service.wal.close()

    def test_snapshot_trims_wal(self, store, small_segments):
        service = StreamingCoreService((2,), wal=store.wal("s"))
        for i in range(40):
            service.append(f"n{i % 6}", f"n{(i + 1) % 6}", i + 1)
        assert len(service.wal.segment_paths()) > 2
        service.snapshot(store, name="s")
        assert len(service.wal.segment_paths()) == 1
        # Everything lives in the snapshot now; replay past it is empty.
        assert store.stream_lsn("s") == service.wal.last_lsn == 40
        assert service.wal.replay(after=store.stream_lsn("s")) == []
        service.wal.close()

    def test_snapshot_then_restore_without_new_appends(self, store):
        service = StreamingCoreService((2,), wal=store.wal("s"))
        for u, v, t in EDGES:
            service.append(u, v, t)
        service.snapshot(store, name="s")
        service.wal.close()
        resumed = StreamingCoreService.restore(store, (2,), name="s")
        assert resumed.num_edges == len(EDGES)
        assert resumed.num_pending == 0
        resumed.wal.close()


class TestTokensPastTrim:
    def test_retry_after_trim_and_restart_answers_original_ack(
        self, store, small_segments
    ):
        """A snapshot trims the segment holding an acknowledged token;
        after a restart its retry still answers the original LSN and
        applies nothing — neither a second copy nor an out-of-order
        refusal."""
        service = StreamingCoreService.restore(store, (2,), name="s")
        early = service.append("n0", "n1", 10, token="E")
        for i in range(28):
            service.append(f"n{i % 6}", f"n{(i + 1) % 6}", 11 + i // 2)
        late = service.append("n0", "n3", 30, token="T")
        for i in range(29):
            service.append(f"n{i % 5}", f"n{(i + 2) % 6}", 30)
        assert (early, late) == (1, 30)
        service.snapshot(store, name="s")
        assert service.wal.segment_paths()[0].name > "wal-0000000000000030"
        service.wal.close()

        restored = StreamingCoreService.restore(store, (2,), name="s")
        assert restored.num_edges == 59
        assert restored.append("n0", "n3", 30, token="T") == 30
        assert restored.append("n0", "n1", 10, token="E") == 1
        assert restored.num_edges == 59
        assert restored.wal.last_lsn == 59
        restored.wal.close()


class TestCorruptBlobCounters:
    def test_corrupt_graph_read_is_counted_and_logged(self, store, paper_graph,
                                                      caplog):
        from repro.errors import StoreCorruptionError

        store.save_graph(paper_graph, name="g")
        path = store.root / "g" / "graph.bin"
        data = bytearray(path.read_bytes())
        data[-4] ^= 0xFF
        path.write_bytes(bytes(data))

        with caplog.at_level("WARNING", logger="repro.store"):
            with pytest.raises(StoreCorruptionError):
                store.load_graph("g")
        assert any("graph.bin" in r.message for r in caplog.records)
        text = store.metrics.render_prometheus()
        assert 'repro_store_corrupt_blobs_total' in text
        assert 'kind="graph"' in text
