"""Daemon durable ingestion: append/flush over the wire, dedupe across
restarts, read-only degradation on WAL disk errors."""

from __future__ import annotations

import asyncio
import json
import random

import pytest

from repro.core.enumerate_ref import enumerate_temporal_kcores_ref
from repro.core.index import CoreIndex
from repro.graph.temporal_graph import TemporalGraph
from repro.serve.client import DaemonClient, DaemonError
from repro.serve.daemon import ServingDaemon
from repro.store import IndexStore
from repro.store.fsck import scrub_store
from tests.serve.daemon.conftest import (
    STORE_KEY,
    STORE_KS,
    build_store,
    metric_total,
    scrape_metrics,
)

TMAX = 48  # build_store's raw-time ceiling; appends must not go backwards


@pytest.fixture()
def fresh_store(tmp_path):
    """A private store per test — ingestion mutates it."""
    root = tmp_path / "store"
    _store, graph = build_store(root)
    return root, graph


def labelled_cores(graph, cores) -> set:
    """Wire cores as ``(tti, frozenset of label triples)``: comparable
    with the cores of another graph over the same raw edges."""

    def triple(eid):
        u, v, t = graph.edges[eid]
        return (*sorted((str(graph.label_of(u)), str(graph.label_of(v)))),
                graph.raw_time_of(t))

    return {
        (tuple(core["tti"]), frozenset(map(triple, core["edge_ids"])))
        for core in cores
    }


def new_edges(base_t):
    """A triangle of brand-new vertices at three fresh instants."""
    return [
        ["ing-a", "ing-b", base_t],
        ["ing-b", "ing-c", base_t + 1],
        ["ing-a", "ing-c", base_t + 2],
    ]


class TestAppendFlush:
    def test_append_acks_with_lsns(self, start_daemon, fresh_store):
        root, _graph = fresh_store
        handle = start_daemon(store=root)
        with DaemonClient("127.0.0.1", handle.port) as client:
            ack = client.append(new_edges(TMAX + 1))
            assert ack["done"] and ack["lsn"] == 1 and ack["appended"] == 3
            ack = client.append([["ing-c", "ing-d", TMAX + 4]])
            assert ack["lsn"] == 4
            stats = client.stats()
            assert stats["ingest"]["read_only"] is None
            assert stats["ingest"]["appended_edges"] == 4
            (key_stats,) = stats["ingest"]["keys"].values()
            assert key_stats["last_lsn"] == 4
            assert key_stats["stream_lsn"] == 0

    def test_append_rejects_time_regression(self, start_daemon, fresh_store):
        root, _graph = fresh_store
        handle = start_daemon(store=root)
        with DaemonClient("127.0.0.1", handle.port) as client:
            with pytest.raises(DaemonError) as err:
                client.append([["x", "y", 1]])  # far before the graph's end
            assert err.value.code == "invalid"
            # Nothing was written: the WAL has no record of it.
            assert client.stats()["ingest"]["appended_edges"] == 0

    def test_flush_makes_appends_queryable(self, start_daemon, fresh_store):
        root, graph = fresh_store
        handle = start_daemon(store=root)
        with DaemonClient("127.0.0.1", handle.port) as client:
            # Three new raw instants extend the time axis; until the
            # flush, a query out there is beyond the served graph.
            client.append(new_edges(TMAX + 1))
            with pytest.raises(DaemonError):
                client.query(k=2, ts=1, te=graph.tmax + 3)

            ack = client.flush()
            assert ack["applied"] == 3 and ack["lsn"] == 3

            cores, done = client.query(k=2, ts=graph.tmax + 1,
                                       te=graph.tmax + 3)
            assert done["completed"]
            # The appended triangle is itself a temporal 2-core.
            assert any(core["num_edges"] == 3 for core in cores)

    def test_flush_with_nothing_pending_is_a_noop(self, start_daemon,
                                                  fresh_store):
        root, _graph = fresh_store
        handle = start_daemon(store=root)
        with DaemonClient("127.0.0.1", handle.port) as client:
            ack = client.flush()
            assert ack["applied"] == 0
            # An empty stream with no snapshot, though, has nothing at
            # all to fold — that is an error.
            with pytest.raises(DaemonError) as err:
                client.flush(graph="brand-new")
            assert err.value.code == "invalid"

    def test_empty_flush_writes_nothing(self, start_daemon, fresh_store):
        root, _graph = fresh_store
        manifest = root / STORE_KEY / "manifest.json"
        before = manifest.read_bytes()
        handle = start_daemon(store=root)
        with DaemonClient("127.0.0.1", handle.port) as client:
            ack = client.flush()
            assert ack["applied"] == 0 and ack["lsn"] == 0
            ingest = client.stats()["ingest"]
            assert ingest["incremental_folds"] == 0
            assert ingest["full_rebuilds"] == 0
        assert manifest.read_bytes() == before

    def test_fresh_key_stream(self, start_daemon, fresh_store):
        """A key the store does not hold yet starts a graph-only stream:
        the log first, then the flush writes the first snapshot."""
        root, _graph = fresh_store
        edges = [
            ["f-a", "f-b", 1], ["f-b", "f-c", 2], ["f-a", "f-c", 3],
            ["f-c", "f-d", 4], ["f-a", "f-d", 5], ["f-b", "f-d", 5],
        ]
        handle = start_daemon(store=root)
        with DaemonClient("127.0.0.1", handle.port) as client:
            client.append(edges[:3], graph="fresh")
            last = client.append(edges[3:], graph="fresh")
            ack = client.flush(graph="fresh")
            assert ack["applied"] == len(edges) and ack["lsn"] == last["lsn"] + 2
            graph = TemporalGraph([tuple(edge) for edge in edges])
            want = CoreIndex(graph, 2).query(1, graph.tmax, collect=True)
            cores, done = client.query(k=2, ts=1, te=graph.tmax, graph="fresh")
            assert done["num_results"] == want.num_results
            assert {
                (tuple(core["tti"]), frozenset(core["edge_ids"]))
                for core in cores
            } == {(core.tti, frozenset(core.edge_ids)) for core in want.cores}
            stream = client.stats()["ingest"]["keys"]["fresh"]
            assert stream["stream_lsn"] == ack["lsn"] == len(edges)

    def test_flush_persists_and_trims(self, start_daemon, fresh_store):
        root, _graph = fresh_store
        handle = start_daemon(store=root)
        with DaemonClient("127.0.0.1", handle.port) as client:
            client.append(new_edges(TMAX + 1))
            client.flush()
            stats = client.stats()
            (key_stats,) = stats["ingest"]["keys"].values()
            assert key_stats["stream_lsn"] == 3
            assert stats["ingest"]["flushes"] == 1
        # The snapshot survives daemon death: a plain store reopen sees
        # the folded graph and a fully covered WAL.
        handle.sigterm()
        assert handle.wait() == 0
        store = IndexStore(root)
        assert store.stream_lsn("g") == 3
        recovery = store.recover("g")
        recovery.wal.close()
        assert recovery.events == []
        assert any(
            recovery.graph.label_of(u) == "ing-a"
            for u in range(recovery.graph.num_vertices)
        )
        assert scrub_store(root).clean


class TestDedupe:
    def test_same_token_answers_identically(self, start_daemon, fresh_store):
        root, _graph = fresh_store
        handle = start_daemon(store=root)
        edges = new_edges(TMAX + 1)
        with DaemonClient("127.0.0.1", handle.port) as client:
            first = client.append(edges, dedupe="job-42")
            again = client.append(edges, dedupe="job-42")
            assert {k: v for k, v in first.items() if k != "id"} \
                == {k: v for k, v in again.items() if k != "id"}
            assert client.stats()["ingest"]["keys"]["g"]["last_lsn"] == 3

    def test_counters_are_exact(self, start_daemon, fresh_store):
        """One fsync per acknowledged append; a retried token is one
        deduplicated append that acknowledges no new edge and answers
        its first ack byte for byte."""
        root, _graph = fresh_store
        handle = start_daemon(store=root)

        def totals():
            metrics = scrape_metrics(handle.port)
            return {
                name: metric_total(metrics, name)
                for name in (
                    "repro_wal_fsyncs_total",
                    "repro_wal_rotations_total",
                    "repro_wal_deduped_appends_total",
                    "repro_daemon_appended_edges_total",
                )
            }

        with DaemonClient("127.0.0.1", handle.port) as client:
            acks = [
                client.append(new_edges(TMAX + 1 + 3 * i), dedupe=f"tok-{i}")
                for i in range(5)
            ]
            before = totals()
            assert before == {
                "repro_wal_fsyncs_total": 5.0,
                "repro_wal_rotations_total": 0.0,
                "repro_wal_deduped_appends_total": 0.0,
                "repro_daemon_appended_edges_total": 15.0,
            }
            again = client.append(new_edges(TMAX + 1), dedupe="tok-0")
            after = totals()
        assert json.dumps([again["lsn"], again["appended"]]) \
            == json.dumps([acks[0]["lsn"], acks[0]["appended"]]) == "[1, 3]"
        assert after == {
            **before, "repro_wal_deduped_appends_total": 1.0,
        }

    def test_ack_stable_across_daemon_kill(self, start_daemon, fresh_store):
        """The acceptance bar: an acked append re-sent after a SIGKILL
        and restart answers the same acknowledgement."""
        root, _graph = fresh_store
        edges = new_edges(TMAX + 1)
        handle = start_daemon(store=root)
        with DaemonClient("127.0.0.1", handle.port) as client:
            original = client.append(edges, dedupe="job-9")
        handle.stop()  # SIGKILL — no drain, no persist

        restarted = start_daemon(store=root)
        with DaemonClient("127.0.0.1", restarted.port) as client:
            retried = client.append(edges, dedupe="job-9")
            assert {k: v for k, v in retried.items() if k != "id"} \
                == {k: v for k, v in original.items() if k != "id"}
            # And the edges exist exactly once.
            ack = client.flush()
            assert ack["applied"] == 3


class TestCrashRecovery:
    def test_acked_appends_survive_sigkill(self, start_daemon, fresh_store):
        root, graph = fresh_store
        handle = start_daemon(store=root)
        with DaemonClient("127.0.0.1", handle.port) as client:
            client.append(new_edges(TMAX + 1))
            client.append([["ing-c", "ing-d", TMAX + 4]])
        handle.stop()  # SIGKILL

        restarted = start_daemon(store=root)
        with DaemonClient("127.0.0.1", restarted.port) as client:
            stats = client.stats()
            assert stats["ingest"]["keys"] == {}  # opened lazily, by the flush
            ack = client.flush()
            assert ack["applied"] == 4
            (key_stats,) = client.stats()["ingest"]["keys"].values()
            assert key_stats["last_lsn"] == 4
            cores, done = client.query(k=2, ts=graph.tmax + 1,
                                       te=graph.tmax + 3)
            assert done["completed"]
            assert any(core["num_edges"] == 3 for core in cores)


class TestReadOnly:
    def test_wal_fault_degrades_to_read_only(self, start_daemon, fresh_store):
        root, graph = fresh_store
        handle = start_daemon(
            store=root, env={"REPRO_FAULTPOINT": "wal.append.write"}
        )
        with DaemonClient("127.0.0.1", handle.port) as client:
            with pytest.raises(DaemonError) as err:
                client.append(new_edges(TMAX + 1))
            assert err.value.code == "read-only"
            # Ingestion is refused from now on ...
            with pytest.raises(DaemonError) as err:
                client.append(new_edges(TMAX + 1))
            assert err.value.code == "read-only"
            with pytest.raises(DaemonError) as err:
                client.flush()
            assert err.value.code == "read-only"
            # ... but serving carries on.
            cores, done = client.query(k=2, ts=1, te=graph.tmax)
            assert done["completed"]
            assert client.stats()["ingest"]["read_only"]

        metrics = scrape_metrics(handle.port)
        assert metric_total(metrics, "repro_daemon_read_only") == 1.0

    def test_healthy_daemon_reports_writable(self, start_daemon, fresh_store):
        root, _graph = fresh_store
        handle = start_daemon(store=root)
        with DaemonClient("127.0.0.1", handle.port) as client:
            client.append(new_edges(TMAX + 1))
        metrics = scrape_metrics(handle.port)
        assert metric_total(metrics, "repro_daemon_read_only") == 0.0
        assert metric_total(
            metrics, "repro_daemon_appended_edges_total"
        ) == 3.0
        assert metric_total(metrics, "repro_wal_appends_total") == 1.0


class TestIncrementalFlush:
    """PR 10: flushes delta-fold onto the cached snapshot when they can."""

    def test_flush_persist_is_observable(self, start_daemon, fresh_store):
        """``/metrics`` shows what a flush persisted and its commit time."""
        root, graph = fresh_store
        handle = start_daemon(store=root)
        a, b, c = (graph.label_of(i) for i in range(3))
        with DaemonClient("127.0.0.1", handle.port) as client:
            client.append([[a, b, TMAX + 1], [b, c, TMAX + 2]])
            client.flush()
        metrics = scrape_metrics(handle.port)
        manifest = IndexStore(root).manifest(STORE_KEY)
        directory = root / STORE_KEY
        assert metric_total(
            metrics, "repro_store_blob_bytes_written_total", kind="graph"
        ) == (directory / manifest["graph_file"]).stat().st_size
        assert metric_total(
            metrics, "repro_store_blob_bytes_written_total", kind="index"
        ) == sum(
            (directory / entry["file"]).stat().st_size
            for entry in manifest["indexes"].values()
        )
        assert metric_total(metrics, "repro_store_commit_seconds_count") == 1.0

    def test_frontier_flush_folds(self, start_daemon, fresh_store):
        root, graph = fresh_store
        handle = start_daemon(store=root)
        # A triangle among *existing* vertices at fresh instants: brand
        #-new vertices change their entries at every start, which the
        # fold's cost model correctly refuses (full rebuild instead).
        a, b, c = (graph.label_of(i) for i in range(3))
        with DaemonClient("127.0.0.1", handle.port) as client:
            client.append(
                [[a, b, TMAX + 1], [b, c, TMAX + 2], [a, c, TMAX + 3]]
            )
            ack = client.flush()
            assert ack["applied"] == 3
            stats = client.stats()
            assert stats["ingest"]["incremental_folds"] == 1
            assert stats["ingest"]["full_rebuilds"] == 0
            assert stats["ingest"]["fold_fallbacks"] == {}
        handle.sigterm()
        assert handle.wait() == 0
        # The folded snapshot + indexes equal a from-scratch rebuild.
        # A scratch TemporalGraph assigns vertex (and hence edge) ids in
        # its own order, so compare per *label*, not per flat array.
        from repro.core.multik import build_core_indexes
        from repro.graph.temporal_graph import TemporalGraph
        from tests.serve.daemon.conftest import STORE_KEY, STORE_KS

        store = IndexStore(root)
        folded = store.load_graph(STORE_KEY)
        raw = [
            (folded.label_of(u), folded.label_of(v), folded.raw_time_of(t))
            for u, v, t in folded.edges
        ]
        scratch = TemporalGraph(raw)
        oracle = build_core_indexes(scratch, STORE_KS)
        for k in STORE_KS:
            got = store.load_index(folded, k, key=STORE_KEY)
            assert got is not None
            for u in range(folded.num_vertices):
                assert got.vct.entries_of(u) == oracle[k].vct.entries_of(
                    scratch.id_of(folded.label_of(u))
                )
            # u < v is an *internal id* order, which differs between
            # the two graphs — canonicalise pairs by label.
            mine = sorted(
                ((*sorted(raw[e][:2]), raw[e][2]),
                 tuple(got.ecs.windows_of(e)))
                for e in range(folded.num_edges)
            )
            theirs = sorted(
                (
                    (
                        *sorted(
                            (scratch.label_of(u), scratch.label_of(v))
                        ),
                        scratch.raw_time_of(t),
                    ),
                    tuple(oracle[k].ecs.windows_of(e)),
                )
                for e, (u, v, t) in enumerate(scratch.edges)
            )
            assert mine == theirs

    def test_boundary_tie_rebuilds_in_full(self, start_daemon, fresh_store):
        root, _graph = fresh_store
        handle = start_daemon(store=root)
        with DaemonClient("127.0.0.1", handle.port) as client:
            # TMAX ties the snapshot's last raw instant: not a frontier
            # batch, so the flush takes the full-rebuild path.
            client.append([["ing-a", "ing-b", TMAX]])
            client.flush()
            stats = client.stats()
            assert stats["ingest"]["incremental_folds"] == 0
            assert stats["ingest"]["full_rebuilds"] == 1
            assert stats["ingest"]["fold_fallbacks"] == {"boundary-tie": 1}


class TestLagGauges:
    def test_gauges_track_the_keys_backlog(self, start_daemon, fresh_store):
        """``/metrics`` shows each key's unflushed edges and the wall time
        of its oldest unflushed append; a flush zeroes both."""
        import time

        root, _graph = fresh_store
        handle = start_daemon(store=root)

        def lag(metrics):
            return (
                metric_total(metrics, "repro_stream_lag_edges", key=STORE_KEY),
                metric_total(
                    metrics, "repro_stream_oldest_pending_timestamp_seconds",
                    key=STORE_KEY,
                ),
            )

        with DaemonClient("127.0.0.1", handle.port) as client:
            before = time.time()
            client.append(new_edges(TMAX + 1))
            edges, oldest = lag(scrape_metrics(handle.port))
            assert edges == 3.0
            assert before - 1.0 <= oldest <= time.time()
            client.append([["ing-c", "ing-d", TMAX + 4]])
            edges, still_oldest = lag(scrape_metrics(handle.port))
            assert edges == 4.0
            assert abs(still_oldest - oldest) < 0.5  # the first append's time
            client.flush()
            assert lag(scrape_metrics(handle.port)) == (0.0, 0.0)


class TestMaxLagFlush:
    """PR 10 satellite: --max-lag flushes on the query path."""

    def test_stale_key_flushes_before_answering(self, start_daemon,
                                                fresh_store):
        import time

        root, graph = fresh_store
        handle = start_daemon("--max-lag", "0.1", store=root)
        with DaemonClient("127.0.0.1", handle.port) as client:
            client.append(new_edges(TMAX + 1))
            time.sleep(0.3)
            # No explicit flush: the query range only exists after the
            # lag-triggered fold, so a successful answer proves it ran.
            cores, done = client.query(k=2, ts=graph.tmax + 1,
                                       te=graph.tmax + 3)
            assert done["completed"]
            assert any(core["num_edges"] == 3 for core in cores)
            stats = client.stats()
            assert stats["ingest"]["lag_flushes"] == 1
            assert stats["ingest"]["max_lag"] == 0.1
            (key_stats,) = stats["ingest"]["keys"].values()
            assert key_stats["lag_seconds"] == 0.0

    def test_backlog_recovered_at_restart_is_flushed(self, start_daemon,
                                                     fresh_store):
        """Appends acknowledged but never flushed before a restart: the
        first read restores the key's stream, and its budget (0 here)
        flushes the backlog in before the answer."""
        root, graph = fresh_store
        appended = new_edges(TMAX + 1)
        handle = start_daemon("--max-lag", "0", store=root)
        with DaemonClient("127.0.0.1", handle.port) as client:
            client.append(appended)
        handle.sigterm()
        assert handle.wait() == 0

        restarted = start_daemon("--max-lag", "0", store=root)
        ts, te = graph.tmax - 6, graph.tmax + 3
        with DaemonClient("127.0.0.1", restarted.port) as client:
            cores, done = client.query(k=2, ts=ts, te=te)
            stats = client.stats()
        assert done["completed"]
        assert stats["ingest"]["lag_flushes"] == 1
        raw = [
            (graph.label_of(u), graph.label_of(v), graph.raw_time_of(t))
            for u, v, t in graph.edges
        ] + [tuple(edge) for edge in appended]
        whole = TemporalGraph(raw)
        want = enumerate_temporal_kcores_ref(whole, 2, ts, te).cores
        assert want
        grown = IndexStore(root).load_graph(STORE_KEY)
        assert labelled_cores(grown, cores) == {
            (core.tti, frozenset(
                (*sorted((str(u), str(v))), t)
                for u, v, t in core.edge_triples(whole)
            ))
            for core in want
        }

    def test_damaged_log_does_not_stop_reads(self, start_daemon, fresh_store):
        """A log the read cannot restore (damage before its last segment)
        leaves the snapshot answering; ingestion reports the damage."""
        from repro.store.wal import _HEADER, WAL_MAGIC, WAL_VERSION

        root, graph = fresh_store
        wal_dir = root / STORE_KEY / "wal"
        wal_dir.mkdir()
        (wal_dir / "wal-0000000000000001.seg").write_bytes(b"NOTAWAL!" * 4)
        (wal_dir / "wal-0000000000000002.seg").write_bytes(
            _HEADER.pack(WAL_MAGIC, WAL_VERSION, 0)
        )
        handle = start_daemon("--max-lag", "0", store=root)
        with DaemonClient("127.0.0.1", handle.port) as client:
            _cores, done = client.query(k=2, ts=1, te=graph.tmax)
            assert done["completed"]
            with pytest.raises(DaemonError) as err:
                client.append(new_edges(TMAX + 1))
            assert err.value.code == "invalid"

    def test_fresh_key_not_flushed(self, start_daemon, fresh_store):
        root, graph = fresh_store
        handle = start_daemon("--max-lag", "30", store=root)
        with DaemonClient("127.0.0.1", handle.port) as client:
            client.append(new_edges(TMAX + 1))
            client.query(k=2, ts=1, te=graph.tmax)
            stats = client.stats()
            assert stats["ingest"]["lag_flushes"] == 0
            (key_stats,) = stats["ingest"]["keys"].values()
            assert key_stats["lag_seconds"] > 0.0


class TestReadsAfterFlush:
    def test_batch_reads_the_flushed_graph(self, tmp_path):
        """A flush commits the grown graph under the key the daemon
        already loaded; a batch over the new span must answer from it."""
        rng = random.Random(3)
        appended = sorted(
            (
                [rng.randrange(24), rng.randrange(24), rng.randint(41, 80)]
                for _ in range(500)
            ),
            key=lambda edge: edge[2],
        )
        root = tmp_path / "store"
        build_store(root, tmax=40)

        def drive(port):
            with DaemonClient("127.0.0.1", port) as client:
                before = client.batch([[1, 10], [20, 30]], k=2)
                client.append(appended)
                client.flush()
                return before, client.batch([[1, 10], [50, 75]], k=2)

        async def scenario():
            async with ServingDaemon(root) as daemon:
                return await asyncio.to_thread(drive, daemon.port)

        before, after = asyncio.run(scenario())
        grown = IndexStore(root).load_graph(STORE_KEY)
        want = CoreIndex(grown, 2).query_batch([(1, 10), (50, 75)])
        assert want[1].num_results > 0
        assert [
            (tuple(a["range"]), a["num_results"], a["total_edges"], a["completed"])
            for a in after
        ] == [(r.time_range, r.num_results, r.total_edges, True) for r in want]
        assert after[0] == before[0]


class TestStreamedKeyKs:
    def test_a_read_k_is_maintained_by_later_flushes(self, start_daemon,
                                                     tmp_path):
        """A k first read under a streamed key is built once: the flushes
        after it fold and commit it beside the stored ones."""
        root = tmp_path / "store"
        build_store(root, ks=(2, 4))
        handle = start_daemon(store=root)
        store = IndexStore(root)
        with DaemonClient("127.0.0.1", handle.port) as client:
            assert client.flush()["applied"] == 0  # opens the stream
            client.query(k=3, ts=1, te=10)
            assert store.stored_ks(STORE_KEY) == [2, 3, 4]
            for base in (TMAX + 1, TMAX + 4):
                client.append(new_edges(base))
                assert client.flush()["applied"] == 3
                assert store.stored_ks(STORE_KEY) == [2, 3, 4]
                builds = client.stats()["registry"]["multik_builds_by_k"]
                assert builds == {"3": 1}
            grown = store.load_graph(STORE_KEY)
            cores, done = client.query(k=3, ts=1, te=grown.tmax)
            assert client.stats()["registry"]["multik_builds_by_k"] == {"3": 1}
        want = CoreIndex(grown, 3).query(1, grown.tmax)
        assert done["num_results"] == want.num_results
        assert done["total_edges"] == want.total_edges
