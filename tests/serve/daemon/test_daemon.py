"""Daemon end-to-end: socket answers == in-process answers, plus the
protocol's control surface (ping/stats/shutdown, errors, /metrics)."""

from __future__ import annotations

import json
import random
import socket

import pytest

from repro.core.index import CoreIndex
from repro.serve.client import DaemonClient, DaemonError
from tests.serve.daemon.conftest import launch_daemon, metric_total, scrape_metrics
from tests.serve.test_executor import overlapping_ranges


@pytest.fixture(scope="module")
def daemon(daemon_store):
    """One shared read-only daemon for this module (the launcher
    fixture is function-scoped, so this launches by hand)."""
    root, graph = daemon_store
    handle = launch_daemon(root)
    yield handle, graph
    handle.stop()


class TestControlOps:
    def test_ping(self, daemon):
        handle, _graph = daemon
        with DaemonClient("127.0.0.1", handle.port) as client:
            assert client.ping() is True

    def test_stats_shape(self, daemon):
        handle, _graph = daemon
        with DaemonClient("127.0.0.1", handle.port) as client:
            stats = client.stats()
        assert stats["store"]["keys"] == ["g"]
        counters = stats["daemon"]
        assert counters["accepted"] == (
            counters["completed"] + counters["cancelled"] + counters["failed"]
        )
        assert stats["registry"]["size"] >= 2  # warmed k=2,3 at boot
        assert "pool" not in stats

    def test_warm_boot_served_from_store(self, daemon):
        handle, _graph = daemon
        with DaemonClient("127.0.0.1", handle.port) as client:
            stats = client.stats()
        # Boot warming resolved both stored ks from disk, not compute.
        assert stats["registry"]["store_hits"] >= 2
        assert stats["registry"]["multik_builds"] == 0


class TestAnswersMatchInProcess:
    @pytest.mark.parametrize("k", [2, 3])
    def test_query_counters_and_cores(self, daemon, k):
        handle, graph = daemon
        index = CoreIndex(graph, k)
        rng = random.Random(200 + k)
        with DaemonClient("127.0.0.1", handle.port) as client:
            for _ in range(4):
                a, b = rng.randint(1, graph.tmax), rng.randint(1, graph.tmax)
                ts, te = min(a, b), max(a, b)
                cores, done = client.query(k=k, ts=ts, te=te)
                want = index.query(ts, te, collect=True)
                assert done["num_results"] == want.num_results
                assert done["total_edges"] == want.total_edges
                assert done["completed"] is True
                got = {
                    (tuple(core["tti"]), frozenset(core["edge_ids"]))
                    for core in cores
                }
                want_cores = {
                    (core.tti, frozenset(core.edge_ids))
                    for core in want.cores
                }
                assert got == want_cores

    def test_query_without_edge_ids(self, daemon):
        handle, graph = daemon
        with DaemonClient("127.0.0.1", handle.port) as client:
            cores, done = client.query(
                k=2, ts=1, te=graph.tmax, edge_ids=False
            )
        assert cores and all("edge_ids" not in core for core in cores)
        assert done["num_results"] == len(cores)

    def test_batch_in_input_order(self, daemon):
        handle, graph = daemon
        index = CoreIndex(graph, 2)
        rng = random.Random(77)
        ranges = overlapping_ranges(rng, graph.tmax, 20)
        with DaemonClient("127.0.0.1", handle.port) as client:
            answers = client.batch(ranges, k=2)
        want = index.query_batch(ranges)
        assert [tuple(answer["range"]) for answer in answers] == ranges
        for answer, result in zip(answers, want):
            assert answer["num_results"] == result.num_results
            assert answer["total_edges"] == result.total_edges
            assert answer["completed"] is True

    def test_explicit_graph_key(self, daemon):
        handle, graph = daemon
        with DaemonClient("127.0.0.1", handle.port) as client:
            _cores, done = client.query(k=2, ts=1, te=5, graph="g")
            assert done["ok"] is True


class TestRequestErrors:
    def test_unknown_graph_key(self, daemon):
        handle, _graph = daemon
        with DaemonClient("127.0.0.1", handle.port) as client:
            with pytest.raises(DaemonError) as err:
                client.query(k=2, ts=1, te=5, graph="nope")
            assert err.value.code == "invalid"
            assert client.ping()  # connection survives a request error

    def test_window_outside_graph(self, daemon):
        handle, graph = daemon
        with DaemonClient("127.0.0.1", handle.port) as client:
            with pytest.raises(DaemonError) as err:
                client.query(k=2, ts=1, te=graph.tmax + 10)
            assert err.value.code == "invalid"

    def test_bad_k(self, daemon):
        handle, _graph = daemon
        with DaemonClient("127.0.0.1", handle.port) as client:
            with pytest.raises(DaemonError) as err:
                client.query(k=0, ts=1, te=5)
            assert err.value.code == "invalid"

    def test_errors_count_as_failed_and_reconcile(self, daemon):
        handle, _graph = daemon
        with DaemonClient("127.0.0.1", handle.port) as client:
            with pytest.raises(DaemonError):
                client.query(k=2, ts=1, te=10_000)
            stats = client.stats()["daemon"]
        assert stats["failed"] >= 1
        assert stats["accepted"] == (
            stats["completed"] + stats["cancelled"] + stats["failed"]
        )


class TestMetricsEndpoint:
    def test_metrics_serves_live_registry(self, daemon):
        handle, _graph = daemon
        with DaemonClient("127.0.0.1", handle.port) as client:
            client.ping()
            stats = client.stats()["daemon"]
        text = scrape_metrics(handle.port)
        assert "# TYPE repro_daemon_accepted_total counter" in text
        assert metric_total(text, "repro_daemon_accepted_total") == (
            stats["accepted"]
        )
        # The stats connection may not have fully torn down yet.
        assert metric_total(text, "repro_daemon_connections") <= 1.0

    def test_unknown_path_is_404(self, daemon):
        handle, _graph = daemon
        import urllib.error
        import urllib.request

        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                f"http://127.0.0.1:{handle.port}/nope", timeout=10
            )
        assert err.value.code == 404

    def test_health_endpoint(self, daemon):
        import urllib.request

        handle, _graph = daemon
        with urllib.request.urlopen(
            f"http://127.0.0.1:{handle.port}/health", timeout=10
        ) as response:
            assert response.read() == b"ok\n"


class TestShutdownOp:
    def test_shutdown_drains_and_exits_clean(self, start_daemon):
        handle = start_daemon()
        with DaemonClient("127.0.0.1", handle.port) as client:
            ack = client.shutdown()
            assert ack["draining"] is True
        assert handle.wait(timeout=30) == 0

    def test_work_after_shutdown_rejected_as_draining(self, start_daemon):
        handle = start_daemon()
        with socket.create_connection(("127.0.0.1", handle.port), timeout=10) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b'{"op": "shutdown", "id": 1}\n')
            ack = json.loads(reader.readline())
            assert ack["draining"] is True
            sock.sendall(b'{"op": "query", "id": 2, "k": 2, "ts": 1, "te": 5}\n')
            response = json.loads(reader.readline())
            assert response["ok"] is False
            assert response["error"]["code"] == "draining"
        assert handle.wait(timeout=30) == 0
