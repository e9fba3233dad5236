"""The daemon fault-injection campaign.

Every fault a serving process meets in production, injected for real
against a daemon subprocess: clients that vanish mid-stream, clients
that read too slowly, garbage on the wire, a SIGTERM drain that must
finish in-flight work, and a SIGKILL that must not lose an index the
daemon built.  After every fault the daemon must still answer, and its
outcome counters must reconcile:
``accepted == completed + cancelled + failed``.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import socket
import struct
import threading
import time

import pytest

from repro.core.index import CoreIndex
from repro.graph.generators import uniform_random_temporal
from repro.serve.client import DaemonClient
from repro.serve.daemon import ServingDaemon, _ReadOnlyError
from repro.serve.protocol import Request
from repro.store.index_store import IndexStore
from tests.serve.daemon.conftest import STORE_KEY


def reconciled(counters: dict) -> bool:
    return counters["accepted"] == (
        counters["completed"] + counters["cancelled"] + counters["failed"]
    )


def wait_for(predicate, *, timeout: float = 30.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached within timeout")


@pytest.fixture(scope="module")
def heavy_store(tmp_path_factory):
    """A denser store whose full-span stream is big and slow enough
    that a disconnect reliably lands mid-stream."""
    root = tmp_path_factory.mktemp("daemon-heavy") / "store"
    graph = uniform_random_temporal(40, 2500, tmax=60, seed=5)
    store = IndexStore(root)
    store.save_graph(graph, name=STORE_KEY)
    store.save_index(CoreIndex(graph, 2), name=STORE_KEY)
    return root, graph


class TestClientDisconnect:
    def test_mid_stream_disconnect_cancels_promptly(
        self, start_daemon, heavy_store
    ):
        root, graph = heavy_store
        handle = start_daemon("--outbox-depth", "4", store=root)
        sock = socket.create_connection(("127.0.0.1", handle.port), timeout=30)
        reader = sock.makefile("rb")
        sock.sendall(
            json.dumps(
                {"op": "query", "id": 1, "k": 2, "ts": 1, "te": graph.tmax}
            ).encode()
            + b"\n"
        )
        # Confirm the stream started, then vanish abruptly: SO_LINGER 0
        # turns close() into a RST, the strongest form of "client gone".
        # (Close the makefile too — it holds a reference that would
        # otherwise keep the underlying fd open.)
        first = json.loads(reader.readline())
        assert "core" in first
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        reader.close()
        sock.close()

        with DaemonClient("127.0.0.1", handle.port) as client:
            wait_for(
                lambda: client.stats()["daemon"]["cancelled"] >= 1
            )
            counters = client.stats()["daemon"]
            assert counters["cancelled"] == 1
            assert counters["completed"] == 0
            assert reconciled(counters)
            # The daemon is unharmed: the same query now completes.
            _cores, done = client.query(k=2, ts=1, te=10)
            assert done["completed"] is True

    def test_disconnect_while_queued_cancels_without_execution(
        self, start_daemon, heavy_store
    ):
        root, graph = heavy_store
        handle = start_daemon(store=root)
        # First connection occupies the execution lane with a heavy
        # query; the second queues one and disconnects before it runs.
        busy = socket.create_connection(("127.0.0.1", handle.port), timeout=30)
        busy.sendall(
            json.dumps(
                {"op": "query", "id": 1, "k": 2, "ts": 1, "te": graph.tmax}
            ).encode()
            + b"\n"
        )
        quitter = socket.create_connection(
            ("127.0.0.1", handle.port), timeout=30
        )
        quitter.sendall(
            json.dumps(
                {"op": "query", "id": 2, "k": 2, "ts": 1, "te": graph.tmax}
            ).encode()
            + b"\n"
        )
        with DaemonClient("127.0.0.1", handle.port) as client:
            wait_for(lambda: client.stats()["daemon"]["accepted"] >= 2)
            quitter.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            quitter.close()
            busy.close()
            wait_for(
                lambda: reconciled(client.stats()["daemon"])
                and client.stats()["daemon"]["accepted"] == 2
            )
            assert client.stats()["daemon"]["cancelled"] >= 1

    def test_drain_completes_after_disconnect_while_queued(
        self, start_daemon, heavy_store
    ):
        """Regression: a connection reset while its job was still queued
        used to leak its handler (nothing woke the sender, so close()
        awaited it forever), and the next SIGTERM drain then hung at
        that connection instead of exiting 0."""
        root, graph = heavy_store
        handle = start_daemon(store=root)
        busy = socket.create_connection(("127.0.0.1", handle.port), timeout=30)
        busy.sendall(
            json.dumps(
                {"op": "query", "id": 1, "k": 2, "ts": 1, "te": graph.tmax}
            ).encode()
            + b"\n"
        )
        quitter = socket.create_connection(
            ("127.0.0.1", handle.port), timeout=30
        )
        quitter.sendall(
            json.dumps(
                {"op": "query", "id": 2, "k": 2, "ts": 1, "te": graph.tmax}
            ).encode()
            + b"\n"
        )
        with DaemonClient("127.0.0.1", handle.port) as client:
            wait_for(lambda: client.stats()["daemon"]["accepted"] >= 2)
            quitter.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            quitter.close()
            busy.close()
            wait_for(
                lambda: reconciled(client.stats()["daemon"])
                and client.stats()["daemon"]["accepted"] == 2
            )
        handle.sigterm()
        assert handle.wait(timeout=30) == 0


class TestSlowReader:
    def test_slow_reader_backpressure_stays_correct(
        self, start_daemon, daemon_store
    ):
        _root, graph = daemon_store
        handle = start_daemon("--outbox-depth", "4")
        index = CoreIndex(graph, 2)
        want = index.query(1, graph.tmax, collect=False)
        with DaemonClient("127.0.0.1", handle.port) as client:
            # Stall between reads so the bounded outbox (4 frames) keeps
            # filling and the producer keeps blocking; every frame must
            # still arrive, in order, with nothing dropped.
            rid = 1
            client.send(
                {"op": "query", "id": rid, "k": 2, "ts": 1, "te": graph.tmax}
            )
            cores = 0
            while True:
                frame = client.recv()
                assert frame["id"] == rid
                if "core" in frame:
                    cores += 1
                    if cores % 50 == 0:
                        time.sleep(0.002)
                    continue
                assert frame["ok"] is True
                assert frame["completed"] is True
                assert frame["num_results"] == cores == want.num_results
                assert frame["total_edges"] == want.total_edges
                break
            counters = client.stats()["daemon"]
            assert counters["completed"] == 1
            assert reconciled(counters)


class TestDeadlineUnderBackpressure:
    def test_expired_deadline_frees_lane_despite_stalled_reader(
        self, start_daemon, heavy_store
    ):
        """Regression: a slow-but-alive reader used to pin the execution
        lane indefinitely — the bridge sink blocked on the full outbox
        and the deadline was only polled between sink writes.  Now the
        put waits in bounded slices, the walk aborts once the request's
        timeout passes, and after ``--terminal-grace`` the daemon hangs
        up on a client that will not even take the terminal frame, so
        other connections' admitted work proceeds."""
        root, graph = heavy_store
        handle = start_daemon(
            "--outbox-depth", "4", "--terminal-grace", "1", store=root
        )
        # A tiny receive buffer (set before connect) keeps the TCP
        # window small, so the daemon-side buffers fill fast and the
        # walk really blocks on the outbox.  The full stream (~9 MB)
        # is larger than those buffers (a few MB), and the timeout
        # gives the walk time to fill them first however fast it
        # streams: with a short one, a slow start could leave
        # everything it produced, terminal frame too, in the buffers.
        stalled = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        stalled.settimeout(30)
        stalled.connect(("127.0.0.1", handle.port))
        reader = stalled.makefile("rb")
        stalled.sendall(
            json.dumps(
                {
                    "op": "query",
                    "id": 1,
                    "k": 2,
                    "ts": 1,
                    "te": graph.tmax,
                    "timeout": 2.0,
                }
            ).encode()
            + b"\n"
        )
        # Confirm the stream started, then stop reading entirely.
        first = json.loads(reader.readline())
        assert "core" in first

        # A second client's query must complete while the first one is
        # still stalled: the lane frees at timeout + grace (~3s),
        # far within this client's 30s socket timeout.
        with DaemonClient("127.0.0.1", handle.port) as client:
            _cores, done = client.query(k=2, ts=1, te=10)
            assert done["completed"] is True
            wait_for(
                lambda: reconciled(client.stats()["daemon"])
                and client.stats()["daemon"]["accepted"] == 2
            )
            counters = client.stats()["daemon"]
            # Both requests ran to a terminal frame (the stalled one as
            # a deadline abort whose delivery was then abandoned).
            assert counters["completed"] == 2
            assert counters["cancelled"] == 0
        # The stalled client was hung up on at grace: it may still read
        # early buffered core frames, but never a terminal frame.
        try:
            for line in reader:
                if not line.endswith(b"\n"):
                    break  # truncated by the reset
                assert b'"done"' not in line
        except OSError:
            pass
        reader.close()
        stalled.close()


class TestWireGarbage:
    def test_malformed_lines_are_clean_errors(self, start_daemon):
        handle = start_daemon()
        sock = socket.create_connection(("127.0.0.1", handle.port), timeout=30)
        reader = sock.makefile("rb")

        sock.sendall(b"this is not json\n")
        frame = json.loads(reader.readline())
        assert frame["ok"] is False and frame["error"]["code"] == "bad-json"

        sock.sendall(b"[1, 2, 3]\n")
        frame = json.loads(reader.readline())
        assert frame["ok"] is False and frame["error"]["code"] == "bad-request"

        sock.sendall(b'{"op": "frobnicate", "id": 9}\n')
        frame = json.loads(reader.readline())
        assert frame["ok"] is False and frame["error"]["code"] == "unknown-op"

        sock.sendall(b'{"op": "query", "id": 10}\n')  # missing k/ts/te
        frame = json.loads(reader.readline())
        assert frame["ok"] is False and frame["error"]["code"] == "bad-request"

        # The connection survives all of it.
        sock.sendall(b'{"op": "ping", "id": 11}\n')
        frame = json.loads(reader.readline())
        assert frame["ok"] is True and frame["pong"] is True
        sock.close()

    def test_oversized_line_is_rejected_and_connection_closed(
        self, start_daemon
    ):
        handle = start_daemon()
        sock = socket.create_connection(("127.0.0.1", handle.port), timeout=30)
        reader = sock.makefile("rb")
        huge = b'{"op": "query", "pad": "' + b"x" * (1 << 20) + b'"}\n'
        sock.sendall(huge)
        frame = json.loads(reader.readline())
        assert frame["ok"] is False and frame["error"]["code"] == "too-large"
        assert reader.readline() == b""  # daemon hung up
        sock.close()
        # And the daemon is still serving.
        with DaemonClient("127.0.0.1", handle.port) as client:
            assert client.ping()
            counters = client.stats()["daemon"]
            assert counters["rejected"].get("protocol", 0) >= 1
            assert reconciled(counters)


class TestSigtermDrain:
    def test_drain_finishes_inflight_and_snapshots_store(
        self, start_daemon, daemon_store, tmp_path
    ):
        root, graph = daemon_store
        drain_root = tmp_path / "store"
        shutil.copytree(root, drain_root)
        store = IndexStore(drain_root)
        assert 4 not in store.stored_ks(STORE_KEY)

        handle = start_daemon(store=drain_root)
        index = CoreIndex(graph, 2)
        ranges = [(1, graph.tmax), (2, graph.tmax // 2), (5, graph.tmax - 3)]
        want = index.query_batch(ranges)

        sock = socket.create_connection(("127.0.0.1", handle.port), timeout=30)
        reader = sock.makefile("rb")
        # Pipeline: a k=4 query (index not in the store — the registry
        # builds and commits it) plus three batches; SIGTERM arrives
        # while they are queued/in-flight.
        sock.sendall(
            json.dumps(
                {"op": "query", "id": 0, "k": 4, "ts": 1, "te": graph.tmax,
                 "edge_ids": False}
            ).encode()
            + b"\n"
        )
        for i, (ts, te) in enumerate(ranges, start=1):
            sock.sendall(
                json.dumps(
                    {"op": "batch", "id": i, "k": 2, "ranges": [[ts, te]]}
                ).encode()
                + b"\n"
            )
        with DaemonClient("127.0.0.1", handle.port) as control:
            wait_for(lambda: control.stats()["daemon"]["accepted"] == 4)
        handle.sigterm()

        # Every admitted request still completes, correctly.
        done = {}
        while len(done) < 4:
            frame = json.loads(reader.readline())
            if "core" in frame:
                continue
            assert frame["ok"] is True, frame
            done[frame["id"]] = frame
        assert done[0]["completed"] is True
        for i, result in enumerate(want, start=1):
            answer = done[i]["answers"][0]
            assert answer["num_results"] == result.num_results
            assert answer["total_edges"] == result.total_edges
            assert answer["completed"] is True
        sock.close()

        assert handle.wait(timeout=30) == 0
        # The freshly built k=4 index is in the store.
        assert 4 in IndexStore(drain_root).stored_ks(STORE_KEY)


class TestSigkillDurability:
    def test_built_index_survives_sigkill(
        self, start_daemon, daemon_store, tmp_path
    ):
        root, graph = daemon_store
        kill_root = tmp_path / "store"
        shutil.copytree(root, kill_root)
        assert 4 not in IndexStore(kill_root).stored_ks(STORE_KEY)

        handle = start_daemon(store=kill_root)
        with DaemonClient("127.0.0.1", handle.port) as client:
            _cores, done = client.query(k=4, ts=1, te=graph.tmax)
        assert done["num_results"] == CoreIndex(graph, 4).query(
            1, graph.tmax, collect=False
        ).num_results
        handle.stop()  # SIGKILL: no drain, no shutdown hook runs
        assert not handle.alive()
        assert 4 in IndexStore(kill_root).stored_ks(STORE_KEY)


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="names descriptors via /proc/self/fd"
)
class TestFlushFault:
    """A blob fsync that fails on the store I/O thread during a flush.

    In-process, so ``os.fsync`` can be made to fail for blob temp files
    only (the WAL keeps syncing); the daemon answers through the same
    ``_answer_*`` handlers its execution lane runs.
    """

    def test_failed_snapshot_fsync_turns_the_daemon_read_only(
        self, tmp_path, monkeypatch
    ):
        store = IndexStore(tmp_path / "store")
        daemon = ServingDaemon(store, warm=False)
        edges = tuple(uniform_random_temporal(12, 60, tmax=10, seed=2).edges)
        try:
            daemon._answer_append(
                Request(op="append", id=1, graph="s", edges=edges)
            )
            real_fsync = os.fsync
            failed: list[str] = []

            def fsync(fd):
                path = os.readlink(f"/proc/self/fd/{fd}")
                if ".tmp." in path and not os.path.basename(path).startswith(
                    "manifest."
                ):
                    failed.append(threading.current_thread().name)
                    raise OSError(errno.ENOSPC, "injected: no space left")
                real_fsync(fd)

            monkeypatch.setattr(os, "fsync", fsync)
            # The lane answers this error with a ``read-only`` frame.
            with pytest.raises(_ReadOnlyError, match="flush not completed"):
                daemon._answer_flush(Request(op="flush", id=2, graph="s"))
            assert failed and all(
                name.startswith("repro-store-io") for name in failed
            )
            assert daemon.stats()["ingest"]["read_only"].startswith("flush failed")
            with pytest.raises(_ReadOnlyError):
                daemon._answer_append(
                    Request(op="append", id=3, graph="s", edges=edges[:1])
                )
            # Nothing was committed, and the key's lock is free.
            assert "s" not in store.keys()
            assert store.lock_info("s") is None
        finally:
            daemon._close_wals()
