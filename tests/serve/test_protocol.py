"""Wire protocol: frame codecs, request validation, and byte-identity.

The first half exercises :mod:`repro.serve.protocol` in isolation —
round-trips over randomized payloads and the full validation error
matrix.  The second half proves the strongest end-to-end property the
daemon offers: the core lines it streams over a socket are **byte
identical** to what an in-process :class:`NDJSONSink` writes for the
same query, and its counters match ``CoreIndex.query_batch`` and the
seed oracle on randomized graphs, ks and windows.
"""

from __future__ import annotations

import asyncio
import io
import json
import random
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.enumerate_ref import enumerate_temporal_kcores_ref
from repro.core.index import CoreIndex
from repro.graph.generators import uniform_random_temporal
from repro.obs.timing import Deadline
from repro.serve.client import DaemonClient, DaemonError
from repro.serve.daemon import _CHUNK_BYTES, _BridgeSink, _Connection, _FrameWriter
from repro.serve.executor import execute_plan
from repro.serve.planner import plan_for_index
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    Request,
    batch_done_frame,
    core_frame_prefix,
    decode_frame,
    done_frame,
    encode_frame,
    error_frame,
    ok_frame,
    parse_request,
)
from repro.serve.sinks import NDJSONSink
from repro.store.index_store import IndexStore


def random_payload(rng: random.Random, depth: int = 0):
    """A random JSON-representable value (nested up to two levels)."""
    choices = ["int", "float", "str", "bool", "none"]
    if depth < 2:
        choices += ["list", "dict"]
    kind = rng.choice(choices)
    if kind == "int":
        return rng.randint(-(10**12), 10**12)
    if kind == "float":
        return rng.uniform(-1e6, 1e6)
    if kind == "str":
        return "".join(
            rng.choice("abc λμν \"\\\n\t0123") for _ in range(rng.randint(0, 12))
        )
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "none":
        return None
    if kind == "list":
        return [random_payload(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {
        f"key{i}": random_payload(rng, depth + 1)
        for i in range(rng.randint(0, 4))
    }


class TestFrameCodec:
    def test_round_trips_randomized_payloads(self):
        rng = random.Random(4242)
        for _ in range(200):
            frame = {
                f"field{i}": random_payload(rng)
                for i in range(rng.randint(1, 6))
            }
            wire = encode_frame(frame)
            assert wire.endswith(b"\n")
            assert wire.count(b"\n") == 1  # newline-delimited framing holds
            assert decode_frame(wire) == frame
            assert decode_frame(wire.decode("utf-8")) == frame

    def test_builder_frames_round_trip(self):
        for frame in (
            ok_frame(7, pong=True),
            error_frame("x", "overloaded", "queue full"),
            done_frame(None, num_results=3, total_edges=9, completed=False),
            batch_done_frame(2, [{"range": [1, 5], "num_results": 0}]),
        ):
            assert decode_frame(encode_frame(frame)) == frame

    def test_oversized_line_rejected(self):
        line = b'{"pad": "' + b"y" * MAX_LINE_BYTES + b'"}'
        with pytest.raises(ProtocolError) as err:
            decode_frame(line)
        assert err.value.code == "too-large"

    def test_bad_json_rejected(self):
        for line in (b"nope", b"{truncated", b"\xff\xfe"):
            with pytest.raises(ProtocolError) as err:
                decode_frame(line)
            assert err.value.code == "bad-json"

    def test_non_object_rejected(self):
        for line in (b"[1, 2]", b'"str"', b"42", b"null"):
            with pytest.raises(ProtocolError) as err:
                decode_frame(line)
            assert err.value.code == "bad-request"

    def test_core_frame_splice_is_valid_json(self):
        # The daemon splices NDJSON lines verbatim between this prefix
        # and "}\n"; the result must parse back to the original core.
        core_line = '{"tti": [2, 5], "num_edges": 3, "edge_ids": [0, 4, 7]}\n'
        wire = core_frame_prefix(17) + core_line[:-1] + "}\n"
        frame = json.loads(wire)
        assert frame["id"] == 17
        assert frame["core"] == json.loads(core_line)


class TestParseRequest:
    def test_control_ops_parse_minimal(self):
        for op in ("ping", "stats", "shutdown"):
            request = parse_request({"op": op, "id": 3})
            assert request == Request(op=op, id=3)
            assert not request.is_work

    def test_query_parses_fields(self):
        request = parse_request(
            {"op": "query", "id": "q1", "k": 3, "ts": 2, "te": 9,
             "graph": "g", "timeout": 1.5, "edge_ids": False}
        )
        assert request.is_work
        assert request.k == 3
        assert request.ranges == ((2, 9),)
        assert request.graph == "g"
        assert request.timeout == 1.5
        assert request.edge_ids is False

    def test_batch_parses_ranges_in_order(self):
        request = parse_request(
            {"op": "batch", "id": 1, "k": 2, "ranges": [[1, 5], [3, 3]]}
        )
        assert request.ranges == ((1, 5), (3, 3))

    @pytest.mark.parametrize(
        "frame, code",
        [
            ({"id": 1}, "bad-request"),                      # missing op
            ({"op": 5, "id": 1}, "bad-request"),             # non-string op
            ({"op": "frobnicate", "id": 1}, "unknown-op"),
            ({"op": "ping", "id": [1]}, "bad-request"),      # non-scalar id
            ({"op": "query", "id": 1, "ts": 1, "te": 5}, "bad-request"),
            ({"op": "query", "id": 1, "k": True, "ts": 1, "te": 5},
             "bad-request"),                                 # bool-as-int k
            ({"op": "query", "id": 1, "k": 2, "ts": 1.5, "te": 5},
             "bad-request"),                                 # float ts
            ({"op": "query", "id": 1, "k": 2, "ts": 1, "te": 5, "graph": 7},
             "bad-request"),
            ({"op": "query", "id": 1, "k": 2, "ts": 1, "te": 5,
              "timeout": "fast"}, "bad-request"),
            ({"op": "query", "id": 1, "k": 2, "ts": 1, "te": 5,
              "timeout": 0}, "bad-request"),
            ({"op": "query", "id": 1, "k": 2, "ts": 1, "te": 5,
              "edge_ids": 1}, "bad-request"),
            ({"op": "batch", "id": 1, "k": 2}, "bad-request"),
            ({"op": "batch", "id": 1, "k": 2, "ranges": []}, "bad-request"),
            ({"op": "batch", "id": 1, "k": 2, "ranges": [[1]]}, "bad-request"),
            ({"op": "batch", "id": 1, "k": 2, "ranges": [[1, 2.5]]},
             "bad-request"),
            ({"op": "batch", "id": 1, "k": 2, "ranges": [[1, True]]},
             "bad-request"),
        ],
    )
    def test_invalid_frames_map_to_codes(self, frame, code):
        with pytest.raises(ProtocolError) as err:
            parse_request(frame)
        assert err.value.code == code

    def test_semantic_errors_are_not_protocol_errors(self):
        # k=0 and inverted windows are wire-valid; the daemon rejects
        # them against the store with an "invalid" response instead.
        assert parse_request(
            {"op": "query", "id": 1, "k": 0, "ts": 9, "te": 1}
        ).k == 0


class TestParseIngest:
    def test_append_parses_edges_and_token(self):
        request = parse_request(
            {"op": "append", "id": 4, "edges": [["a", "b", 1], [2, 3, 5]],
             "dedupe": "tok", "graph": "g"}
        )
        assert request.is_work
        assert request.edges == (("a", "b", 1), (2, 3, 5))
        assert request.dedupe == "tok"
        assert request.graph == "g"

    def test_flush_parses_minimal(self):
        request = parse_request({"op": "flush", "id": 5, "graph": "g"})
        assert request.is_work
        assert request.edges == ()

    @pytest.mark.parametrize(
        "frame, code",
        [
            ({"op": "append", "id": 1}, "bad-request"),         # no edges
            ({"op": "append", "id": 1, "edges": []}, "bad-request"),
            ({"op": "append", "id": 1, "edges": [["a", "b"]]}, "bad-request"),
            ({"op": "append", "id": 1, "edges": [["a", "b", 1.5]]},
             "bad-request"),                                    # float time
            ({"op": "append", "id": 1, "edges": [["a", "b", True]]},
             "bad-request"),                                    # bool time
            ({"op": "append", "id": 1, "edges": [[None, "b", 1]]},
             "bad-request"),                                    # bad label
            ({"op": "append", "id": 1, "edges": [["a", "b", 1]],
              "dedupe": 7}, "bad-request"),                     # non-str token
        ],
    )
    def test_invalid_append_frames(self, frame, code):
        with pytest.raises(ProtocolError) as err:
            parse_request(frame)
        assert err.value.code == code

    def test_append_edge_limit(self):
        from repro.serve.protocol import MAX_APPEND_EDGES

        frame = {
            "op": "append", "id": 1,
            "edges": [["a", "b", 1]] * (MAX_APPEND_EDGES + 1),
        }
        with pytest.raises(ProtocolError) as err:
            parse_request(frame)
        assert err.value.code == "too-large"

    def test_ack_frames_shape(self):
        from repro.serve.protocol import append_done_frame, flush_done_frame

        assert append_done_frame(9, lsn=4, appended=2) == {
            "id": 9, "ok": True, "done": True, "lsn": 4, "appended": 2,
        }
        assert flush_done_frame(9, lsn=6, applied=3) == {
            "id": 9, "ok": True, "done": True, "lsn": 6, "applied": 3,
        }


def stream_query_raw(port: int, request: dict) -> tuple[list[bytes], dict]:
    """Send one query over a raw socket; ``(core line bytes, done frame)``.

    Core payloads are recovered exactly as the daemon spliced them:
    everything between :func:`core_frame_prefix` and the closing
    ``}\\n`` is the untouched NDJSON line (minus its newline).
    """
    prefix = core_frame_prefix(request["id"]).encode("utf-8")
    cores: list[bytes] = []
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        reader = sock.makefile("rb")
        sock.sendall(json.dumps(request).encode() + b"\n")
        while True:
            line = reader.readline()
            assert line, "daemon hung up mid-stream"
            if line.startswith(prefix):
                cores.append(line[len(prefix) : -2] + b"\n")
                continue
            frame = json.loads(line)
            assert "core" not in frame  # the prefix match is exhaustive
            reader.close()
            return cores, frame


class TestDaemonByteIdentity:
    @pytest.fixture(scope="class")
    def multi_store(self, tmp_path_factory):
        """Two distinct random graphs in one store, keys ``a`` and ``b``."""
        root = tmp_path_factory.mktemp("protocol") / "store"
        store = IndexStore(root)
        graphs = {}
        for name, seed in (("a", 101), ("b", 202)):
            graph = uniform_random_temporal(22, 600, tmax=40, seed=seed)
            store.save_graph(graph, name=name)
            store.save_index(CoreIndex(graph, 2), name=name)
            graphs[name] = graph
        return root, graphs

    def in_process_ndjson(self, graph, k, ts, te, *, edge_ids=True) -> bytes:
        """The NDJSON bytes the serving core writes for this query."""
        buffer = io.StringIO()
        index = CoreIndex(graph, k)
        plan = plan_for_index(
            index, [(ts, te)], sinks=[NDJSONSink(buffer, edge_ids=edge_ids)]
        )
        execute_plan(plan)
        return buffer.getvalue().encode("utf-8")

    def test_streamed_cores_byte_identical(self, start_daemon, multi_store):
        root, graphs = multi_store
        handle = start_daemon(store=root)
        rng = random.Random(31337)
        for trial in range(6):
            name, graph = rng.choice(sorted(graphs.items()))
            k = rng.choice([2, 3])
            a, b = rng.randint(1, graph.tmax), rng.randint(1, graph.tmax)
            ts, te = min(a, b), max(a, b)
            edge_ids = trial % 3 != 2
            cores, done = stream_query_raw(
                handle.port,
                {"op": "query", "id": trial, "k": k, "ts": ts, "te": te,
                 "graph": name, "edge_ids": edge_ids},
            )
            want = self.in_process_ndjson(graph, k, ts, te, edge_ids=edge_ids)
            assert b"".join(cores) == want
            assert done["ok"] is True and done["completed"] is True
            assert done["num_results"] == len(cores)

    def test_counters_match_query_batch(self, start_daemon, multi_store):
        root, graphs = multi_store
        handle = start_daemon(store=root)
        rng = random.Random(55)
        with DaemonClient("127.0.0.1", handle.port) as client:
            for name, graph in sorted(graphs.items()):
                ranges = []
                for _ in range(8):
                    a = rng.randint(1, graph.tmax)
                    b = rng.randint(1, graph.tmax)
                    ranges.append((min(a, b), max(a, b)))
                answers = client.batch(ranges, k=2, graph=name)
                want = CoreIndex(graph, 2).query_batch(ranges)
                assert len(answers) == len(want)
                for answer, result in zip(answers, want):
                    assert tuple(answer["range"]) == result.time_range
                    assert answer["num_results"] == result.num_results
                    assert answer["total_edges"] == result.total_edges

    def test_spot_check_against_seed_oracle(self, start_daemon, multi_store):
        root, graphs = multi_store
        handle = start_daemon(store=root)
        graph = graphs["a"]
        ts, te = 3, graph.tmax - 5
        with DaemonClient("127.0.0.1", handle.port) as client:
            cores, done = client.query(k=2, ts=ts, te=te, graph="a")
        want = enumerate_temporal_kcores_ref(graph, 2, ts, te)
        assert done["num_results"] == want.num_results
        assert done["total_edges"] == want.total_edges
        got = {(tuple(c["tti"]), frozenset(c["edge_ids"])) for c in cores}
        assert got == {(c.tti, frozenset(c.edge_ids)) for c in want.cores}


class TestDaemonMultiChunkStream:
    """A stream spanning many outbox chunks, some frames larger than one."""

    @pytest.fixture(scope="class")
    def wide_store(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("protocol-wide") / "store"
        graph = uniform_random_temporal(30, 12000, tmax=16, seed=7)
        store = IndexStore(root)
        store.save_graph(graph, name="w")
        store.save_index(CoreIndex(graph, 2), name="w")
        return root, graph

    def test_chunked_stream_byte_identical(self, start_daemon, wide_store):
        root, graph = wide_store
        handle = start_daemon(store=root)
        largest = 0
        for rid, (ts, te) in enumerate([(1, graph.tmax), (3, graph.tmax - 2)]):
            buffer = io.StringIO()
            sink = NDJSONSink(buffer)
            execute_plan(plan_for_index(CoreIndex(graph, 2), [(ts, te)], sinks=[sink]))
            want = buffer.getvalue().encode("utf-8")
            cores, done = stream_query_raw(
                handle.port,
                {"op": "query", "id": rid, "k": 2, "ts": ts, "te": te, "graph": "w"},
            )
            frame_sizes = [
                len(core_frame_prefix(rid)) + len(core) + 1 for core in cores
            ]
            assert sum(frame_sizes) > 8 * _CHUNK_BYTES
            largest = max(largest, *frame_sizes)
            assert b"".join(cores) == want
            assert done["ok"] is True and done["completed"] is True
            assert done["num_results"] == len(cores) == sink.num_results
            assert done["total_edges"] == sink.total_edges
        assert largest > _CHUNK_BYTES  # a frame that is a chunk of its own

    @pytest.mark.parametrize("edge_ids", [True, False])
    def test_frames_are_json_dumps_of_the_oracle_cores(
        self, start_daemon, wide_store, edge_ids
    ):
        """Each core frame is ``core_frame_prefix(rid)``, ``json.dumps``
        of the seed oracle's core and ``}``, in the oracle's order.  The
        oracle fixes the cores and their TTIs; within a core, ids may be
        listed in another order, so the expected frame takes the
        streamed order once it holds the oracle's id set."""
        root, graph = wide_store
        rid = f"oracle-{edge_ids}"
        ts, te = 1, graph.tmax
        with socket.create_connection(("127.0.0.1", start_daemon(store=root).port)) as sock:
            reader = sock.makefile("rb")
            sock.sendall(encode_frame(
                {"op": "query", "id": rid, "k": 2, "ts": ts, "te": te,
                 "graph": "w", "edge_ids": edge_ids}
            ))
            lines = iter(reader.readline, b"")
            frames = [next(lines)]
            while b'"core": ' in frames[-1]:
                frames.append(next(lines))
        done = decode_frame(frames.pop())
        want = enumerate_temporal_kcores_ref(graph, 2, ts, te).cores
        assert done["num_results"] == len(frames) == len(want)
        per_start: dict[int, int] = {}
        for frame, core in zip(frames, want):
            expected = {"tti": list(core.tti), "num_edges": len(core.edge_ids)}
            if edge_ids:
                streamed = decode_frame(frame)["core"]["edge_ids"]
                assert sorted(streamed) == sorted(core.edge_ids)
                expected["edge_ids"] = streamed
            line = core_frame_prefix(rid) + json.dumps(expected) + "}\n"
            assert frame == line.encode()
            per_start[core.tti[0]] = per_start.get(core.tti[0], 0) + len(frame)
        # a start time's batch is wider than one outbox chunk
        assert max(per_start.values()) > _CHUNK_BYTES or not edge_ids

    def test_timed_out_stream_delivers_every_counted_core(
        self, start_daemon, wide_store
    ):
        """A deadline abort read by a client that keeps up: the terminal
        frame counts exactly the cores that arrived, and they are a
        byte prefix of the full answer."""
        root, graph = wide_store
        handle = start_daemon(store=root)
        query = {"op": "query", "id": 1, "k": 2, "ts": 1, "te": graph.tmax, "graph": "w"}
        started = time.perf_counter()
        full, done = stream_query_raw(handle.port, query)  # also warms the index
        elapsed = time.perf_counter() - started
        assert done["completed"] is True
        cores, done = stream_query_raw(handle.port, {**query, "timeout": elapsed / 4})
        assert done["ok"] is True and done["completed"] is False
        assert 0 < len(cores) == done["num_results"] < len(full)
        assert done["total_edges"] == sum(json.loads(c)["num_edges"] for c in cores)
        assert b"".join(full).startswith(b"".join(cores))


class _RecordingConnection:
    """Stands in for a daemon connection: records the chunks handed over,
    refusing every one after the first ``accept``."""

    def __init__(self, accept: int | None = None):
        self.chunks: list[bytes] = []
        self.accept = accept

    def send_threadsafe(self, data, deadline=None) -> bool:
        if self.accept is not None and len(self.chunks) >= self.accept:
            return False
        self.chunks.append(data)
        return True


class TestFrameWriterChunks:
    def frames(self, sizes, rid=7) -> list[bytes]:
        return [
            (
                core_frame_prefix(rid)
                + json.dumps({"tti": [1, i], "num_edges": n, "edge_ids": list(range(n))})
                + "}\n"
            ).encode()
            for i, n in enumerate(sizes)
        ]

    @staticmethod
    def write(writer, frames) -> None:
        """Hand ``frames`` over as a renderer does: a view of the first
        bytes of a larger buffer, whose tail holds more lines."""
        data = b"".join(frames)
        writer.write(memoryview(bytearray(data + b'{"stale": 1}\n' * 3))[: len(data)])

    def test_chunks_are_whole_frames_in_order(self):
        conn = _RecordingConnection()
        writer = _FrameWriter(conn)
        frames = self.frames([3, 2000, 1, 40, 0, 15000, 7] * 6)
        for i in range(0, len(frames), 3):  # batches of three frames
            self.write(writer, frames[i : i + 3])
        assert b"".join(conn.chunks) == b"".join(frames)
        for chunk in conn.chunks:
            assert isinstance(chunk, bytes) and chunk.endswith(b"}\n")
            assert len(chunk) <= _CHUNK_BYTES or chunk.count(b"\n") == 1
        assert any(len(chunk) > _CHUNK_BYTES for chunk in conn.chunks)

    def test_each_batch_is_handed_over_at_once(self):
        """Nothing is held across batches: a small batch is one chunk,
        handed over before the next batch arrives."""
        conn = _RecordingConnection()
        writer = _FrameWriter(conn)
        self.write(writer, self.frames([1, 2], "q"))
        assert conn.chunks == [b"".join(self.frames([1, 2], "q"))]
        self.write(writer, self.frames([5], "q"))
        assert conn.chunks[1:] == [b"".join(self.frames([5], "q"))]

    def test_a_large_batch_is_cut_between_frames(self):
        conn = _RecordingConnection()
        writer = _FrameWriter(conn)
        frames = self.frames([900] * 40)  # ~4.6 KiB a frame, ~180 KiB in all
        self.write(writer, frames)
        assert len(conn.chunks) > 2
        assert b"".join(conn.chunks) == b"".join(frames)
        assert all(
            chunk.endswith(b"}\n") and len(chunk) <= _CHUNK_BYTES
            for chunk in conn.chunks
        )

    def test_nothing_follows_a_dropped_chunk(self):
        conn = _RecordingConnection(accept=2)
        writer = _FrameWriter(conn)
        frames = self.frames([9000] * 30)
        for frame in frames:
            self.write(writer, [frame])
        assert len(conn.chunks) == 2
        assert b"".join(frames).startswith(b"".join(conn.chunks))

    def test_bridge_sink_renders_json_dumps_frames(self):
        """The daemon's sink renders each core as the prefix, its
        ``json.dumps`` and ``}``, exact at the int64 extremes."""
        int64_min, int64_max = -(2**63), 2**63 - 1
        run = [int64_min, int64_max, 0, *range(7, 70_000, 7)]
        ends = [int64_min, -1, int64_max]
        lens = [2, 3, len(run)]  # the last frame is wider than a chunk
        for edge_ids in (True, False):
            conn = _RecordingConnection()
            sink = _BridgeSink(conn, "b", edge_ids=edge_ids)
            sink.emit(int64_min, *(np.array(c, dtype=np.int64) for c in (ends, lens, run)))
            want = b""
            for te, n in zip(ends, lens):
                core = {"tti": [int64_min, te], "num_edges": n}
                if edge_ids:
                    core["edge_ids"] = run[:n]
                want += (core_frame_prefix("b") + json.dumps(core) + "}\n").encode()
            assert b"".join(conn.chunks) == want
            assert all(
                len(chunk) <= _CHUNK_BYTES or chunk.count(b"\n") == 1
                for chunk in conn.chunks
            )
            assert len(conn.chunks) == (2 if edge_ids else 1)


class _StallingWriter:
    """A stream writer whose ``drain`` waits until ``gate`` is set."""

    transport = None

    def __init__(self):
        self.data = bytearray()
        self.gate = asyncio.Event()

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        await self.gate.wait()

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


class TestOutbox:
    """The connection outbox seen from the execution thread: bounded,
    ordered, and bounded in waiting by the request's deadline."""

    def run(self, scenario):
        async def main():
            writer = _StallingWriter()
            conn = _Connection(None, writer, 2)
            try:
                await asyncio.wait_for(
                    scenario(conn, writer, asyncio.get_running_loop()), 10
                )
            except BaseException:
                conn.mark_gone()  # release producers still waiting for a slot
                raise
            finally:
                writer.gate.set()
                await conn.close()

        asyncio.run(main())

    @staticmethod
    async def fill(conn, loop):
        """The writer stalls on "0"; "1" and "2" take both slots."""
        for data in (b"0\n", b"1\n", b"2\n"):
            assert await loop.run_in_executor(None, conn.send_threadsafe, data)
            await asyncio.sleep(0.05)

    def test_full_outbox_blocks_the_producer_until_the_reader_drains(self):
        async def scenario(conn, writer, loop):
            sent = []

            def produce():
                for i in range(6):
                    sent.append(conn.send_threadsafe(b"%d\n" % i))

            producing = loop.run_in_executor(None, produce)
            await asyncio.sleep(0.3)
            # "0" is with the stalled writer, "1" and "2" fill both slots.
            assert (bytes(writer.data), len(conn.outbox), len(sent)) == (
                b"0\n", 2, 3)
            writer.gate.set()
            await producing
            await asyncio.sleep(0.05)
            assert sent == [True] * 6
            assert bytes(writer.data) == b"0\n1\n2\n3\n4\n5\n"

        self.run(scenario)

    def test_expired_deadline_drops_instead_of_waiting(self):
        async def scenario(conn, writer, loop):
            await self.fill(conn, loop)
            dropped = await loop.run_in_executor(
                None, conn.send_threadsafe, b"3\n", Deadline(0.1)
            )
            assert dropped is False
            assert len(conn.outbox) == 2

        self.run(scenario)

    def test_expired_deadline_still_queues_into_a_free_slot(self):
        """The deadline bounds waiting, not delivery: a frame the walk
        produced before its abort reaches a reader that keeps up."""
        async def scenario(conn, writer, loop):
            writer.gate.set()
            queued = await loop.run_in_executor(
                None, conn.send_threadsafe, b"0\n", Deadline(0.0)
            )
            assert queued is True
            await asyncio.sleep(0.05)
            assert bytes(writer.data) == b"0\n"

        self.run(scenario)

    def test_loop_side_frames_wait_for_a_slot_in_order(self):
        async def scenario(conn, writer, loop):
            await self.fill(conn, loop)
            control = asyncio.ensure_future(conn.send({"id": 9, "ok": True}))
            await asyncio.sleep(0.05)
            assert not control.done()
            writer.gate.set()
            await control
            await asyncio.sleep(0.05)
            assert bytes(writer.data).splitlines() == [
                b"0", b"1", b"2", encode_frame({"id": 9, "ok": True}).rstrip()]

        self.run(scenario)

    def test_gone_peer_unblocks_a_waiting_producer(self):
        async def scenario(conn, writer, loop):
            await self.fill(conn, loop)
            blocked = loop.run_in_executor(None, conn.send_threadsafe, b"3\n")
            await asyncio.sleep(0.1)
            assert not blocked.done()
            conn.mark_gone()
            await asyncio.wait_for(blocked, 5)  # freed, whatever it reports
            dropped = await loop.run_in_executor(
                None, conn.send_threadsafe, b"4\n"
            )
            assert dropped is False

        self.run(scenario)


    def test_free_slots_need_no_event_loop(self):
        """With the event loop blocked inside a callback, the producer
        queues ``depth`` chunks without waiting, and the next one waits
        for the sender to free a slot."""
        async def scenario(conn, writer, loop):
            writer.gate.set()
            queued = threading.Event()
            third_sent = threading.Event()
            seen = {}

            def produce():
                assert conn.send_threadsafe(b"0\n") and conn.send_threadsafe(b"1\n")
                queued.set()
                assert conn.send_threadsafe(b"2\n")
                third_sent.set()

            def block_the_loop():
                seen["queued"] = queued.wait(5)
                time.sleep(0.2)
                seen["third_sent"] = third_sent.is_set()

            producing = loop.run_in_executor(None, produce)
            loop.call_soon(block_the_loop)
            await producing
            await asyncio.sleep(0.05)
            assert seen == {"queued": True, "third_sent": False}
            assert bytes(writer.data) == b"0\n1\n2\n"

        self.run(scenario)

    def test_concurrent_producers_lose_no_slot(self):
        """Four producer threads and loop-side sends share two slots with
        a fast thread switch: every chunk arrives once, each producer's
        in order, and every slot is free again at the end."""
        async def scenario(conn, writer, loop):
            writer.gate.set()
            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                def produce(name):
                    for i in range(300):
                        assert conn.send_threadsafe(b"%s%d\n" % (name, i))

                names = (b"a", b"b", b"c", b"d")
                producers = [loop.run_in_executor(None, produce, name) for name in names]
                for i in range(50):
                    await conn.send({"id": i})
                await asyncio.gather(*producers)
            finally:
                sys.setswitchinterval(switch)
            while conn.outbox:
                await asyncio.sleep(0.01)
            lines = bytes(writer.data).splitlines()
            assert len(lines) == 4 * 300 + 50
            for name in names:
                mine = [line for line in lines if line[:1] == name]
                assert mine == [b"%s%d" % (name, i) for i in range(300)]
            assert conn._free_slots == 2

        self.run(scenario)


class TestClientFraming:
    def test_recv_reassembles_frames_larger_than_the_request_limit(self):
        """Response frames are not size-bounded server-side — a single
        core's ``edge_ids`` list can push a frame past
        ``MAX_LINE_BYTES`` — so the client must reassemble a long line
        across bounded reads instead of returning it truncated (which
        used to surface as a confusing ``json.loads`` error)."""
        import threading

        big = {
            "id": 7,
            "core": {
                "tti": [1, 2],
                "num_edges": 1,
                "edge_ids": list(range(MAX_LINE_BYTES // 4)),
            },
        }
        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]
        assert len(encode_frame(big)) > MAX_LINE_BYTES

        def serve() -> None:
            conn, _addr = server.accept()
            with conn:
                conn.sendall(encode_frame(big))

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            client = DaemonClient("127.0.0.1", port)
            try:
                assert client.recv() == big
                with pytest.raises(DaemonError, match="closed"):
                    client.recv()
            finally:
                client.close()
        finally:
            thread.join()
            server.close()
