"""The serving daemon — one socket in front of the whole stack.

:class:`ServingDaemon` is a long-lived asyncio process that attaches an
:class:`~repro.store.index_store.IndexStore`, warms a
:class:`~repro.core.index.CoreIndexRegistry` from it, and answers the
newline-delimited JSON protocol of
:mod:`repro.serve.protocol` (plus HTTP ``GET /metrics`` on the same
port, sniffed per connection).

Layout — three kinds of task around one execution lane:

* **per-connection reader** — parses request lines.  Control ops
  (``ping``/``stats``/``shutdown``) answer inline from the event loop;
  work ops (``query``/``batch``) go through **admission control**: a
  bounded :class:`asyncio.Queue` whose overflow is answered with an
  ``overloaded`` error frame instead of unbounded buffering.
* **per-connection sender** — the only writer of that socket.  Frames
  travel through a *bounded* outbox, so a slow reader backpressures the
  producer (an enumeration streaming cores blocks on the outbox rather
  than buffering the result set in memory) — but only within the
  request's time budget: past its deadline the walk aborts, and the
  terminal frame waits at most ``terminal_grace`` longer before the
  daemon hangs up, so one stalled reader cannot pin the execution lane.
* **one drain task** feeding a single execution thread, so requests
  execute one at a time in admission order.

Cancellation rides the executor's existing deadline machinery: each
request's :class:`~repro.obs.timing.Deadline` carries the connection's
``gone`` event as its ``cancelled`` probe, so a client disconnect
aborts the walk at the next per-start-time poll — and the new
prep-skip in the executor means even the un-walked windows stop
paying index cuts or Algorithm-2 runs.

Durable ingestion (``append``/``flush``) rides the same lane through one
:class:`~repro.core.maintenance.StreamingCoreService` per store key.

Indexes the daemon builds (a queried ``k`` the store lacks) are
committed to the store by the registry before they are served, so the
next boot warms instead of recomputing, however this process ends.

Graceful drain (SIGTERM, SIGINT, or the ``shutdown`` op): stop
accepting connections, reject new work with ``draining``, finish every
admitted request in FIFO order, seal the ingestion logs, then give open
connections a short grace to hang up (late work still gets
``draining``) before closing them.  See ``docs/DAEMON.md``.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core import native
from repro.core.index import CoreIndexRegistry
from repro.core.maintenance import StreamingCoreService
from repro.errors import InvalidParameterError, ReproError, StoreError
from repro.obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    get_registry,
    next_instance,
)
from repro.obs.timing import Deadline, now
from repro.serve.executor import execute_plan
from repro.serve.planner import plan_for_index
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    Request,
    append_done_frame,
    batch_done_frame,
    core_frame_prefix,
    decode_frame,
    done_frame,
    encode_frame,
    error_frame,
    flush_done_frame,
    ok_frame,
    parse_request,
)
from repro.serve.sinks import NDJSONSink
from repro.store.index_store import IndexStore

_STOP = object()  # drain-task sentinel, queued behind all admitted work

#: Store keys an ``append`` may create: plain path-component names only
#: (no separators, no traversal) — the wire must not name arbitrary
#: filesystem locations.
_SAFE_KEY = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class _ReadOnlyError(ReproError):
    """Durable ingestion is disabled; answered with a ``read-only`` frame."""


#: Granularity of a bounded outbox put from the execution thread — how
#: long each wait slice lasts before the peer's liveness and the
#: request's deadline are re-checked.
_PUT_WAIT_SECONDS = 0.05

#: How long a finished drain keeps open connections reading before it
#: closes them: a request that crossed the ``shutdown`` ack on the wire
#: is still answered ``draining`` instead of meeting a closed socket.
#: A client that hangs up ends the wait early.
_CLOSE_GRACE_SECONDS = 1.0

#: Size of one outbox entry of a streamed query, in characters (bytes:
#: frames are ASCII) — the unit ``--outbox-depth`` counts.
_CHUNK_CHARS = 64 * 1024


class _FrameWriter:
    """Pseudo text stream turning NDJSON lines into ``core`` frames.

    :class:`~repro.serve.sinks.NDJSONSink` writes one start time's
    batch at a time: text holding many ``\\n``-terminated lines, one
    per core.  This splices each line *verbatim* (byte-identical to
    in-process NDJSON output) into a core frame for one request id and
    hands the batch's frames to the connection outbox at once, in
    chunks of at most :data:`_CHUNK_CHARS` characters cut only between
    frames — one outbox put per chunk, not per core; a single frame
    larger than a chunk travels as its own chunk.  Nothing is held
    across batches.  Called from the execution thread; the outbox put
    blocks when the client reads slowly, which is exactly the
    backpressure the walk should feel — but only up to the request's
    ``deadline``: past it a chunk that finds the outbox full is
    dropped, and so is everything after it, so the walk aborts at its
    next deadline poll instead of letting a stalled reader pin the
    execution lane, and the stream still ends on a whole frame.
    """

    def __init__(self, conn: "_Connection", rid, deadline: Deadline | None = None):
        self._conn = conn
        self._prefix = core_frame_prefix(rid)
        self._deadline = deadline
        self._dropped = False

    def write(self, text: str) -> None:
        prefix = self._prefix
        frames = prefix + text[:-1].replace("\n", "}\n" + prefix) + "}\n"
        send = self._conn.send_text_threadsafe
        start, size = 0, len(frames)
        while start < size and not self._dropped:
            stop = frames.rfind("\n", start, start + _CHUNK_CHARS) + 1
            if stop <= start:
                stop = frames.index("\n", start) + 1
            self._dropped = not send(frames[start:stop], self._deadline)
            start = stop


class _BridgeSink(NDJSONSink):
    """The async-bridge sink: stream a query's cores over the socket."""

    def __init__(
        self,
        conn: "_Connection",
        rid,
        *,
        edge_ids: bool = True,
        deadline: Deadline | None = None,
    ):
        super().__init__(_FrameWriter(conn, rid, deadline), edge_ids=edge_ids)


class _Connection:
    """One protocol connection: reader state, outbox, liveness flag."""

    def __init__(
        self,
        daemon: "ServingDaemon",
        writer: asyncio.StreamWriter,
        outbox_depth: int,
    ):
        self.daemon = daemon
        self.writer = writer
        #: The ``_handle_conn`` task reading this connection.
        self.handler = asyncio.current_task()
        self.loop = asyncio.get_running_loop()
        self.outbox: asyncio.Queue = asyncio.Queue(maxsize=outbox_depth)
        #: Set once the peer is unreachable (reset, broken pipe) — the
        #: ``cancelled`` probe of every in-flight deadline on this
        #: connection, and the drop switch for further sends.
        self.gone = asyncio.Event()
        self.pending = 0  # admitted jobs not yet finished
        self._idle = asyncio.Event()
        self._idle.set()
        self.sender_task = asyncio.ensure_future(self._sender())

    # -- sending ---------------------------------------------------------

    async def send(self, frame: dict) -> None:
        """Queue a frame from the event loop (control responses)."""
        if not self.gone.is_set():
            await self.outbox.put(encode_frame(frame).decode("utf-8"))

    def send_text_threadsafe(
        self, text: str, deadline: Deadline | None = None
    ) -> bool:
        """Queue raw frame text from the execution thread.

        A full outbox blocks the caller (slow-reader backpressure), but
        in bounded slices: between waits the peer's liveness and the
        request's ``deadline`` are re-checked, so a stalled reader can
        hold the execution lane only until the request's time budget
        runs out.  The deadline bounds only the waiting: a frame that
        finds room within one slice is queued even past it, so a
        reader that keeps up gets every frame the walk produced (and
        counted) before its abort.  Returns ``True`` once the frame is
        queued, ``False`` when it was dropped (peer gone, deadline
        expired on a full outbox, or the loop already torn down)."""
        while True:
            if self.gone.is_set():
                return False
            try:
                outcome = asyncio.run_coroutine_threadsafe(
                    self._offer(text), self.loop
                ).result()
            except RuntimeError:  # loop already closed (daemon teardown)
                return False
            if outcome is not None:
                return outcome
            if deadline is not None and deadline.expired():
                return False

    def send_frame_threadsafe(
        self, frame: dict, deadline: Deadline | None = None
    ) -> bool:
        return self.send_text_threadsafe(
            encode_frame(frame).decode("utf-8"), deadline
        )

    async def _offer(self, text: str) -> bool | None:
        """One bounded outbox put: ``True`` queued, ``False`` dropped
        (peer gone), ``None`` still full — the caller re-checks its
        deadline and retries."""
        if self.gone.is_set():
            return False
        try:
            self.outbox.put_nowait(text)
            return True
        except asyncio.QueueFull:
            pass
        try:
            await asyncio.wait_for(self.outbox.put(text), _PUT_WAIT_SECONDS)
            return True
        except asyncio.TimeoutError:
            return None

    # -- job accounting --------------------------------------------------

    def job_started(self) -> None:
        self.pending += 1
        self._idle.clear()

    def _job_finished(self) -> None:
        self.pending -= 1
        if self.pending == 0:
            self._idle.set()

    def job_finished_threadsafe(self) -> None:
        self.loop.call_soon_threadsafe(self._job_finished)

    async def wait_idle(self) -> None:
        """Wait until every admitted job finished and the outbox drained."""
        await self._idle.wait()
        while not (self.outbox.empty() or self.gone.is_set()):
            await asyncio.sleep(0.01)

    # -- teardown --------------------------------------------------------

    async def _sender(self) -> None:
        try:
            while True:
                text = await self.outbox.get()
                if text is None:
                    break
                self.writer.write(text.encode("utf-8"))
                await self.writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            self.mark_gone()

    def mark_gone(self) -> None:
        """Flag the peer unreachable, unblock producers *and* the sender."""
        if self.gone.is_set():
            return
        self.gone.set()
        while True:  # free a producer blocked on a full outbox
            try:
                self.outbox.get_nowait()
            except asyncio.QueueEmpty:
                break
        # Wake a sender parked on the now-empty outbox: close() skips
        # its own sentinel once ``gone`` is set, so without this the
        # sender would wait forever and close() would await it forever
        # (leaking the handler and hanging the SIGTERM drain).  When
        # the sender already exited the sentinel just stays queued,
        # which is harmless.
        self.outbox.put_nowait(None)

    def abort_threadsafe(self) -> None:
        """Give up on this peer from the execution thread: mark it gone
        and reset the transport, so the connection's reader unblocks
        and the client sees a hangup rather than silence."""
        def _abort() -> None:
            self.mark_gone()
            transport = self.writer.transport
            if transport is not None:
                transport.abort()

        try:
            self.loop.call_soon_threadsafe(_abort)
        except RuntimeError:  # pragma: no cover - loop torn down
            pass

    async def close(self) -> None:
        # The sender's own teardown sets ``gone`` after a normal
        # sentinel exit, so sample the peer's state *now*: only a peer
        # already known unreachable gets the abortive path below.
        peer_gone = self.gone.is_set()
        if peer_gone:
            # mark_gone() already queued the stop sentinel; the cancel
            # covers the one remaining way the sender can hang — blocked
            # in drain() against a peer that stopped reading.
            self.sender_task.cancel()
        else:
            try:
                self.outbox.put_nowait(None)
            except asyncio.QueueFull:
                peer_gone = True
                self.mark_gone()
                self.sender_task.cancel()
        try:
            await self.sender_task
        except asyncio.CancelledError:  # pragma: no cover - close cancelled
            pass
        try:
            if peer_gone and self.writer.transport is not None:
                # Don't wait for buffered frames to flush to a peer that
                # is gone (or refused to read them): reset instead, or
                # wait_closed() below could block the drain forever.
                self.writer.transport.abort()
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class _Job:
    """One admitted work request, queued for the execution lane."""

    __slots__ = ("request", "conn", "admitted_at")

    def __init__(self, request: Request, conn: _Connection):
        self.request = request
        self.conn = conn
        self.admitted_at = now()


class ServingDaemon:
    """The long-lived serving process behind ``repro serve``.

    ``queue_depth`` bounds admission; ``outbox_depth`` bounds each
    connection's send buffer, in entries: control frames, or chunks of
    up to :data:`_CHUNK_CHARS` of a query's core frames.  ``default_timeout``
    caps requests that do not bring their own ``timeout``.
    ``terminal_grace`` is how long past a request's expired deadline
    the daemon keeps offering the terminal frame to a full outbox
    before hanging up on the client (a request's deadline bounds the
    lane's total occupancy, delivery backpressure included).
    ``warm=True`` preloads every stored index at boot.  ``port=0``
    binds an ephemeral port — :attr:`port` holds the real one after
    :meth:`start`.  ``max_lag`` is a freshness budget in seconds: a
    query against a key whose oldest unflushed append is older than
    the budget triggers a flush first (``None`` flushes only on
    request).
    """

    def __init__(
        self,
        store: IndexStore | str | os.PathLike,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_depth: int = 64,
        outbox_depth: int = 256,
        capacity: int = 16,
        default_timeout: float | None = None,
        terminal_grace: float = 5.0,
        warm: bool = True,
        max_lag: float | None = None,
    ):
        if max_lag is not None and max_lag < 0:
            raise InvalidParameterError("max_lag must be non-negative")
        self.store = store if isinstance(store, IndexStore) else IndexStore(store)
        self.max_lag = max_lag
        self.host = host
        self.port = port
        self.queue_depth = queue_depth
        self.outbox_depth = outbox_depth
        self.default_timeout = default_timeout
        self.terminal_grace = terminal_grace
        self.warm = warm
        self.registry = CoreIndexRegistry(capacity=capacity, store=self.store)
        self._graphs: dict[str, object] = {}
        self._graph_lock = threading.Lock()
        #: One streaming service per ingesting key (execution lane
        #: only).  ``_read_only`` holds the reason ingestion was
        #: disabled (a WAL disk error), ``None`` while writable.
        self._streams: dict[str, StreamingCoreService] = {}
        self._read_only: str | None = None
        self._conns: set[_Connection] = set()
        self._queue: asyncio.Queue | None = None
        self._server: asyncio.base_events.Server | None = None
        self._drain_task: asyncio.Task | None = None
        self._exec = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-daemon-exec"
        )
        self._draining = False
        self._stopped: asyncio.Event | None = None

        m = get_registry()
        self.instance = next_instance("daemon")
        inst = self.instance
        self._c_accepted = m.counter(
            "repro_daemon_accepted_total",
            "Work requests admitted to the queue",
            ("daemon",),
        ).labels(inst)
        self._c_completed = m.counter(
            "repro_daemon_completed_total",
            "Admitted requests that produced a terminal ok frame",
            ("daemon",),
        ).labels(inst)
        self._c_cancelled = m.counter(
            "repro_daemon_cancelled_total",
            "Admitted requests dropped because the client went away",
            ("daemon",),
        ).labels(inst)
        self._c_failed = m.counter(
            "repro_daemon_failed_total",
            "Admitted requests that ended in an error frame",
            ("daemon",),
        ).labels(inst)
        self._rejected = m.counter(
            "repro_daemon_rejected_total",
            "Requests refused before admission, by reason",
            ("daemon", "reason"),
        )
        self._g_depth = m.gauge(
            "repro_daemon_queue_depth",
            "Admitted requests waiting for the execution lane",
            ("daemon",),
        ).labels(inst)
        self._g_conns = m.gauge(
            "repro_daemon_connections",
            "Open protocol connections",
            ("daemon",),
        ).labels(inst)
        self._g_read_only = m.gauge(
            "repro_daemon_read_only",
            "1 while durable ingestion is disabled after a WAL disk error",
            ("daemon",),
        ).labels(inst)
        self._c_appended = m.counter(
            "repro_daemon_appended_edges_total",
            "Edge events durably acknowledged",
            ("daemon",),
        ).labels(inst)
        self._c_flushes = m.counter(
            "repro_daemon_flushes_total",
            "Flush requests that advanced a snapshot",
            ("daemon",),
        ).labels(inst)
        self._c_incremental_folds = m.counter(
            "repro_daemon_incremental_folds_total",
            "Flushes served by an incremental delta-fold",
            ("daemon",),
        ).labels(inst)
        self._c_full_rebuilds = m.counter(
            "repro_daemon_full_rebuilds_total",
            "Flushes served by a full snapshot rebuild",
            ("daemon",),
        ).labels(inst)
        self._c_lag_flushes = m.counter(
            "repro_daemon_lag_flushes_total",
            "Flushes triggered on the query path by the max_lag budget",
            ("daemon",),
        ).labels(inst)
        self._h_request_seconds = m.histogram(
            "repro_daemon_request_seconds",
            "Admission-to-terminal-frame latency, by op",
            ("daemon", "op"),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Load the C kernels, warm the store, bind the socket, start the drain task.

        The kernels load first, so a host that cannot compile them fails
        here with :class:`~repro.errors.KernelBuildError` (the
        compiler's stderr), before anything is bound or warmed.
        """
        native.library()
        if self.warm:
            await asyncio.get_running_loop().run_in_executor(
                self._exec, self._boot_warm
            )
        self._queue = asyncio.Queue(maxsize=self.queue_depth)
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.begin_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        self._drain_task = asyncio.ensure_future(self._drain_requests())

    async def run(self, *, announce: bool = False) -> int:
        """Start, optionally announce readiness on stdout, serve until
        drained; the ``repro serve`` entry point."""
        await self.start()
        if announce:
            print(
                json.dumps(
                    {
                        "event": "ready",
                        "host": self.host,
                        "port": self.port,
                        "pid": os.getpid(),
                    }
                ),
                flush=True,
            )
        await self.wait_stopped()
        return 0

    def begin_shutdown(self) -> None:
        """Start the graceful drain; idempotent, loop-thread only."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        # The sentinel queues *behind* every admitted job (FIFO), so
        # in-flight work finishes before the lane shuts down; admission
        # is already closed, so the put always lands.
        asyncio.ensure_future(self._queue.put(_STOP))

    async def wait_stopped(self) -> None:
        """Wait for the drain to finish, then tear everything down."""
        await self._stopped.wait()
        await self._drain_task
        # Seal the ingestion logs on the lane's own thread (appends ran
        # there, so this orders after the last acknowledged write).
        await asyncio.get_running_loop().run_in_executor(
            self._exec, self._close_wals
        )
        handlers = {conn.handler for conn in self._conns}
        if handlers:
            await asyncio.wait(handlers, timeout=_CLOSE_GRACE_SECONDS)
        for conn in list(self._conns):
            await conn.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._exec.shutdown(wait=True)

    async def __aenter__(self) -> "ServingDaemon":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        self.begin_shutdown()
        await self.wait_stopped()

    # ------------------------------------------------------------------
    # Store plumbing (execution thread)
    # ------------------------------------------------------------------

    def _boot_warm(self) -> None:
        for key in self.store.keys():
            graph = self._graph(key)
            ks = self.store.stored_ks(key)
            if ks:
                self.registry.get_many(graph, ks)

    def _graph(self, key: str | None):
        key = self.store.only_key(key)
        with self._graph_lock:
            graph = self._graphs.get(key)
            if graph is None:
                graph = self.store.load_graph(key)
                self._graphs[key] = graph
        return graph

    # ------------------------------------------------------------------
    # Connection handling (event loop)
    # ------------------------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            first = await reader.readline()
        except (ConnectionError, OSError):
            writer.close()
            return
        except ValueError:  # oversized first line — answer and hang up
            self._rejected.labels(self.instance, "protocol").inc()
            try:
                writer.write(
                    encode_frame(
                        error_frame(
                            None,
                            "too-large",
                            f"request line exceeded {MAX_LINE_BYTES} bytes",
                        )
                    )
                )
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        if first.startswith((b"GET ", b"HEAD ")):
            await self._serve_http(first, reader, writer)
            return
        conn = _Connection(self, writer, self.outbox_depth)
        self._conns.add(conn)
        self._g_conns.set(len(self._conns))
        try:
            line = first
            while line:
                await self._handle_line(conn, line)
                if conn.gone.is_set():
                    break
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line overran the reader limit: the boundary is
                    # lost, report and hang up.
                    self._rejected.labels(self.instance, "protocol").inc()
                    await conn.send(
                        error_frame(
                            None,
                            "too-large",
                            f"request line exceeded {MAX_LINE_BYTES} bytes",
                        )
                    )
                    break
            # EOF (or give-up): let admitted jobs finish and the outbox
            # flush before closing — a half-closed client still gets
            # its answers.
            await conn.wait_idle()
        except (ConnectionError, OSError):
            conn.mark_gone()
        finally:
            if conn.pending:
                # Jobs still queued or running for a dead connection:
                # flag it so they cancel instead of blocking the lane.
                conn.mark_gone()
            await conn.close()
            self._conns.discard(conn)
            self._g_conns.set(len(self._conns))

    async def _handle_line(self, conn: _Connection, line: bytes) -> None:
        if not line.strip():
            return
        try:
            request = parse_request(decode_frame(line))
        except ProtocolError as exc:
            self._rejected.labels(self.instance, "protocol").inc()
            await conn.send(error_frame(None, exc.code, str(exc)))
            return
        if not request.is_work:
            await self._handle_control(conn, request)
            return
        if self._draining:
            self._rejected.labels(self.instance, "draining").inc()
            await conn.send(
                error_frame(request.id, "draining", "daemon is shutting down")
            )
            return
        job = _Job(request, conn)
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self._rejected.labels(self.instance, "overloaded").inc()
            await conn.send(
                error_frame(
                    request.id,
                    "overloaded",
                    f"request queue is full (depth {self.queue_depth}); back off",
                )
            )
            return
        conn.job_started()
        self._c_accepted.inc()
        self._g_depth.set(self._queue.qsize())

    async def _handle_control(self, conn: _Connection, request: Request) -> None:
        if request.op == "ping":
            await conn.send(ok_frame(request.id, pong=True))
        elif request.op == "stats":
            # stats() scans the store on disk (keys + manifests); keep
            # that I/O off the loop thread — and off the execution lane,
            # so stats stay answerable while a long query runs.
            payload = await asyncio.get_running_loop().run_in_executor(
                None, self.stats
            )
            await conn.send(ok_frame(request.id, stats=payload))
        elif request.op == "shutdown":
            await conn.send(ok_frame(request.id, draining=True))
            self.begin_shutdown()

    async def _serve_http(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Answer one HTTP/1.0 request — the ``/metrics`` endpoint."""
        try:
            while True:  # drain request headers
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
        except (ValueError, ConnectionError, OSError):
            pass
        parts = first.decode("latin-1").split()
        path = parts[1].split("?")[0] if len(parts) > 1 else "/"
        if path == "/metrics":
            status, ctype = "200 OK", PROMETHEUS_CONTENT_TYPE
            body = get_registry().render_prometheus().encode("utf-8")
        elif path in ("/health", "/ping"):
            status, ctype = "200 OK", "text/plain; charset=utf-8"
            body = b"ok\n"
        else:
            status, ctype = "404 Not Found", "text/plain; charset=utf-8"
            body = b"not found (try /metrics)\n"
        head = (
            f"HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    # ------------------------------------------------------------------
    # The execution lane
    # ------------------------------------------------------------------

    async def _drain_requests(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            if job is _STOP:
                break
            self._g_depth.set(self._queue.qsize())
            await loop.run_in_executor(self._exec, self._run_job, job)
        self._stopped.set()

    def _run_job(self, job: _Job) -> None:
        """Execute one admitted request; runs in the execution thread.

        Every admitted job ends in exactly one outcome counter:
        ``completed`` (terminal ok frame), ``failed`` (error frame) or
        ``cancelled`` (client gone — nothing to answer), so
        ``accepted == completed + cancelled + failed`` always
        reconciles.
        """
        request, conn = job.request, job.conn
        try:
            if conn.gone.is_set():
                self._c_cancelled.inc()
                return
            deadline = Deadline(
                request.timeout
                if request.timeout is not None
                else self.default_timeout,
                cancelled=conn.gone.is_set,
            )
            try:
                frame = self._answer(request, conn, deadline)
            except _ReadOnlyError as exc:
                self._c_failed.inc()
                self._send_terminal(
                    conn, error_frame(request.id, "read-only", str(exc)), deadline
                )
                return
            except ReproError as exc:
                self._c_failed.inc()
                self._send_terminal(
                    conn, error_frame(request.id, "invalid", str(exc)), deadline
                )
                return
            except Exception as exc:  # noqa: BLE001 - the lane must survive
                self._c_failed.inc()
                self._send_terminal(
                    conn,
                    error_frame(
                        request.id, "internal", f"{type(exc).__name__}: {exc}"
                    ),
                    deadline,
                )
                return
            if conn.gone.is_set():
                self._c_cancelled.inc()
                return
            # Count before queuing: a client that reads its terminal
            # frame and immediately asks for stats must see the request
            # already counted.
            self._c_completed.inc()
            self._send_terminal(conn, frame, deadline)
        finally:
            self._h_request_seconds.labels(self.instance, request.op).observe(
                now() - job.admitted_at
            )
            conn.job_finished_threadsafe()

    def _send_terminal(
        self, conn: _Connection, frame: dict, deadline: Deadline
    ) -> bool:
        """Deliver a request's terminal frame from the execution thread.

        The put feels backpressure like any other frame, but never past
        the request's time budget: the client gets until the deadline
        plus :attr:`terminal_grace` to drain one outbox slot, after
        which the daemon hangs up on it (a reader that will not even
        take the abort notice is indistinguishable from a dead one) so
        the lane can move on.  Requests without a timeout keep pure
        backpressure.  The caller counts the outcome *before* this runs
        (delivery does not change what the request produced); returns
        whether the frame was queued."""
        grace = Deadline(
            None
            if deadline.remaining is None
            else deadline.remaining + self.terminal_grace,
            cancelled=conn.gone.is_set,
        )
        if conn.send_frame_threadsafe(frame, deadline=grace):
            return True
        if not conn.gone.is_set():
            conn.abort_threadsafe()
        return False

    def _answer(
        self, request: Request, conn: _Connection, deadline: Deadline
    ) -> dict:
        """Resolve, plan and execute one work request; the terminal frame."""
        if request.op == "append":
            return self._answer_append(request)
        if request.op == "flush":
            return self._answer_flush(request)
        self._maybe_flush_for_lag(request.graph)
        graph = self._graph(request.graph)
        index = self.registry.get(graph, request.k)
        ranges = list(request.ranges)
        sinks = None
        if request.op == "query":
            sinks = [
                _BridgeSink(
                    conn,
                    request.id,
                    edge_ids=request.edge_ids,
                    deadline=deadline,
                )
            ]
        plan = plan_for_index(index, ranges, sinks=sinks)
        results = execute_plan(plan, registry=self.registry, deadline=deadline)
        if request.op == "query":
            result = results[0]
            return done_frame(
                request.id,
                num_results=result.num_results,
                total_edges=result.total_edges,
                completed=result.completed,
            )
        return batch_done_frame(
            request.id,
            [
                {
                    "range": [ts, te],
                    "num_results": result.num_results,
                    "total_edges": result.total_edges,
                    "completed": result.completed,
                }
                for (ts, te), result in zip(ranges, results)
            ],
        )

    # ------------------------------------------------------------------
    # Durable ingestion (execution thread)
    # ------------------------------------------------------------------

    def _ingest_key(self, requested: str | None) -> str:
        """Resolve the store key an ``append``/``flush`` targets.

        An explicit key may name a graph that does not exist yet — that
        is how a fresh stream starts (WAL first, snapshot on flush) —
        but only with a plain path-component name; the wire must never
        choose arbitrary filesystem paths.  Without an explicit key the
        store must hold exactly one graph, as for queries.
        """
        if requested is None:
            return self.store.only_key(None)
        if not _SAFE_KEY.match(requested):
            raise StoreError(
                f"invalid store key {requested!r}: keys are plain names "
                f"(letters, digits, '.', '_', '-')"
            )
        return requested

    def _stream(self, key: str) -> StreamingCoreService:
        """The key's streaming service, restored on first use (never at
        boot) from its snapshot and WAL, maintaining the stored ``k``
        values — none for a key with no snapshot, a graph-only stream."""
        service = self._streams.get(key)
        if service is None:
            ks = self.store.stored_ks(key) if key in self.store.keys() else ()
            service = StreamingCoreService.restore(
                self.store, ks, name=key, wal=True, max_lag=self.max_lag
            )
            self._streams[key] = service
            self._serve_build(key, service)
        return service

    def _serve_build(self, key: str, service: StreamingCoreService) -> None:
        """Answer reads of ``key`` from the service's last build; its
        indexes replace the superseded graph's registry entries."""
        graph, indexes = service.built
        if graph is None:
            return
        with self._graph_lock:
            old = self._graphs.get(key)
            self._graphs[key] = graph
        self.registry.supersede(old, indexes.values())

    def _require_writable(self) -> None:
        if self._read_only is not None:
            raise _ReadOnlyError(
                f"daemon is read-only ({self._read_only}); "
                f"queries keep serving, ingestion is disabled"
            )

    def _enter_read_only(self, reason: str) -> None:
        self._read_only = reason
        self._g_read_only.set(1)

    def _answer_append(self, request: Request) -> dict:
        self._require_writable()
        service = self._stream(self._ingest_key(request.graph))
        before = service.wal.last_lsn
        try:
            applied = service.extend(request.edges, token=request.dedupe)
        except OSError as exc:
            # The record may or may not have reached the disk, but it
            # was never acknowledged — the client's retry (same dedupe
            # token) resolves the ambiguity after recovery.  Serving
            # continues; ingestion stops signalling durable when it
            # is not.
            self._enter_read_only(f"WAL write failed: {exc}")
            raise _ReadOnlyError(
                f"append not acknowledged, daemon is now read-only: {exc}"
            ) from exc
        self._c_appended.inc(applied)
        if applied:
            return append_done_frame(
                request.id, lsn=before + 1, appended=applied
            )
        # A retried token applies nothing and answers its original ack.
        lsn, appended = service.wal.lookup_token(request.dedupe)
        return append_done_frame(request.id, lsn=lsn, appended=appended)

    def _answer_flush(self, request: Request) -> dict:
        self._require_writable()
        covered, applied = self._flush(self._ingest_key(request.graph))
        return flush_done_frame(request.id, lsn=covered, applied=applied)

    def _flush(self, key: str) -> tuple[int, int]:
        """Fold the key's pending appends in, snapshot and serve them.

        Until a flush, appended edges are durable but not queryable;
        nothing pending writes nothing.  ``(covered lsn, applied)``.
        """
        service = self._stream(key)
        if not service.num_edges:
            raise ReproError(f"nothing to flush for key {key!r}")
        applied = service.num_pending
        if applied:
            try:
                mode = service.refresh()
                service.snapshot(self.store, name=key)
            except OSError as exc:
                self._enter_read_only(f"flush failed: {exc}")
                raise _ReadOnlyError(
                    f"flush not completed, daemon is now read-only: {exc}"
                ) from exc
            if mode == "incremental":
                self._c_incremental_folds.inc()
            else:
                self._c_full_rebuilds.inc()
            self._serve_build(key, service)
            self._c_flushes.inc()
        return service.wal.last_lsn, applied

    def _maybe_flush_for_lag(self, requested: str | None) -> None:
        """Flush a key on the query path once its lag budget is blown.

        With ``max_lag`` set, a query against a key whose oldest
        unflushed append is older than the budget triggers a flush
        first, so the answer includes the backlog.  This runs on the
        single execution lane — the flush fully completes before the
        query plans, exactly as if the client had sent an explicit
        ``flush``.  A read-only daemon serves the stale snapshot
        instead (queries must keep working when ingestion cannot).
        """
        if self.max_lag is None or self._read_only is not None:
            return
        try:
            key = self.store.only_key(requested)
        except StoreError:
            return
        service = self._streams.get(key)
        if service is None or not service.lag_exceeded:
            return
        try:
            self._flush(key)
        except _ReadOnlyError:
            # The flush flipped the daemon read-only; the query
            # proceeds against the stale snapshot.
            return
        self._c_lag_flushes.inc()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def counters(self) -> dict:
        """The daemon's outcome counters, as plain ints."""
        depth = self._queue.qsize() if self._queue is not None else 0
        return {
            "accepted": int(self._c_accepted.value),
            "completed": int(self._c_completed.value),
            "cancelled": int(self._c_cancelled.value),
            "failed": int(self._c_failed.value),
            "rejected": {
                key[1]: int(child.value)
                for key, child in self._rejected.items()
                if key[0] == self.instance
            },
            "queue_depth": depth,
            "connections": len(self._conns),
            "draining": self._draining,
        }

    def _close_wals(self) -> None:
        for service in self._streams.values():
            try:
                service.wal.close()
            except OSError:  # pragma: no cover - best-effort seal
                pass

    def stats(self) -> dict:
        """The ``stats`` op payload: daemon, registry, store, ingest."""
        return {
            "daemon": self.counters(),
            "registry": self.registry.stats(),
            "store": {
                "root": str(self.store.root),
                "keys": self.store.keys(),
            },
            "ingest": {
                "read_only": self._read_only,
                "appended_edges": int(self._c_appended.value),
                "flushes": int(self._c_flushes.value),
                "incremental_folds": int(self._c_incremental_folds.value),
                "full_rebuilds": int(self._c_full_rebuilds.value),
                "lag_flushes": int(self._c_lag_flushes.value),
                "max_lag": self.max_lag,
                "keys": {
                    key: {
                        "last_lsn": service.wal.last_lsn,
                        "stream_lsn": self.store.stream_lsn(key),
                        "segments": len(service.wal.segment_paths()),
                        "lag_seconds": service.lag_seconds,
                    }
                    # stats() runs off-lane; snapshot the dict so a
                    # concurrent first-append insert cannot resize it
                    # mid-iteration.
                    for key, service in list(self._streams.items())
                },
            },
        }


def main(argv=None) -> int:  # pragma: no cover - thin module runner
    """``python -m repro.serve.daemon`` — defers to the CLI."""
    from repro.cli import main as cli_main

    return cli_main(["serve", *(argv if argv is not None else sys.argv[1:])])


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
