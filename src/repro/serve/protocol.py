"""Wire protocol of the serving daemon — newline-delimited JSON frames.

One connection carries a sequence of **frames**, each a single JSON
object on its own ``\\n``-terminated line (UTF-8; request lines are
capped at :data:`MAX_LINE_BYTES`, response frames are unbounded — a
streamed core's ``edge_ids`` list can exceed the cap, so clients
reassemble lines to their newline).  Requests flow client → daemon,
responses daemon → client; every request carries a client-chosen ``id``
that tags every response frame it produces, so a client may pipeline
requests and demultiplex answers by ``id``.

Request frames (``op`` selects the verb)::

    {"op": "ping", "id": 1}
    {"op": "stats", "id": 2}
    {"op": "query", "id": 3, "k": 2, "ts": 1, "te": 9}
    {"op": "batch", "id": 4, "k": 2, "ranges": [[1, 5], [2, 8]]}
    {"op": "append", "id": 5, "edges": [["a", "b", 7]], "dedupe": "tok"}
    {"op": "flush", "id": 6}
    {"op": "shutdown", "id": 7}

``query`` and ``batch`` accept optional ``graph`` (a store key —
defaults to the store's sole graph), ``timeout`` (a per-request
deadline in seconds) and, for ``query``, ``edge_ids`` (default true —
whether streamed cores carry their edge-id list).

Response frames:

* ``query`` streams one core frame per result **as it is enumerated**
  — ``{"id": 3, "core": {"tti": [2, 5], "num_edges": 3, "edge_ids":
  [...]}}`` — where the ``core`` value is byte-for-byte the line an
  in-process :class:`~repro.serve.sinks.NDJSONSink` would have written
  for the same query (one compiled renderer,
  :class:`~repro.core.native.FrameRenderer`, writes both); then one
  terminal frame ``{"id": 3, "ok": true,
  "done": true, "num_results": N, "total_edges": M, "completed":
  true}``.  ``completed: false`` marks a deadline abort (the stream
  holds whatever was delivered before it).
* ``batch`` answers with a single terminal frame whose ``answers``
  list carries ``{"range", "num_results", "total_edges", "completed"}``
  per input range, in input order.
* ``append`` ingests edge events durably: ``edges`` is a non-empty
  list of ``[u, v, raw_t]`` triples (labels string or int, timestamps
  non-decreasing), ``dedupe`` an optional client token making the
  request idempotent.  The single answer frame — ``{"id": 5, "ok":
  true, "done": true, "lsn": L, "appended": N}`` — is sent only after
  the write-ahead log record is **fsynced**; a retried token answers
  with the byte-identical frame.  ``flush`` folds the logged events
  into a fresh snapshot (graph + indexes rebuilt and persisted, log
  trimmed) → ``{"id": 6, "ok": true, "done": true, "lsn": L,
  "applied": N}``.
* ``ping`` → ``{"id": 1, "ok": true, "pong": true}``;
  ``stats`` → ``{"id": 2, "ok": true, "stats": {...}}``;
  ``shutdown`` → ``{"id": 7, "ok": true, "draining": true}``.
* Any failure → ``{"id": ..., "ok": false, "error": {"code": ...,
  "message": ...}}``.  ``id`` is ``null`` when the request line never
  parsed far enough to have one.  Codes are the :data:`ERROR_CODES`
  set; ``overloaded`` (admission control) and ``draining`` (shutdown
  in progress) are the backpressure signals a client should back off
  on, the rest are terminal for that request.

The same port answers ``GET /metrics`` over HTTP (the daemon sniffs
the first line of each connection), so one address serves both the
query protocol and Prometheus scrapes — see ``docs/DAEMON.md``.

This module is deliberately transport-free: it parses and builds
frames (:func:`decode_frame`, :func:`parse_request`,
:func:`encode_frame`, the ``*_frame`` builders) and is shared by the
daemon, its clients and the protocol property tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import ReproError

#: Hard byte ceiling for *request* lines.  A request line longer than
#: this is rejected with ``too-large`` and the connection closed (the
#: line boundary is unrecoverable once the limit is overrun).
#: Response frames are not bounded by it.
MAX_LINE_BYTES = 1 << 20

#: The request verbs.
OPS = ("ping", "stats", "query", "batch", "append", "flush", "shutdown")

#: Every ``error.code`` a response frame may carry.
ERROR_CODES = (
    "bad-json",      # request line is not valid JSON
    "bad-request",   # parsed, but malformed (missing/ill-typed fields)
    "unknown-op",    # valid frame, unrecognised op
    "too-large",     # request line exceeded MAX_LINE_BYTES
    "overloaded",    # admission control: request queue full, back off
    "draining",      # daemon is shutting down, not accepting work
    "invalid",       # query parameters rejected (bad k/range/graph key)
    "read-only",     # durable ingestion disabled after a WAL disk error
    "internal",      # execution failed; message carries the error
)

#: Ceiling on edges per ``append`` frame — keeps one WAL record (and
#: the request line) bounded; clients chunk larger loads.
MAX_APPEND_EDGES = 10_000


class ProtocolError(ReproError):
    """A frame violated the protocol; ``code`` is from :data:`ERROR_CODES`."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class Request:
    """A parsed, validated request frame."""

    op: str
    id: object  # any JSON scalar the client chose; echoed verbatim
    k: int | None = None
    ranges: tuple[tuple[int, int], ...] = ()
    graph: str | None = None
    timeout: float | None = None
    edge_ids: bool = field(default=True)
    edges: tuple[tuple[object, object, int], ...] = ()
    dedupe: str | None = None

    @property
    def is_work(self) -> bool:
        """Whether this op goes through the request queue (vs inline).

        ``append`` and ``flush`` ride the same single execution lane as
        queries — which is also what serialises all mutation of one
        store key without a dedicated ingestion lock.
        """
        return self.op in ("query", "batch", "append", "flush")


def encode_frame(frame: dict) -> bytes:
    """One frame as its wire line (UTF-8, ``\\n``-terminated)."""
    return (json.dumps(frame) + "\n").encode("utf-8")


def decode_frame(line: bytes | str) -> dict:
    """Parse one wire line into a frame dict.

    Raises :class:`ProtocolError` (``too-large`` / ``bad-json`` /
    ``bad-request``) instead of letting ``json`` errors escape.
    """
    if isinstance(line, str):
        line = line.encode("utf-8")
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            "too-large",
            f"frame is {len(line)} bytes (limit {MAX_LINE_BYTES})",
        )
    try:
        frame = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("bad-json", f"not valid JSON: {exc}") from None
    if not isinstance(frame, dict):
        raise ProtocolError(
            "bad-request", f"frame must be a JSON object, got {type(frame).__name__}"
        )
    return frame


def _require_int(frame: dict, name: str) -> int:
    value = frame.get(name)
    # bool is an int subclass; reject it explicitly.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(
            "bad-request", f"{frame.get('op')!r} needs an integer {name!r}"
        )
    return value


def parse_request(frame: dict) -> Request:
    """Validate a decoded frame into a :class:`Request`.

    Raises :class:`ProtocolError` with ``unknown-op`` / ``bad-request``
    on anything malformed.  Range *semantics* (``k >= 1``, window
    inside the graph) are not checked here — the daemon validates those
    against the store and answers ``invalid``.
    """
    op = frame.get("op")
    if not isinstance(op, str):
        raise ProtocolError("bad-request", "frame needs a string 'op'")
    if op not in OPS:
        raise ProtocolError("unknown-op", f"unknown op {op!r} (know {OPS})")
    rid = frame.get("id")
    if rid is not None and not isinstance(rid, (str, int, float)):
        raise ProtocolError("bad-request", "'id' must be a JSON scalar")
    if op not in ("query", "batch", "append", "flush"):
        return Request(op=op, id=rid)

    graph = frame.get("graph")
    if graph is not None and not isinstance(graph, str):
        raise ProtocolError("bad-request", "'graph' must be a string store key")
    timeout = frame.get("timeout")
    if timeout is not None:
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
            raise ProtocolError("bad-request", "'timeout' must be a number")
        timeout = float(timeout)
        if timeout <= 0:
            raise ProtocolError("bad-request", "'timeout' must be > 0")

    if op == "flush":
        return Request(op=op, id=rid, graph=graph, timeout=timeout)
    if op == "append":
        raw_edges = frame.get("edges")
        if not isinstance(raw_edges, list) or not raw_edges:
            raise ProtocolError(
                "bad-request", "'append' needs a non-empty 'edges' list"
            )
        if len(raw_edges) > MAX_APPEND_EDGES:
            raise ProtocolError(
                "too-large",
                f"'append' carries {len(raw_edges)} edges "
                f"(limit {MAX_APPEND_EDGES}); chunk the load",
            )
        edges = []
        for triple in raw_edges:
            if (
                not isinstance(triple, (list, tuple))
                or len(triple) != 3
                or not all(
                    isinstance(label, (str, int)) and not isinstance(label, bool)
                    for label in triple[:2]
                )
                or not isinstance(triple[2], int)
                or isinstance(triple[2], bool)
            ):
                raise ProtocolError(
                    "bad-request",
                    "'edges' entries must be [u, v, raw_t] with string or "
                    "integer labels and an integer timestamp",
                )
            edges.append((triple[0], triple[1], triple[2]))
        dedupe = frame.get("dedupe")
        if dedupe is not None and not isinstance(dedupe, str):
            raise ProtocolError("bad-request", "'dedupe' must be a string token")
        return Request(
            op=op,
            id=rid,
            graph=graph,
            timeout=timeout,
            edges=tuple(edges),
            dedupe=dedupe,
        )

    k = _require_int(frame, "k")
    edge_ids = frame.get("edge_ids", True)
    if not isinstance(edge_ids, bool):
        raise ProtocolError("bad-request", "'edge_ids' must be a boolean")

    if op == "query":
        ranges = ((_require_int(frame, "ts"), _require_int(frame, "te")),)
    else:
        raw = frame.get("ranges")
        if not isinstance(raw, list) or not raw:
            raise ProtocolError(
                "bad-request", "'batch' needs a non-empty 'ranges' list"
            )
        ranges = []
        for pair in raw:
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or any(
                    not isinstance(b, int) or isinstance(b, bool) for b in pair
                )
            ):
                raise ProtocolError(
                    "bad-request",
                    "'ranges' entries must be [ts, te] integer pairs",
                )
            ranges.append((pair[0], pair[1]))
        ranges = tuple(ranges)
    return Request(
        op=op,
        id=rid,
        k=k,
        ranges=ranges,
        graph=graph,
        timeout=timeout,
        edge_ids=edge_ids,
    )


# ----------------------------------------------------------------------
# Response builders
# ----------------------------------------------------------------------


def ok_frame(rid, **fields) -> dict:
    """A successful response frame for request ``rid``."""
    return {"id": rid, "ok": True, **fields}


def error_frame(rid, code: str, message: str) -> dict:
    """An error response frame; ``code`` must be in :data:`ERROR_CODES`."""
    assert code in ERROR_CODES, code
    return {"id": rid, "ok": False, "error": {"code": code, "message": message}}


def done_frame(rid, *, num_results: int, total_edges: int, completed: bool) -> dict:
    """The terminal frame of a streamed ``query``."""
    return ok_frame(
        rid,
        done=True,
        num_results=num_results,
        total_edges=total_edges,
        completed=completed,
    )


def batch_done_frame(rid, answers: list[dict]) -> dict:
    """The terminal frame of a ``batch`` (one answer dict per range)."""
    return ok_frame(rid, done=True, answers=answers)


def append_done_frame(rid, *, lsn: int, appended: int) -> dict:
    """The acknowledgement of an ``append`` — only built post-fsync.

    ``lsn`` is the WAL sequence number of the *first* edge in the
    request, ``appended`` how many edges the request carried.  A
    deduplicated retry rebuilds exactly this frame from the log's token
    map, so the answer is byte-stable across daemon restarts.
    """
    return ok_frame(rid, done=True, lsn=lsn, appended=appended)


def flush_done_frame(rid, *, lsn: int, applied: int) -> dict:
    """The terminal frame of a ``flush`` (snapshot advanced to ``lsn``)."""
    return ok_frame(rid, done=True, lsn=lsn, applied=applied)


def core_frame_prefix(rid) -> str:
    """The text that precedes a streamed core's NDJSON payload.

    A core frame is this prefix, the *exact* line an
    :class:`~repro.serve.sinks.NDJSONSink` writes for the core (without
    its newline) and a closing ``}``.  The daemon renders all three with
    the renderer behind that sink,
    :class:`~repro.core.native.FrameRenderer` — never by re-encoding —
    which is what makes daemon-streamed cores byte-identical to
    in-process NDJSON output.  ASCII: ``json.dumps`` escapes the rest.
    """
    return f'{{"id": {json.dumps(rid)}, "core": '
