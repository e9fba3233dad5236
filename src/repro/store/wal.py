"""The write-ahead edge log — durable ingestion for streaming appends.

Before this module, an acknowledged append lived only in
:class:`~repro.core.maintenance.StreamingCoreService`'s in-memory
pending list until the next snapshot rewrote the whole blob: a crash
between snapshots silently lost every acknowledged edge.  The WAL makes
the acknowledgement honest — an append is acknowledged only once its
record is fsynced to an append-only segment file, and recovery replays
the log past the last persisted snapshot.

On-disk layout (one ``wal/`` directory per store key)::

    wal/
        wal-0000000000000001.seg      # first LSN in the segment
        wal-0000000000000042.seg
        ...

Each segment starts with a 16-byte header (``REPROWAL`` magic, u32
version, u32 reserved) followed by crc32-framed records::

    u32 length   (payload bytes, little-endian)
    u32 crc32    (of the payload)
    payload      (compact JSON)

A record carries one *append call*: ``{"l": first_lsn, "e": [[u, v,
t], ...]}`` plus an optional ``"k"`` dedupe token — LSNs are assigned
per edge, so a batch of ``n`` edges occupies LSNs ``first .. first +
n - 1``.  Tokens make retried appends idempotent: the token →
``(first_lsn, count)`` map is rebuilt from the log on open, so dedupe
survives a crash (a client retrying an acknowledged-but-lost answer
gets byte-identical numbers back).  A trim that drops segments first
writes the tokens of their records to ``wal/tokens.json`` (the most
recent :data:`TRIMMED_TOKENS` of them), so a retry still finds its
original answer after the snapshot that covers it trimmed the log and
the process restarted.

**Torn-tail discipline.**  Records are only ever appended; a crash can
therefore damage at most the tail of the *last* segment (rotation
seals — fsyncs — a segment before creating its successor).  Opening
scans the final segment and truncates it to the longest valid record
prefix; damage *before* the tail (bit rot, external interference) is
never skipped over — replay stops at it and raises so ``repro fsck``
can quarantine rather than silently resurrect records beyond a hole.

**Fsync discipline.**  Every append call is durable before it
returns: its record is written and fsynced under the log's write lock,
one fsync per call however many edges the call carries.  The serving
daemon's single execution lane is the log's only writer, so there is
no concurrent appender to share a sync with.

Crash points (:mod:`repro.testing.crashpoints`) are threaded through
append, rotation, open-truncation and trim, so the crash campaign can
kill a process at every instant and assert recovery.
"""

from __future__ import annotations

import json
import os
import pathlib
import struct
import threading
import zlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.errors import StoreCorruptionError, StoreError
from repro.obs.metrics import MetricsRegistry, get_registry, next_instance
from repro.store.format import fsync_dir
from repro.testing.crashpoints import crashpoint, faultpoint

#: First eight bytes of every WAL segment.
WAL_MAGIC = b"REPROWAL"

#: Bumped on incompatible record-layout changes.
WAL_VERSION = 1

#: Segment header: magic + u32 version + u32 reserved.
_HEADER = struct.Struct("<8sII")

#: Record frame: u32 payload length + u32 payload crc32.
_FRAME = struct.Struct("<II")

#: Sanity ceiling while scanning — a declared length beyond this reads
#: as damage, not as a 4 GiB allocation.
MAX_RECORD_BYTES = 16 << 20

#: Segment rotation threshold of a log opened without ``segment_bytes``
#: (read when the log opens, not bound at import).
DEFAULT_SEGMENT_BYTES = 4 << 20

#: How many dedupe tokens of trimmed records the log keeps: retrying
#: any of the last ``TRIMMED_TOKENS`` token-carrying appends a trim
#: dropped still answers the original acknowledgement.
TRIMMED_TOKENS = 4096

#: The file in ``wal/`` holding those tokens: ``{"tokens": [[token,
#: first_lsn, count], ...]}``, oldest first, replaced atomically.
TOKENS_NAME = "tokens.json"

_SEG_PREFIX = "wal-"
_SEG_SUFFIX = ".seg"


def _segment_name(base_lsn: int) -> str:
    return f"{_SEG_PREFIX}{base_lsn:016d}{_SEG_SUFFIX}"


def _segment_base_lsn(name: str) -> int | None:
    if not (name.startswith(_SEG_PREFIX) and name.endswith(_SEG_SUFFIX)):
        return None
    digits = name[len(_SEG_PREFIX) : -len(_SEG_SUFFIX)]
    return int(digits) if digits.isdigit() else None


@dataclass(frozen=True)
class WalEvent:
    """One replayed edge event: its LSN and the raw append triple."""

    lsn: int
    u: object
    v: object
    t: int


@dataclass
class SegmentScan:
    """The outcome of scanning one segment file.

    ``valid_bytes`` is the offset up to which the segment is a clean
    record sequence (header included); ``error`` describes the first
    damage past it (``None`` for a fully valid segment).  ``records``
    holds the decoded record dicts of the valid prefix.
    """

    path: pathlib.Path
    records: list[dict]
    valid_bytes: int
    error: str | None


def scan_segment(path: str | os.PathLike[str]) -> SegmentScan:
    """Scan a segment, stopping at — never skipping — the first damage.

    Shared by WAL open (torn-tail truncation), replay and ``fsck``
    (quarantine decisions).  A file too short to hold the header scans
    as ``valid_bytes=0`` — the caller treats it as an empty segment
    whose header must be rewritten.
    """
    path = pathlib.Path(path)
    data = path.read_bytes()
    if len(data) < _HEADER.size:
        return SegmentScan(path, [], 0, "truncated segment header")
    magic, version, _ = _HEADER.unpack_from(data, 0)
    if magic != WAL_MAGIC:
        return SegmentScan(path, [], 0, "bad segment magic")
    if version != WAL_VERSION:
        return SegmentScan(path, [], 0, f"unsupported WAL version {version}")
    records: list[dict] = []
    offset = _HEADER.size
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            return SegmentScan(path, records, offset, "torn record frame")
        length, crc = _FRAME.unpack_from(data, offset)
        if length == 0 or length > MAX_RECORD_BYTES:
            return SegmentScan(
                path, records, offset, f"implausible record length {length}"
            )
        start = offset + _FRAME.size
        stop = start + length
        if stop > len(data):
            return SegmentScan(path, records, offset, "torn record payload")
        payload = data[start:stop]
        if zlib.crc32(payload) != crc:
            return SegmentScan(path, records, offset, "record checksum mismatch")
        try:
            record = json.loads(payload)
        except ValueError:
            return SegmentScan(path, records, offset, "unparseable record payload")
        if (
            not isinstance(record, dict)
            or not isinstance(record.get("l"), int)
            or not isinstance(record.get("e"), list)
            or not record["e"]
        ):
            return SegmentScan(path, records, offset, "malformed record")
        records.append(record)
        offset = stop
    return SegmentScan(path, records, offset, None)


def read_trimmed_tokens(
    directory: str | os.PathLike[str],
) -> dict[str, tuple[int, int]]:
    """The tokens past trims kept in ``directory`` (``{}`` if none).

    Raises :class:`StoreCorruptionError` for an unreadable file, which
    ``repro fsck`` quarantines.
    """
    path = pathlib.Path(directory) / TOKENS_NAME
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return {}
    try:
        return {
            token: (first, count)
            for token, first, count in json.loads(data)["tokens"]
        }
    except (ValueError, KeyError, TypeError) as exc:
        raise StoreCorruptionError(
            f"{path}: unreadable dedupe tokens ({exc}); "
            f"run `repro fsck` to quarantine it"
        ) from None


def _encode_record(first_lsn: int, edges: Sequence[tuple], token: str | None) -> bytes:
    record: dict = {"l": first_lsn, "e": [[u, v, t] for u, v, t in edges]}
    if token is not None:
        record["k"] = token
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


class WriteAheadLog:
    """An append-only, crc32-framed, fsync-disciplined edge-event log.

    Parameters
    ----------
    directory:
        The ``wal/`` directory (created if missing).  One WAL per store
        key; see :meth:`IndexStore.wal
        <repro.store.index_store.IndexStore.wal>`.
    segment_bytes:
        Rotation threshold — a segment at or past this size is sealed
        (fsynced) and a successor created before the next record;
        :data:`DEFAULT_SEGMENT_BYTES` when omitted.

    Thread-safety: appends, trims and :meth:`close` serialise on an
    internal write lock, so a reader off the writer's thread (the
    daemon's ``stats`` op) sees a consistent :attr:`last_lsn`.  Replay
    and scan methods read files independently and take no lock.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        *,
        segment_bytes: int | None = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        if segment_bytes is None:
            segment_bytes = DEFAULT_SEGMENT_BYTES
        if segment_bytes < 256:
            raise StoreError(f"segment_bytes must be >= 256, got {segment_bytes}")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        self._write_lock = threading.Lock()
        self._closed = False
        #: The error of a write or fsync that failed; appends are refused from then on.
        self._failed: OSError | None = None

        self.metrics = metrics if metrics is not None else get_registry()
        self.instance = next_instance("wal")
        m, inst = self.metrics, self.instance
        self._c_appends = m.counter(
            "repro_wal_appends_total", "Append calls acknowledged", ("wal",)
        ).labels(inst)
        self._c_records = m.counter(
            "repro_wal_records_total", "Edge events appended", ("wal",)
        ).labels(inst)
        self._c_bytes = m.counter(
            "repro_wal_bytes_total", "Record bytes written", ("wal",)
        ).labels(inst)
        self._c_fsyncs = m.counter(
            "repro_wal_fsyncs_total", "Segment fsyncs issued", ("wal",)
        ).labels(inst)
        self._c_rotations = m.counter(
            "repro_wal_rotations_total", "Segments sealed and rotated", ("wal",)
        ).labels(inst)
        self._c_replayed = m.counter(
            "repro_wal_replayed_records_total", "Edge events replayed", ("wal",)
        ).labels(inst)
        self._c_torn = m.counter(
            "repro_wal_torn_tail_truncations_total",
            "Torn tails truncated on open",
            ("wal",),
        ).labels(inst)
        self._c_deduped = m.counter(
            "repro_wal_deduped_appends_total",
            "Appends answered from the token map without writing",
            ("wal",),
        ).labels(inst)

        self._open_log()

    # ------------------------------------------------------------------
    # Opening and recovery
    # ------------------------------------------------------------------

    def _segments(self) -> list[pathlib.Path]:
        entries = []
        for entry in self.directory.iterdir():
            base = _segment_base_lsn(entry.name)
            if base is not None:
                entries.append((base, entry))
        entries.sort()
        return [entry for _, entry in entries]

    def _open_log(self) -> None:
        """Scan existing segments, truncate the torn tail, resume LSNs."""
        self.last_lsn = 0
        # Token -> (first_lsn, count), in LSN order: the trimmed tokens
        # predate every surviving segment.
        self._tokens = read_trimmed_tokens(self.directory)
        segments = self._segments()
        for position, segment in enumerate(segments):
            scan = scan_segment(segment)
            if scan.error is not None:
                if position != len(segments) - 1:
                    # Damage before the final segment cannot be a crash
                    # artefact (rotation seals segments); refusing to
                    # skip it is what keeps replay honest.
                    raise StoreCorruptionError(
                        f"{segment}: {scan.error} before the final segment; "
                        f"run `repro fsck` to quarantine and repair"
                    )
                # Torn tail of the live segment: the expected crash
                # artefact.  Truncate to the valid prefix (rewriting a
                # header over an unreadable one) and carry on.
                with open(segment, "r+b") as handle:
                    if scan.valid_bytes == 0:
                        handle.truncate(0)
                        handle.write(_HEADER.pack(WAL_MAGIC, WAL_VERSION, 0))
                    else:
                        handle.truncate(scan.valid_bytes)
                    handle.flush()
                    os.fsync(handle.fileno())
                self._c_torn.inc()
                crashpoint("wal.open.post-truncate")
            self._absorb_scan(scan)
        if segments:
            self._segment_path = segments[-1]
            self._handle = open(self._segment_path, "ab")
        else:
            self._segment_path = self.directory / _segment_name(1)
            self._handle = open(self._segment_path, "ab")
            self._handle.write(_HEADER.pack(WAL_MAGIC, WAL_VERSION, 0))
            self._handle.flush()
            os.fsync(self._handle.fileno())
            fsync_dir(self.directory)

    def _write_trimmed_tokens(self, tokens: dict[str, tuple[int, int]]) -> None:
        final = self.directory / TOKENS_NAME
        tmp = final.with_name(f"{TOKENS_NAME}.tmp.{os.getpid()}")
        payload = {"tokens": [[token, *ack] for token, ack in tokens.items()]}
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, separators=(",", ":")))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)

    def _absorb_scan(self, scan: SegmentScan) -> None:
        for record in scan.records:
            first, edges = record["l"], record["e"]
            self.last_lsn = max(self.last_lsn, first + len(edges) - 1)
            token = record.get("k")
            if token is not None:
                self._tokens.setdefault(token, (first, len(edges)))

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append_edges(
        self,
        edges: "Iterable[tuple]",
        *,
        token: str | None = None,
    ) -> tuple[int, int]:
        """Append a batch as one durable record; ``(first_lsn, count)``.

        The record is written and fsynced under the write lock — one
        fsync for the whole batch — before this returns, and only then
        do :attr:`last_lsn` and the token map take it.  A known
        ``token`` returns the original answer (first LSN and count)
        without writing anything, and counts in
        ``repro_wal_deduped_appends_total``: acknowledged appends
        replayed by a retrying client stay byte-stable.

        A write or fsync that raises leaves the segment's tail unknown
        (a record that may or may not be durable), so the log refuses
        every later append with :class:`StoreError`; reopening it
        replays whatever reached the disk.
        """
        batch = [(u, v, int(t)) for u, v, t in edges]
        if not batch:
            raise StoreError("append_edges needs at least one edge")
        if self._closed:
            raise StoreError("write-ahead log is closed")
        with self._write_lock:
            if self._failed is not None:
                raise StoreError(
                    f"write-ahead log refuses appends after a failed write: {self._failed}"
                )
            known = self._known_token(token)
            if known is not None:
                return known
            first = self.last_lsn + 1
            frame = _encode_record(first, batch, token)
            crashpoint("wal.append.pre-write")
            faultpoint("wal.append.write")
            try:
                self._maybe_rotate(len(frame))
                self._handle.write(frame)
                self._handle.flush()
                self._c_records.inc(len(batch))
                self._c_bytes.inc(len(frame))
                crashpoint("wal.append.post-write.pre-fsync")
                faultpoint("wal.append.fsync")
                os.fsync(self._handle.fileno())
            except OSError as exc:
                self._failed = exc
                raise
            self._c_fsyncs.inc()
            self.last_lsn = first + len(batch) - 1
            if token is not None:
                self._tokens[token] = (first, len(batch))
            crashpoint("wal.append.post-fsync")
        self._c_appends.inc()
        return first, len(batch)

    def _maybe_rotate(self, incoming: int) -> None:
        """Seal the live segment and start a successor when full.

        Called under the write lock.  The old segment is fsynced
        *before* the new file exists, so a crash at any instant leaves
        either a sealed old segment (new one absent — recreated on the
        next open at the same base LSN) or both — never a successor
        whose predecessor might still be torn.
        """
        try:
            current = self._handle.tell()
        except (OSError, ValueError):  # pragma: no cover - defensive
            current = self.segment_bytes
        if current + incoming <= self.segment_bytes:
            return
        if current <= _HEADER.size:
            return  # never rotate an empty segment (oversized record)
        os.fsync(self._handle.fileno())
        self._c_fsyncs.inc()
        self._handle.close()
        crashpoint("wal.rotate.post-seal")
        self._segment_path = self.directory / _segment_name(self.last_lsn + 1)
        self._handle = open(self._segment_path, "ab")
        self._handle.write(_HEADER.pack(WAL_MAGIC, WAL_VERSION, 0))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        crashpoint("wal.rotate.post-create")
        fsync_dir(self.directory)
        self._c_rotations.inc()

    # ------------------------------------------------------------------
    # Replay, tokens, trim
    # ------------------------------------------------------------------

    def replay(self, *, after: int = 0) -> list[WalEvent]:
        """Every durable edge event with LSN > ``after``, in log order.

        Re-scans the segment files (the on-disk truth, not in-memory
        state), stopping at damage exactly like :func:`scan_segment` —
        records beyond a hole are never resurrected.
        """
        events: list[WalEvent] = []
        segments = self._segments()
        for position, segment in enumerate(segments):
            scan = scan_segment(segment)
            if scan.error is not None and position != len(segments) - 1:
                raise StoreCorruptionError(
                    f"{segment}: {scan.error} before the final segment; "
                    f"run `repro fsck`"
                )
            for record in scan.records:
                first = record["l"]
                for offset, (u, v, t) in enumerate(record["e"]):
                    lsn = first + offset
                    if lsn > after:
                        events.append(WalEvent(lsn, u, v, t))
        self._c_replayed.inc(len(events))
        return events

    def lookup_token(self, token: str | None) -> tuple[int, int] | None:
        """The ``(first_lsn, count)`` a token's append answered, if known.

        A hit is how a retried append is answered — without writing —
        so it counts in ``repro_wal_deduped_appends_total``.  Callers
        that validate a batch before appending it ask here first, so a
        retry gets its original acknowledgement whatever the validation
        would say now.
        """
        with self._write_lock:
            return self._known_token(token)

    def _known_token(self, token: str | None) -> tuple[int, int] | None:
        """:meth:`lookup_token` under the write lock."""
        known = None if token is None else self._tokens.get(token)
        if known is not None:
            self._c_deduped.inc()
        return known

    def trim(self, upto_lsn: int) -> int:
        """Drop sealed segments whose every record has LSN <= ``upto_lsn``.

        The checkpoint truncation that follows a durable snapshot: a
        segment is removable once the snapshot covers all of it.  The
        live segment is never removed.  Before anything is unlinked the
        tokens of the dropped records are written to
        :data:`TOKENS_NAME` (the last :data:`TRIMMED_TOKENS` of them,
        older trimmed tokens included), and the in-memory map keeps
        exactly those plus the surviving segments' — so a retried token
        answers the same before and after a restart.  Returns the
        number of segments dropped.
        """
        segments = self._segments()
        doomed = []
        for position in range(len(segments) - 1):  # the live segment stays
            next_base = _segment_base_lsn(segments[position + 1].name)
            assert next_base is not None
            if next_base - 1 > upto_lsn:
                break
            doomed.append(segments[position])
        if not doomed:
            return 0
        floor = _segment_base_lsn(segments[len(doomed)].name)
        with self._write_lock:
            # The map is in LSN order, and at most TRIMMED_TOKENS long
            # past the surviving segments' tokens.
            tokens = list(self._tokens.items())
            dropped = [item for item in tokens if item[1][0] < floor]
            trimmed = dict(dropped[-TRIMMED_TOKENS:])
            self._tokens = {**trimmed, **dict(tokens[len(dropped):])}
        self._write_trimmed_tokens(trimmed)
        fsync_dir(self.directory)
        for segment in doomed:
            os.unlink(segment)
            crashpoint("wal.trim.mid")
        fsync_dir(self.directory)
        return len(doomed)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def segment_paths(self) -> list[pathlib.Path]:
        """The live segment files, oldest first."""
        return self._segments()

    def close(self) -> None:
        """Flush, fsync and close the live segment (idempotent)."""
        if self._closed:
            return
        with self._write_lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except (OSError, ValueError):  # pragma: no cover - defensive
                pass
            self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({str(self.directory)!r}, last_lsn={self.last_lsn})"
        )
