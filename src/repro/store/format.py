"""The versioned binary container behind the on-disk index store.

A *blob* is one file holding named flat ``int64`` sections — the unit in
which compiled graphs and core indexes are persisted.  The layout is
designed so a reader can hand out zero-copy views of every section
straight from an ``mmap`` of the file:

::

    offset 0   magic        8 bytes   b"RPROSTOR"
    offset 8   version      u32 little-endian
    offset 12  header_len   u32 little-endian
    offset 16  header       UTF-8 JSON (see below)
    ...        zero padding to the next 16-byte boundary
    ...        payload      concatenated little-endian int64 arrays

The JSON header carries ``kind`` (what the blob encodes), ``meta`` (small
scalar metadata), a section table (``name``, byte ``offset`` into the
payload, element ``count``), the total ``payload_bytes`` and a ``crc32``
of the payload.  Truncation is detected by comparing the file size
against the declared payload length; corruption by the checksum.

Readers prefer ``mmap`` and fall back to reading the file into memory
where mapping is unavailable (empty files, exotic filesystems).  On
little-endian hosts sections are returned as ``memoryview.cast("q")``
views sharing the mapping — no copy; on big-endian hosts they are
decoded into ``array("q")`` with a byte swap.

Writes go through a temporary file and ``os.replace`` so a crash mid-
write never leaves a half-written blob under the final name — a torn
write is either invisible or caught by the truncation/checksum checks.
Each temp file is fsynced before its rename, on the store I/O thread
(:func:`submit_io`) so that a commit's next blob is written meanwhile.
"""

from __future__ import annotations

import json
import mmap
import os
import sys
import threading
from array import array
from collections.abc import Mapping, Sequence
from concurrent.futures import Future, ThreadPoolExecutor, wait

import numpy as np

from repro.core import native
from repro.errors import StoreCorruptionError, StoreError
from repro.testing.crashpoints import crashpoint

#: First eight bytes of every store blob.
MAGIC = b"RPROSTOR"

#: Bumped on any incompatible layout change; readers reject other versions.
FORMAT_VERSION = 1

#: Payload alignment — keeps int64 sections naturally aligned for mmap views.
_ALIGN = 16

#: The store I/O thread's executor, created by the first :func:`submit_io`.
_io: ThreadPoolExecutor | None = None
_io_lock = threading.Lock()


def _forget_io() -> None:
    """In a forked child: the parent's I/O thread did not come along,
    so the child starts its own on first use."""
    global _io, _io_lock
    _io, _io_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_io)


def _section_view(buffer, start: int, stop: int):
    """An int64 sequence over ``buffer[start:stop]`` — zero-copy where possible."""
    view = memoryview(buffer)[start:stop]
    if sys.byteorder == "little":
        return view.cast("q")
    decoded = array("q")
    decoded.frombytes(view.tobytes())
    decoded.byteswap()
    return decoded


class Blob:
    """A read-only opened store blob: ``kind``, ``meta`` and section views.

    ``sections`` maps section names to flat int64 sequences that share
    the underlying mapping (keep the blob referenced while views are in
    use; the views themselves pin the buffer, so ordinary usage is safe).
    """

    __slots__ = ("path", "kind", "meta", "sections", "_buffer")

    def __init__(self, path: str, kind: str, meta: dict, sections: dict, buffer):
        self.path = path
        self.kind = kind
        self.meta = meta
        self.sections = sections
        self._buffer = buffer

    def __repr__(self) -> str:
        return f"Blob(kind={self.kind!r}, sections={sorted(self.sections)})"


def submit_io(fn, *args) -> Future:
    """Run ``fn(*args)`` on the process-wide store I/O thread.

    One worker, started on first use, runs jobs in submission order:
    the blob fsyncs of :func:`write_blobs` and a commit's reclaim of
    its superseded generation.  The interpreter joins it at exit once
    its queue has drained.  While the interpreter is exiting (a thread
    still committing after the main one returned) the executor refuses
    new jobs; the job then runs in the caller and its future is
    returned already resolved.
    """
    global _io
    with _io_lock:
        if _io is None:
            _io = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-store-io")
        executor = _io
    try:
        return executor.submit(fn, *args)
    except RuntimeError:
        done: Future = Future()
        try:
            done.set_result(fn(*args))
        except Exception as exc:
            done.set_exception(exc)
        return done


def _encode_prefix(kind: str, meta: Mapping, names, arrays) -> bytes:
    """Magic, version and JSON header of a blob, padded to :data:`_ALIGN`.

    The payload crc32 is chained section by section, so the payload is
    never assembled in memory.
    """
    table = []
    offset = 0
    crc = 0
    for name, arr in zip(names, arrays):
        table.append({"name": name, "offset": offset, "count": arr.size})
        offset += arr.nbytes
        crc = native.crc32(arr, crc)
    header = json.dumps(
        {
            "kind": kind,
            "meta": dict(meta),
            "sections": table,
            "payload_bytes": offset,
            "crc32": crc,
        },
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    prefix = (
        MAGIC
        + FORMAT_VERSION.to_bytes(4, "little")
        + len(header).to_bytes(4, "little")
        + header
    )
    return prefix + b"\x00" * (-len(prefix) % _ALIGN)


def write_blobs(
    blobs: Sequence[
        tuple[str | os.PathLike[str], str, Mapping, Mapping[str, Sequence[int] | np.ndarray]]
    ],
) -> list[int]:
    """Atomically write ``(path, kind, meta, sections)`` blobs; returns
    the bytes written for each, in the given order.

    Each blob is written to ``<path>.tmp.<pid>`` straight from its
    little-endian int64 arrays, largest blob first, and that temp
    file's fsync is handed to the store I/O thread (:func:`submit_io`)
    as soon as its bytes are written — so the device flushes one blob
    while the next is checksummed and written.  Then, in the given
    order, each blob's fsync is awaited before the temp file is renamed
    to ``path``.  Making the renames durable is the caller's
    :func:`fsync_dir` of the blobs' directory, once for all of them.

    Every submitted fsync resolves before any temp file closes, on the
    error path too: a descriptor closed while its fsync is queued could
    be reused, and the fsync would then flush some other file.  A
    failed write or fsync raises; the blobs not yet renamed stay temp
    files, which ``repro fsck`` reports.
    """
    finals = [os.fspath(blob[0]) for blob in blobs]
    temps = [f"{final}.tmp.{os.getpid()}" for final in finals]
    arrays = [
        [np.ascontiguousarray(values, dtype="<i8") for values in blob[3].values()]
        for blob in blobs
    ]
    sizes = [sum(arr.nbytes for arr in parts) for parts in arrays]
    synced: list[Future | None] = [None] * len(blobs)
    handles = []
    try:
        for i in sorted(range(len(blobs)), key=sizes.__getitem__, reverse=True):
            _path, kind, meta, sections = blobs[i]
            prefix = _encode_prefix(kind, meta, sections, arrays[i])
            handle = open(temps[i], "wb")
            handles.append(handle)
            handle.write(prefix)
            for arr in arrays[i]:
                handle.write(arr)
            handle.flush()
            synced[i] = submit_io(os.fsync, handle.fileno())
            sizes[i] += len(prefix)
        for temp, final, fsynced in zip(temps, finals, synced):
            fsynced.result()
            crashpoint("blob.post-temp.pre-rename")
            os.replace(temp, final)
            crashpoint("blob.post-rename")
    finally:
        wait([fsynced for fsynced in synced if fsynced is not None])
        for handle in handles:
            handle.close()
    return sizes


def write_blob(
    path: str | os.PathLike[str],
    kind: str,
    meta: Mapping,
    sections: Mapping[str, Sequence[int] | np.ndarray],
) -> int:
    """Atomically write a blob; returns the number of bytes written.

    One blob through :func:`write_blobs`: the bytes are written to a
    temp file and fsynced before the rename; making the rename itself
    durable is the caller's :func:`fsync_dir` of the blob's directory.
    """
    return write_blobs([(path, kind, meta, sections)])[0]


def fsync_dir(directory: str | os.PathLike[str]) -> None:
    """Durably record the renames made in ``directory``.

    Without this a crash after ``os.replace`` can roll the directory
    back to the temp name (or to nothing) on some filesystems; with it
    every rename made so far is as durable as the renamed bytes.
    """
    try:
        fd = os.open(os.fspath(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


def read_blob(path: str | os.PathLike[str], *, verify: bool = True) -> Blob:
    """Open a blob, returning zero-copy section views where possible.

    ``verify=True`` (the default) checks the payload crc32 — a full
    sequential read of the mapping, still orders of magnitude cheaper
    than recomputing an index.  Raises :class:`StoreError` for files that
    are not blobs and :class:`StoreCorruptionError` for truncated or
    checksum-failing ones.
    """
    final = os.fspath(path)
    with open(final, "rb") as handle:
        try:
            buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            buffer = handle.read()

    if len(buffer) < 16 or bytes(buffer[:8]) != MAGIC:
        raise StoreError(f"{final}: not a store blob")
    version = int.from_bytes(buffer[8:12], "little")
    if version != FORMAT_VERSION:
        raise StoreError(
            f"{final}: unsupported store format version {version} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    header_len = int.from_bytes(buffer[12:16], "little")
    if 16 + header_len > len(buffer):
        raise StoreCorruptionError(f"{final}: truncated header")
    try:
        header = json.loads(bytes(buffer[16 : 16 + header_len]).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise StoreCorruptionError(f"{final}: unreadable header: {exc}") from exc

    payload_start = 16 + header_len
    payload_start += -payload_start % _ALIGN
    payload_bytes = header.get("payload_bytes", -1)
    if payload_bytes < 0 or payload_start + payload_bytes > len(buffer):
        raise StoreCorruptionError(
            f"{final}: truncated payload "
            f"(declared {payload_bytes} bytes, file holds "
            f"{max(0, len(buffer) - payload_start)})"
        )
    payload_view = memoryview(buffer)[payload_start : payload_start + payload_bytes]
    if verify and native.crc32(payload_view) != header.get("crc32"):
        raise StoreCorruptionError(f"{final}: payload checksum mismatch")

    sections: dict = {}
    for entry in header.get("sections", ()):
        start = payload_start + entry["offset"]
        stop = start + 8 * entry["count"]
        if stop > payload_start + payload_bytes:
            raise StoreCorruptionError(
                f"{final}: section {entry['name']!r} overruns the payload"
            )
        sections[entry["name"]] = _section_view(buffer, start, stop)
    return Blob(final, header.get("kind", ""), header.get("meta", {}), sections, buffer)
