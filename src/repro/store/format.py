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
"""

from __future__ import annotations

import json
import mmap
import os
import sys
from array import array
from collections.abc import Mapping, Sequence

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


def write_blob(
    path: str | os.PathLike[str],
    kind: str,
    meta: Mapping,
    sections: Mapping[str, Sequence[int] | np.ndarray],
) -> int:
    """Atomically write a blob; returns the number of bytes written.

    Each section is written straight from its little-endian int64 array
    and the payload crc32 is chained section by section, so the payload
    is never assembled in memory.  The blob's bytes are fsynced before
    the rename; making the rename itself durable is the caller's
    :func:`fsync_dir` of the blob's directory — once for every blob of
    a store commit, not once per blob.
    """
    arrays = [np.ascontiguousarray(values, dtype="<i8") for values in sections.values()]
    table = []
    offset = 0
    crc = 0
    for name, arr in zip(sections, arrays):
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
    prefix += b"\x00" * (-len(prefix) % _ALIGN)

    final = os.fspath(path)
    tmp = f"{final}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.write(prefix)
        for arr in arrays:
            handle.write(arr)
        handle.flush()
        os.fsync(handle.fileno())
    crashpoint("blob.post-temp.pre-rename")
    os.replace(tmp, final)
    crashpoint("blob.post-rename")
    return len(prefix) + offset


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
