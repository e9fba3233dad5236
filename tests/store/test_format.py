"""The binary blob container: round trips, integrity, versioning."""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreCorruptionError, StoreError
from repro.store.format import FORMAT_VERSION, MAGIC, read_blob, write_blob


@pytest.fixture()
def blob_path(tmp_path):
    return tmp_path / "test.bin"


class TestRoundTrip:
    def test_sections_and_meta_survive(self, blob_path):
        sections = {
            "a": [1, 2, 3],
            "b": [],
            "c": [-5, 1 << 40, 0],
        }
        write_blob(blob_path, "test-kind", {"x": 7, "name": "n"}, sections)
        blob = read_blob(blob_path)
        assert blob.kind == "test-kind"
        assert blob.meta == {"x": 7, "name": "n"}
        assert {name: list(view) for name, view in blob.sections.items()} == sections

    def test_empty_sections(self, blob_path):
        write_blob(blob_path, "k", {}, {})
        blob = read_blob(blob_path)
        assert blob.sections == {}

    def test_negative_and_large_values(self, blob_path):
        values = [-(1 << 62), -1, 0, 1, (1 << 62)]
        write_blob(blob_path, "k", {}, {"v": values})
        assert list(read_blob(blob_path).sections["v"]) == values

    def test_write_returns_file_size(self, blob_path):
        written = write_blob(blob_path, "k", {}, {"v": [1, 2]})
        assert written == blob_path.stat().st_size


class TestIntegrity:
    def test_not_a_blob(self, blob_path):
        blob_path.write_bytes(b"definitely not a store blob at all")
        with pytest.raises(StoreError):
            read_blob(blob_path)

    def test_unsupported_version(self, blob_path):
        write_blob(blob_path, "k", {}, {"v": [1]})
        raw = bytearray(blob_path.read_bytes())
        raw[8:12] = (FORMAT_VERSION + 1).to_bytes(4, "little")
        blob_path.write_bytes(bytes(raw))
        with pytest.raises(StoreError, match="version"):
            read_blob(blob_path)

    def test_truncation_detected(self, blob_path):
        write_blob(blob_path, "k", {}, {"v": list(range(64))})
        raw = blob_path.read_bytes()
        blob_path.write_bytes(raw[:-16])
        with pytest.raises(StoreCorruptionError, match="truncated"):
            read_blob(blob_path)

    def test_bit_flip_detected(self, blob_path):
        write_blob(blob_path, "k", {}, {"v": list(range(64))})
        raw = bytearray(blob_path.read_bytes())
        raw[-1] ^= 0xFF
        blob_path.write_bytes(bytes(raw))
        with pytest.raises(StoreCorruptionError, match="checksum"):
            read_blob(blob_path)

    def test_checksum_is_zlib_crc32(self, blob_path):
        """The header carries zlib's crc32 of the payload (format compatibility)."""
        write_blob(blob_path, "k", {}, {"v": list(range(-300, 300)), "w": [7] * 41})
        raw = blob_path.read_bytes()
        header_len = int.from_bytes(raw[12:16], "little")
        header = json.loads(raw[16 : 16 + header_len])
        start = 16 + header_len + (-(16 + header_len) % 16)
        payload = raw[start : start + header["payload_bytes"]]
        assert header["crc32"] == zlib.crc32(payload)

    def test_verify_false_skips_checksum(self, blob_path):
        write_blob(blob_path, "k", {}, {"v": list(range(64))})
        raw = bytearray(blob_path.read_bytes())
        raw[-1] ^= 0xFF
        blob_path.write_bytes(bytes(raw))
        blob = read_blob(blob_path, verify=False)
        assert len(blob.sections["v"]) == 64

    def test_verify_false_still_detects_truncation(self, blob_path):
        write_blob(blob_path, "k", {}, {"v": list(range(64))})
        raw = blob_path.read_bytes()
        blob_path.write_bytes(raw[:-16])
        with pytest.raises(StoreCorruptionError):
            read_blob(blob_path, verify=False)

    def test_magic_is_stable(self, blob_path):
        # The on-disk magic is a compatibility promise; changing it
        # breaks every existing store.
        write_blob(blob_path, "k", {}, {})
        assert blob_path.read_bytes()[:8] == MAGIC == b"RPROSTOR"

    def test_no_temp_file_left_behind(self, blob_path, tmp_path):
        write_blob(blob_path, "k", {}, {"v": [1]})
        assert [p.name for p in tmp_path.iterdir()] == ["test.bin"]


def joined_blob(kind, meta, sections) -> bytes:
    """Frozen reference writer: every section encoded to bytes, joined
    into one payload, checksummed whole and appended to the header
    (the layout ``write_blob`` streams section by section)."""
    table = []
    parts = []
    offset = 0
    for name, values in sections.items():
        data = np.asarray(values, dtype=np.int64).astype("<i8", copy=False).tobytes()
        table.append({"name": name, "offset": offset, "count": len(data) // 8})
        parts.append(data)
        offset += len(data)
    payload = b"".join(parts)
    header = json.dumps(
        {
            "kind": kind,
            "meta": dict(meta),
            "sections": table,
            "payload_bytes": len(payload),
            "crc32": zlib.crc32(payload),
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
    return prefix + b"\x00" * (-len(prefix) % 16) + payload


INT64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
AS_INPUT = {  # every section source the store hands the writer
    "list": list,
    "ndarray": lambda values: np.asarray(values, dtype=np.int64),
    "view": lambda values: memoryview(np.asarray(values, dtype=np.int64)).cast("B").cast("q"),
}


class TestStreamedWriter:
    @settings(max_examples=150, deadline=None)
    @given(
        sections=st.dictionaries(
            st.text("abcxyz_", min_size=1, max_size=6),
            st.lists(INT64, max_size=40) | st.lists(INT64, min_size=60, max_size=300),
            max_size=5,
        ),
        source=st.sampled_from(sorted(AS_INPUT)),
        meta=st.dictionaries(st.sampled_from("kmn"), st.integers(0, 99), max_size=3),
    )
    def test_bytes_identical_to_joined_payload_writer(
        self, tmp_path_factory, sections, source, meta
    ):
        path = tmp_path_factory.mktemp("blob") / "b.bin"
        given_sections = {name: AS_INPUT[source](v) for name, v in sections.items()}
        written = write_blob(path, "k", meta, given_sections)
        want = joined_blob("k", meta, sections)
        assert path.read_bytes() == want
        assert written == len(want)
