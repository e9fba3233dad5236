"""WriteAheadLog: framing, durability discipline, torn tails, rotation."""

from __future__ import annotations

import shutil
import threading

import pytest

from repro.errors import StoreCorruptionError
from repro.store import wal as wal_module
from repro.store.wal import (
    _HEADER,
    WriteAheadLog,
    scan_segment,
)


@pytest.fixture()
def wal_dir(tmp_path):
    return tmp_path / "wal"


def append(wal, u, v, t) -> int:
    """One edge as one record; its LSN."""
    first, _count = wal.append_edges([(u, v, t)])
    return first


def counted(wal, name: str) -> float:
    """This log's sample of the ``repro_wal_*`` counter ``name``."""
    return wal.metrics.get(name).labels(wal.instance).value


def read_all(directory, **kwargs):
    """Open, replay and close — the recovery read path in one call."""
    with WriteAheadLog(directory, **kwargs) as wal:
        return wal.replay()


class TestAppendReplay:
    def test_lsns_are_dense_from_one(self, wal_dir):
        with WriteAheadLog(wal_dir) as wal:
            assert append(wal, "a", "b", 1) == 1
            assert append(wal, "b", "c", 2) == 2
            first, count = wal.append_edges([("c", "d", 3), ("d", "e", 3)])
            assert (first, count) == (3, 2)
            assert wal.last_lsn == 4
        events = read_all(wal_dir)
        assert [(e.lsn, e.u, e.v, e.t) for e in events] == [
            (1, "a", "b", 1), (2, "b", "c", 2),
            (3, "c", "d", 3), (4, "d", "e", 3),
        ]

    def test_replay_after_filters_by_lsn(self, wal_dir):
        with WriteAheadLog(wal_dir) as wal:
            for i in range(5):
                append(wal, "a", "b", i + 1)
            assert [e.lsn for e in wal.replay(after=3)] == [4, 5]
            assert wal.last_lsn == 5
            assert wal.replay(after=5) == []

    def test_reopen_resumes_lsn_and_watermark(self, wal_dir):
        with WriteAheadLog(wal_dir) as wal:
            append(wal, "a", "b", 7)
            append(wal, "b", "c", 9)
        with WriteAheadLog(wal_dir) as wal:
            assert wal.last_lsn == 2
            assert append(wal, "c", "d", 9) == 3

    def test_empty_wal(self, wal_dir):
        with WriteAheadLog(wal_dir) as wal:
            assert wal.last_lsn == 0
            assert wal.replay() == []

    def test_labels_roundtrip_types(self, wal_dir):
        """Int and str labels survive the JSON framing unchanged."""
        with WriteAheadLog(wal_dir) as wal:
            append(wal, 0, 1, 5)
            append(wal, "x", "y", 6)
        events = read_all(wal_dir)
        assert [(e.u, e.v) for e in events] == [(0, 1), ("x", "y")]

    def test_append_after_close_raises(self, wal_dir):
        wal = WriteAheadLog(wal_dir)
        wal.close()
        with pytest.raises(Exception):
            append(wal, "a", "b", 1)
        wal.close()  # idempotent


class TestTokens:
    def test_dedupe_returns_original_lsn(self, wal_dir):
        with WriteAheadLog(wal_dir) as wal:
            first, count = wal.append_edges([("a", "b", 1)], token="t1")
            assert (first, count) == (1, 1)
            again, count = wal.append_edges([("a", "b", 1)], token="t1")
            assert (again, count) == (1, 1)
            assert wal.last_lsn == 1
            assert wal.lookup_token("t1") == (1, 1)
            assert wal.lookup_token("t2") is None
            # Both answers from the token map count; the miss does not.
            assert counted(wal, "repro_wal_deduped_appends_total") == 2
            assert counted(wal, "repro_wal_fsyncs_total") == 1

    def test_tokens_survive_reopen(self, wal_dir):
        with WriteAheadLog(wal_dir) as wal:
            wal.append_edges([("a", "b", 1), ("b", "c", 2)], token="batch-9")
        with WriteAheadLog(wal_dir) as wal:
            assert wal.lookup_token("batch-9") == (1, 2)
            first, count = wal.append_edges(
                [("a", "b", 1), ("b", "c", 2)], token="batch-9"
            )
            assert (first, count) == (1, 2)
            assert wal.last_lsn == 2


class TestTrimmedTokens:
    """A trim keeps the tokens of the records it drops, up to a bound."""

    def test_kept_tokens_are_bounded(self, wal_dir, monkeypatch):
        """Past the bound the oldest trimmed tokens go, in memory and on
        disk alike: a retry answers the same before and after a restart."""
        monkeypatch.setattr(wal_module, "TRIMMED_TOKENS", 3)
        with WriteAheadLog(wal_dir, segment_bytes=256) as wal:
            for i in range(40):
                wal.append_edges([("a", "b", i + 1)], token=f"t{i}")
            wal.trim(wal.last_lsn)
            floor = int(wal.segment_paths()[0].name[len("wal-"):-len(".seg")])
            live = {f"t{i}" for i in range(floor - 1, 40)}
            kept = {f"t{i}" for i in range(floor - 4, floor - 1)}
            known = {f"t{i}" for i in range(40) if wal.lookup_token(f"t{i}")}
            assert known == live | kept
        with WriteAheadLog(wal_dir, segment_bytes=256) as wal:
            assert {
                f"t{i}" for i in range(40) if wal.lookup_token(f"t{i}")
            } == known


class TestRotationAndTrim:
    def test_rotation_seals_segments(self, wal_dir):
        with WriteAheadLog(wal_dir, segment_bytes=256) as wal:
            for i in range(40):
                append(wal, f"n{i % 7}", f"n{(i + 1) % 7}", i + 1)
            assert len(wal.segment_paths()) > 1
            # Every segment file name carries its base LSN; they must be
            # strictly increasing and start at 1.
            bases = [
                int(p.name[len("wal-"):-len(".seg")])
                for p in wal.segment_paths()
            ]
            assert bases[0] == 1
            assert bases == sorted(bases)
        assert [e.lsn for e in read_all(wal_dir, segment_bytes=256)] == list(
            range(1, 41)
        )

    def test_trim_drops_only_covered_sealed_segments(self, wal_dir):
        with WriteAheadLog(wal_dir, segment_bytes=256) as wal:
            for i in range(40):
                append(wal, "a", "b", i + 1)
            before = len(wal.segment_paths())
            assert before > 2
            dropped = wal.trim(wal.last_lsn)
            # The live segment always survives a trim.
            assert len(wal.segment_paths()) >= 1
            assert dropped == before - len(wal.segment_paths())
            assert wal.replay(after=wal.last_lsn) == []
            # Appends after a trim carry on from the same LSN sequence.
            assert append(wal, "x", "y", 99) == 41

    def test_trim_zero_is_noop(self, wal_dir):
        with WriteAheadLog(wal_dir, segment_bytes=256) as wal:
            for i in range(20):
                append(wal, "a", "b", i + 1)
            paths = wal.segment_paths()
            assert wal.trim(0) == 0
            assert wal.segment_paths() == paths


class TestConcurrentAppends:
    def test_concurrent_appends_assign_unique_lsns(self, wal_dir):
        """Appenders on several threads serialise on the write lock:
        dense, unique LSNs, one fsync per append."""
        wal = WriteAheadLog(wal_dir, segment_bytes=512)
        lsns: list[int] = []
        lock = threading.Lock()

        def worker(tag: int) -> None:
            for i in range(25):
                lsn = append(wal, f"u{tag}", f"v{i}", 1)
                with lock:
                    lsns.append(lsn)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        fsyncs = counted(wal, "repro_wal_fsyncs_total") - counted(
            wal, "repro_wal_rotations_total"
        )
        wal.close()
        assert sorted(lsns) == list(range(1, 101))
        assert fsyncs == 100
        assert len(read_all(wal_dir, segment_bytes=512)) == 100


def segment_record_ends(path) -> list[int]:
    """Byte offsets at which each record of a segment ends."""
    scan = scan_segment(path)
    assert scan.error is None
    data = path.read_bytes()
    ends, offset = [], _HEADER.size
    import struct

    while offset < len(data):
        length = struct.unpack_from("<I", data, offset)[0]
        offset += 8 + length
        ends.append(offset)
    assert ends[-1] == len(data)
    return ends


class TestTornTail:
    """The property at the heart of recovery: truncate anywhere, replay
    exactly the longest valid record prefix — never less, never a
    resurrected suffix."""

    def test_truncation_at_every_byte_boundary(self, tmp_path):
        source = tmp_path / "source"
        with WriteAheadLog(source) as wal:
            for i in range(6):
                append(wal, f"n{i}", f"n{i + 1}", i + 1)
        (segment,) = list(source.glob("wal-*.seg"))
        data = segment.read_bytes()
        ends = segment_record_ends(segment)

        for cut in range(len(data) + 1):
            trial = tmp_path / f"cut{cut}"
            trial.mkdir()
            (trial / segment.name).write_bytes(data[:cut])
            expected = sum(1 for end in ends if end <= cut)
            events = read_all(trial)
            assert len(events) == expected, f"cut at byte {cut}"
            assert [e.lsn for e in events] == list(range(1, expected + 1))
            # Reopening truncated the tail: the file is now exactly the
            # valid prefix (or a fresh header when the cut beheaded it).
            size = (trial / segment.name).stat().st_size
            assert size == (ends[expected - 1] if expected else _HEADER.size)

    def test_flipped_byte_stops_at_damage_never_skips(self, tmp_path):
        """Mid-log damage must not be skipped: records *after* a flipped
        byte are unreachable even though they are individually valid."""
        source = tmp_path / "source"
        with WriteAheadLog(source) as wal:
            for i in range(6):
                append(wal, f"n{i}", f"n{i + 1}", i + 1)
        (segment,) = list(source.glob("wal-*.seg"))
        data = bytearray(segment.read_bytes())
        ends = segment_record_ends(segment)
        # Flip one payload byte inside the third record.
        target = ends[1] + 12
        data[target] ^= 0xFF
        segment.write_bytes(bytes(data))

        scan = scan_segment(segment)
        assert scan.error is not None
        assert len(scan.records) == 2

        events = read_all(source)
        assert [e.lsn for e in events] == [1, 2]

    def test_damage_in_sealed_segment_refuses_to_open(self, tmp_path):
        """Only the *last* segment may be torn; damage earlier in the
        log is corruption the WAL must refuse to paper over."""
        source = tmp_path / "wal"
        with WriteAheadLog(source, segment_bytes=256) as wal:
            for i in range(40):
                append(wal, "a", "b", i + 1)
        segments = sorted(source.glob("wal-*.seg"))
        assert len(segments) > 2
        data = bytearray(segments[0].read_bytes())
        data[-3] ^= 0xFF
        segments[0].write_bytes(bytes(data))
        with pytest.raises(StoreCorruptionError):
            WriteAheadLog(source, segment_bytes=256)

    def test_bad_magic_scans_invalid(self, tmp_path):
        path = tmp_path / "wal-0000000000000001.seg"
        path.write_bytes(b"NOTAWAL!" + b"\x00" * 24)
        scan = scan_segment(path)
        assert scan.valid_bytes == 0
        assert "magic" in scan.error

    def test_torn_header_reopens_empty(self, tmp_path):
        source = tmp_path / "wal"
        with WriteAheadLog(source) as wal:
            append(wal, "a", "b", 1)
        (segment,) = list(source.glob("wal-*.seg"))
        segment.write_bytes(segment.read_bytes()[:4])
        with WriteAheadLog(source) as wal:
            assert wal.last_lsn == 0
            assert wal.replay() == []
            # ... and is usable again.
            assert append(wal, "a", "b", 1) == 1


class TestBackup:
    def test_copy_of_wal_replays_identically(self, tmp_path):
        """A byte-level copy (backup) of the wal directory is as good as
        the original — nothing depends on inode state."""
        source = tmp_path / "a"
        with WriteAheadLog(source, segment_bytes=256) as wal:
            for i in range(30):
                append(wal, "a", "b", i + 1)
        copy = tmp_path / "b"
        shutil.copytree(source, copy)
        assert [
            (e.lsn, e.t) for e in read_all(copy, segment_bytes=256)
        ] == [(i + 1, i + 1) for i in range(30)]
