"""Store scrubber: quarantine-never-delete, repair of rebuildables."""

from __future__ import annotations

import json

import pytest

from repro.core.index import CoreIndex
from repro.errors import StoreCorruptionError
from repro.store import IndexStore, scrub_store
from repro.store.index_store import MANIFEST_NAME
from repro.store.wal import TOKENS_NAME, WriteAheadLog


@pytest.fixture()
def populated(tmp_path, paper_graph):
    """A store with one key: graph + k=2 index + a short WAL."""
    root = tmp_path / "store"
    store = IndexStore(root)
    store.save_graph(paper_graph, name="g")
    store.save_index(CoreIndex(paper_graph, 2), name="g")
    with store.wal("g") as wal:
        for i in range(4):
            wal.append_edges([("a", "b", i + 1)])
    return root


def flip_byte(path, offset=-4):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


class TestCleanStore:
    def test_clean_report(self, populated):
        report = scrub_store(populated)
        assert report.clean
        assert report.issues == []
        assert report.scanned_files >= 3

    def test_render_and_dict(self, populated):
        report = scrub_store(populated)
        assert "clean" in report.render()
        payload = report.to_dict()
        assert payload["clean"] is True
        assert payload["issues"] == []

    def test_missing_root_rejected(self, tmp_path):
        from repro.errors import StoreError

        with pytest.raises(StoreError):
            scrub_store(tmp_path / "void")

    def test_empty_root_is_clean(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert scrub_store(tmp_path / "empty").clean

    def test_accepts_store_instance(self, populated):
        assert scrub_store(IndexStore(populated)).clean


class TestCorruptBlobs:
    def test_corrupt_index_quarantined_and_entry_dropped(self, populated):
        index_path = populated / "g" / "k2.idx"
        flip_byte(index_path)
        blob_bytes = index_path.read_bytes()

        report = scrub_store(populated)
        assert not report.clean
        kinds = {issue.kind for issue in report.issues}
        assert "index" in kinds
        # The damaged blob was moved aside byte-for-byte, never deleted.
        assert not index_path.exists()
        quarantined = populated / "g" / "k2.idx.corrupt"
        assert quarantined.read_bytes() == blob_bytes
        # The manifest no longer references it — the store reopens clean
        # and the index is simply rebuildable.
        store = IndexStore(populated)
        assert store.stored_ks("g") == []
        assert store.load_graph("g") is not None
        assert scrub_store(populated).clean

    def test_corrupt_graph_quarantined_not_deleted(self, populated):
        manifest = json.loads(
            (populated / "g" / MANIFEST_NAME).read_text()
        )
        graph_path = populated / "g" / manifest["graph_file"]
        flip_byte(graph_path)
        report = scrub_store(populated)
        assert any(
            issue.kind == "graph" and issue.action == "quarantined"
            for issue in report.issues
        )
        assert not graph_path.exists()
        assert graph_path.with_name(graph_path.name + ".corrupt").exists()

    def test_missing_index_entry_repaired(self, populated):
        (populated / "g" / "k2.idx").unlink()
        report = scrub_store(populated)
        assert any(
            issue.kind == "index" and issue.action == "repaired"
            for issue in report.issues
        )
        assert IndexStore(populated).stored_ks("g") == []

    def test_unparseable_manifest_quarantined(self, populated):
        (populated / "g" / MANIFEST_NAME).write_text("{nope")
        report = scrub_store(populated)
        assert any(
            issue.kind == "manifest" and issue.action == "quarantined"
            for issue in report.issues
        )
        assert (populated / "g" / (MANIFEST_NAME + ".corrupt")).exists()

    def test_quarantine_names_never_collide(self, populated):
        """Two scrub passes over twice-corrupted data keep both bodies."""
        index_path = populated / "g" / "k2.idx"
        flip_byte(index_path)
        scrub_store(populated)
        # Recreate a damaged file under the same name and scrub again —
        # requires a manifest entry pointing at it again.
        manifest_path = populated / "g" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest.setdefault("indexes", {})["2"] = {"file": "k2.idx"}
        manifest_path.write_text(json.dumps(manifest))
        index_path.write_bytes(b"garbage body")
        scrub_store(populated)
        assert (populated / "g" / "k2.idx.corrupt").exists()
        assert (populated / "g" / "k2.idx.corrupt.1").exists()


class TestWalScrub:
    def test_torn_tail_repaired(self, populated):
        (segment,) = sorted((populated / "g" / "wal").glob("wal-*.seg"))
        data = segment.read_bytes()
        segment.write_bytes(data[:-3])
        report = scrub_store(populated)
        assert any(
            issue.kind == "wal" and issue.action == "repaired"
            for issue in report.issues
        )
        # The torn bytes were preserved aside, the segment truncated to
        # its valid prefix, and the WAL reopens with the surviving records.
        quarantined = list((populated / "g" / "wal").glob("*.corrupt*"))
        assert quarantined
        with WriteAheadLog(populated / "g" / "wal") as wal:
            assert wal.last_lsn == 3
        assert scrub_store(populated).clean

    def test_midlog_damage_quarantines_segment(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        wal_dir = root / "g" / "wal"
        with WriteAheadLog(wal_dir, segment_bytes=256) as wal:
            for i in range(40):
                wal.append_edges([("a", "b", i + 1)])
        segments = sorted(wal_dir.glob("wal-*.seg"))
        assert len(segments) > 2
        flip_byte(segments[0], offset=20)
        report = scrub_store(root)
        wal_issues = [i for i in report.issues if i.kind == "wal"]
        assert wal_issues
        # The damaged segment and everything after it (now untrustworthy)
        # were quarantined; nothing was deleted.
        assert not segments[0].exists()
        assert list(wal_dir.glob("*.corrupt*"))

    def test_unreadable_tokens_quarantined(self, tmp_path):
        root = tmp_path / "store"
        wal_dir = root / "g" / "wal"
        with WriteAheadLog(wal_dir, segment_bytes=256) as wal:
            for i in range(40):
                wal.append_edges([("a", "b", i + 1)], token=f"t{i}")
            wal.trim(wal.last_lsn)
            last = wal.last_lsn
        (wal_dir / TOKENS_NAME).write_text("{not json")
        with pytest.raises(StoreCorruptionError):
            WriteAheadLog(wal_dir)
        report = scrub_store(root)
        assert [(i.kind, i.action) for i in report.issues] \
            == [("wal", "quarantined")]
        # Every record still opens; only the trimmed tokens are gone.
        with WriteAheadLog(wal_dir) as wal:
            assert wal.last_lsn == last
            assert wal.lookup_token("t0") is None
        assert scrub_store(root).clean


class TestDryRun:
    def test_dry_run_touches_nothing(self, populated):
        index_path = populated / "g" / "k2.idx"
        flip_byte(index_path)
        snapshot = {
            p: p.read_bytes()
            for p in populated.rglob("*")
            if p.is_file() and p.name != ".lock"
        }
        report = scrub_store(populated, repair=False)
        assert not report.clean
        assert all(
            issue.action in ("would-quarantine", "would-repair", "reported")
            for issue in report.issues
        )
        after = {
            p: p.read_bytes()
            for p in populated.rglob("*")
            if p.is_file() and p.name != ".lock"
        }
        assert after == snapshot


class TestOrphans:
    def test_stray_tmp_reported_not_removed(self, populated):
        stray = populated / "g" / (MANIFEST_NAME + ".tmp.12345")
        stray.write_text("{}")
        report = scrub_store(populated)
        assert any(
            issue.kind == "orphan" and issue.action == "reported"
            for issue in report.issues
        )
        assert stray.exists()

    def test_quarantined_files_not_reflagged(self, populated):
        flip_byte(populated / "g" / "k2.idx")
        scrub_store(populated)
        report = scrub_store(populated)
        assert report.clean
