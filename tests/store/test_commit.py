"""IndexStore.commit: one manifest replace per snapshot, LSN-named
generations, and what a crash before the commit leaves behind."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.maintenance import StreamingCoreService
from repro.core.multik import build_core_indexes
from repro.graph.generators import uniform_random_temporal
from repro.obs.metrics import MetricsRegistry
from repro.store import IndexStore, codec, scrub_store
from repro.store.index_store import LOCK_NAME, MANIFEST_NAME, WAL_DIR
from repro.testing.crashpoints import CRASHPOINT_ENV
from tests.store.crash_harness import (
    CAMPAIGN_KEY,
    KILLED,
    CampaignRun,
    campaign_base,
    campaign_store,
    seed_store,
)

KS = (2, 3, 4)


def referenced(manifest: dict) -> set[str]:
    files = {manifest["graph_file"]}
    files.update(entry["file"] for entry in manifest["indexes"].values())
    return files


@pytest.fixture()
def graph():
    return uniform_random_temporal(30, 300, tmax=40, seed=5)


@pytest.fixture()
def indexes(graph):
    return build_core_indexes(graph, KS)


@pytest.fixture()
def counted(monkeypatch):
    """Counts of fsyncs, manifest writes and fingerprints taken."""
    counts = {"fsync": 0, "manifest": 0, "fingerprint": 0}
    real_fsync = os.fsync
    real_write = IndexStore._write_manifest
    real_fingerprint = codec.graph_fingerprint

    def fsync(fd):
        counts["fsync"] += 1
        real_fsync(fd)

    def write_manifest(self, key, manifest):
        counts["manifest"] += 1
        real_write(self, key, manifest)

    def fingerprint(graph):
        counts["fingerprint"] += 1
        return real_fingerprint(graph)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(IndexStore, "_write_manifest", write_manifest)
    monkeypatch.setattr(codec, "graph_fingerprint", fingerprint)

    def take():
        out = dict(counts)
        counts.update(fsync=0, manifest=0, fingerprint=0)
        return out

    return take


class TestCommit:
    def test_streamed_commit_is_one_manifest_write(
        self, tmp_path, graph, indexes, counted
    ):
        store = IndexStore(tmp_path / "store")
        key = store.commit(graph, indexes.values(), name="s", stream_lsn=30)
        # A blob fsync each, one directory fsync for all of them, then
        # the manifest's own fsync and its directory fsync.
        assert counted() == {
            "fsync": len(KS) + 4, "manifest": 1, "fingerprint": 1,
        }
        manifest = store.manifest(key)
        assert manifest["graph_file"] == "graph-0000000000000030.bin"
        assert {k: entry["file"] for k, entry in manifest["indexes"].items()} == {
            str(k): f"k{k}-0000000000000030.idx" for k in KS
        }
        assert manifest["stream"] == {"lsn": 30}
        for k in KS:
            loaded = store.load_index(graph, k, key=key)
            assert loaded.query(1, graph.tmax, collect=False).num_results \
                == indexes[k].query(1, graph.tmax, collect=False).num_results

    def test_unchanged_fingerprint_rewrites_only_the_manifest(
        self, tmp_path, graph, indexes, counted
    ):
        store = IndexStore(tmp_path / "store")
        store.commit(graph, indexes.values(), name="s", stream_lsn=30)
        files = sorted(os.listdir(store.root / "s"))
        counted()
        store.commit(graph, indexes.values(), name="s", stream_lsn=31)
        assert counted() == {"fsync": 2, "manifest": 1, "fingerprint": 1}
        assert sorted(os.listdir(store.root / "s")) == files
        assert store.stream_lsn("s") == 31
        # Nothing moved at all: nothing is written.
        store.commit(graph, indexes.values(), name="s", stream_lsn=31)
        assert counted() == {"fsync": 0, "manifest": 0, "fingerprint": 1}

    def test_build_all_commits_every_missing_k_at_once(
        self, tmp_path, graph, counted
    ):
        store = IndexStore(tmp_path / "store")
        store.build_all(graph, KS, name="g")
        assert counted()["manifest"] == 1
        manifest = store.manifest("g")
        assert referenced(manifest) == {"graph.bin"} | {f"k{k}.idx" for k in KS}
        assert "stream" not in manifest

    def test_blob_bytes_and_commit_time_are_observable(
        self, tmp_path, graph, indexes
    ):
        registry = MetricsRegistry()
        store = IndexStore(tmp_path / "store", metrics=registry)
        store.commit(graph, indexes.values(), name="s", stream_lsn=1)
        store.commit(graph, indexes.values(), name="s", stream_lsn=2)
        written = registry.get("repro_store_blob_bytes_written_total")
        directory = store.root / "s"
        manifest = store.manifest("s")
        index_bytes = sum(
            (directory / entry["file"]).stat().st_size
            for entry in manifest["indexes"].values()
        )
        assert written.labels(store.instance, "graph").value \
            == (directory / manifest["graph_file"]).stat().st_size
        assert written.labels(store.instance, "index").value == index_bytes
        commits = registry.get("repro_store_commit_seconds")
        assert commits.labels(store.instance).count == 2
        text = registry.render_prometheus()
        assert "repro_store_blob_bytes_written_total" in text
        assert "repro_store_commit_seconds_bucket" in text


class TestGenerations:
    def test_directory_holds_only_the_committed_generation(self, tmp_path):
        store = IndexStore(tmp_path / "store")
        service = StreamingCoreService((2, 3), wal=store.wal("s"))
        edges = uniform_random_temporal(20, 200, tmax=40, seed=3).edges
        directory = store.root / "s"
        for step in range(4):
            for u, v, t in edges[step * 50:(step + 1) * 50]:
                service.append(u, v, t)
            service.snapshot(store, name="s")
            manifest = json.loads((directory / MANIFEST_NAME).read_text())
            lsn = service.wal.last_lsn
            assert manifest["stream"] == {"lsn": lsn}
            assert manifest["graph_file"] == f"graph-{lsn:016d}.bin"
            assert set(os.listdir(directory)) \
                == referenced(manifest) | {MANIFEST_NAME, WAL_DIR, LOCK_NAME}
        # An offline save into the streamed key supersedes its entry.
        store.save_index(service.built[1][2], name="s")
        manifest = store.manifest("s")
        assert manifest["indexes"]["2"]["file"] == "k2.idx"
        assert set(os.listdir(directory)) \
            == referenced(manifest) | {MANIFEST_NAME, WAL_DIR, LOCK_NAME}
        service.wal.close()
        assert scrub_store(store.root).clean

    def test_crash_before_commit_leaves_orphans_fsck_sets_aside(self, tmp_path):
        root = seed_store(campaign_store(tmp_path))
        run = CampaignRun(root)
        directory = root / CAMPAIGN_KEY
        # The daemon dies in the second snapshot (a read's lag flush),
        # with the new generation's blobs durable and the manifest still
        # the first flush's.
        life = run.live(
            {CRASHPOINT_ENV: "snapshot.post-blobs.pre-commit:2"}
        )
        assert life.returncode == KILLED
        first, second = [
            position for position, step in enumerate(run.plan)
            if step.op != "append"
        ][:2]
        assert run.position == second

        def lsn(position):
            """The stream LSN once every append before ``position`` landed."""
            return sum(len(step.edges) for step in run.plan[:position])

        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        assert manifest["stream"] == {"lsn": lsn(first)}
        uncommitted = {
            f"{name}-{lsn(second):016d}.{ext}"
            for name, ext in (("graph", "bin"), ("k2", "idx"), ("k4", "idx"))
        }
        assert uncommitted <= set(os.listdir(directory))
        assert not uncommitted & referenced(manifest)

        report = scrub_store(root)
        assert {
            (os.path.basename(issue.path), issue.kind, issue.action)
            for issue in report.issues
        } == {(name, "orphan", "quarantined") for name in uncommitted}
        assert scrub_store(root).clean
        # The old snapshot plus the WAL still hold every acked append.
        recovery = IndexStore(root).recover(CAMPAIGN_KEY)
        recovery.wal.close()
        assert recovery.snapshot_lsn == lsn(first)
        assert recovery.graph.num_edges - len(campaign_base()) \
            + recovery.replayed == lsn(second)
