"""IndexStore.commit: one manifest replace per snapshot, LSN-named
generations, and what a crash before the commit leaves behind."""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.core.maintenance import StreamingCoreService
from repro.core.multik import build_core_indexes
from repro.graph.generators import uniform_random_temporal
from repro.obs.metrics import MetricsRegistry
from repro.store import IndexStore, codec, format, scrub_store
from repro.store.index_store import LOCK_NAME, MANIFEST_NAME, WAL_DIR
from repro.testing.crashpoints import CRASHPOINT_ENV
from tests.serve.daemon.conftest import SRC
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
def other():
    """A second graph, so a commit under the same key supersedes the first."""
    graph = uniform_random_temporal(30, 300, tmax=40, seed=6)
    return graph, build_core_indexes(graph, KS)


needs_proc_fds = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="names descriptors via /proc/self/fd"
)


def fd_path(fd: int) -> str:
    return os.readlink(f"/proc/self/fd/{fd}")


def is_blob_temp(path: str) -> bool:
    return ".tmp." in path and not os.path.basename(path).startswith("manifest.")


@pytest.fixture()
def io_log(monkeypatch):
    """Every fsync (by its descriptor's path, once it returns), rename
    and unlink, from any thread, in the order they happened.

    A blob temp file's fsync takes 10 ms first, so a rename that does
    not wait for it lands before it.
    """
    events: list[tuple] = []
    real_fsync, real_replace, real_unlink = os.fsync, os.replace, os.unlink

    def fsync(fd):
        path = fd_path(fd)
        if is_blob_temp(path):
            time.sleep(0.01)
        real_fsync(fd)
        events.append(("fsync", path))

    def replace(src, dst):
        real_replace(src, dst)
        events.append(("replace", os.fspath(src), os.fspath(dst)))

    def unlink(path, *args, **kwargs):
        real_unlink(path, *args, **kwargs)
        events.append(("unlink", os.fspath(path)))

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "unlink", unlink)
    return events


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


def run_script(script: str) -> str:
    """Run ``script`` in a fresh interpreter; returns its stripped stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def check_durable_order(events: list[tuple], directory, superseded: set[str]) -> None:
    """One commit's I/O, in the order DURABILITY.md promises."""
    directory = os.path.realpath(directory)
    position = {event: at for at, event in enumerate(events)}
    fsyncs = [event for event in events if event[0] == "fsync"]
    blob_renames = [
        event for event in events
        if event[0] == "replace" and os.path.basename(event[2]) != MANIFEST_NAME
    ]
    (manifest_rename,) = [
        event for event in events
        if event[0] == "replace" and os.path.basename(event[2]) == MANIFEST_NAME
    ]
    first_dir_sync, second_dir_sync = [
        at for at, event in enumerate(events) if event == ("fsync", directory)
    ]
    # A blob fsync each, the directory's, the manifest's and its directory's.
    assert len(fsyncs) == len(blob_renames) + 3
    for rename in blob_renames:
        assert position[("fsync", os.path.realpath(rename[1]))] < position[rename]
        assert position[rename] < first_dir_sync
    assert first_dir_sync < position[manifest_rename] < second_dir_sync
    unlinks = [at for at, event in enumerate(events) if event[0] == "unlink"]
    assert all(at > second_dir_sync for at in unlinks)
    assert {os.path.basename(events[at][1]) for at in unlinks} == superseded


@needs_proc_fds
class TestDurableOrder:
    def test_streamed_commit(self, tmp_path, graph, indexes, other, io_log):
        store = IndexStore(tmp_path / "store")
        store.commit(graph, indexes.values(), name="s", stream_lsn=30)
        assert store.lock_info("s") is None
        check_durable_order(io_log, store.root / "s", set())
        assert len([e for e in io_log if e[0] == "fsync"]) == len(KS) + 4
        old = referenced(store.manifest("s"))

        io_log.clear()
        graph_b, indexes_b = other
        store.commit(graph_b, indexes_b.values(), name="s", stream_lsn=40)
        assert store.lock_info("s") is None
        check_durable_order(io_log, store.root / "s", old)
        assert len([e for e in io_log if e[0] == "fsync"]) == len(KS) + 4

    def test_offline_commit(self, tmp_path, graph, indexes, other, io_log):
        store = IndexStore(tmp_path / "store")
        store.commit(graph, indexes.values(), name="o")
        assert store.lock_info("o") is None
        check_durable_order(io_log, store.root / "o", set())
        assert len([e for e in io_log if e[0] == "fsync"]) == len(KS) + 4

        # A different graph with fewer ks: graph.bin and k2.idx are
        # renamed over, the other ks' blobs are superseded.
        io_log.clear()
        graph_b, indexes_b = other
        store.commit(graph_b, (indexes_b[KS[0]],), name="o")
        assert store.lock_info("o") is None
        check_durable_order(
            io_log, store.root / "o", {f"k{k}.idx" for k in KS[1:]}
        )


class TestReclaim:
    def test_back_to_back_snapshots_never_poll(
        self, tmp_path, graph, indexes, other, monkeypatch
    ):
        def no_sleep(seconds):
            raise AssertionError(f"slept {seconds} s waiting for a lock")

        monkeypatch.setattr("repro.store.index_store.time.sleep", no_sleep)
        # Two stores over one root share the directory's pending reclaims.
        stores = [IndexStore(tmp_path / "store") for _ in range(2)]
        generations = [(graph, indexes), other]
        for lsn in range(1, 9):
            snapshot, built = generations[lsn % 2]
            stores[lsn % 2].commit(snapshot, built.values(), name="s", stream_lsn=lsn)
        assert stores[0].lock_info("s") is None
        assert set(os.listdir(stores[0].root / "s")) \
            == referenced(stores[0].manifest("s")) | {MANIFEST_NAME, LOCK_NAME}

    def test_lock_reads_free_as_soon_as_commit_returns(
        self, tmp_path, graph, indexes, other
    ):
        registry = MetricsRegistry()
        store = IndexStore(tmp_path / "store", metrics=registry)
        store.commit(graph, indexes.values(), name="s", stream_lsn=1)
        graph_b, indexes_b = other
        store.commit(graph_b, indexes_b.values(), name="s", stream_lsn=2)
        assert store.lock_info("s") is None
        assert set(os.listdir(store.root / "s")) \
            == referenced(store.manifest("s")) | {MANIFEST_NAME, LOCK_NAME}
        reclaims = registry.get("repro_store_reclaim_seconds")
        assert reclaims.labels(store.instance).count == 2

    def test_scrub_waits_for_the_reclaim(self, tmp_path, graph, indexes, other):
        store = IndexStore(tmp_path / "store")
        store.commit(graph, indexes.values(), name="s", stream_lsn=1)
        graph_b, indexes_b = other
        store.commit(graph_b, indexes_b.values(), name="s", stream_lsn=2)
        # Not one superseded blob is taken for an orphan.
        assert scrub_store(store.root).clean

    def test_commit_from_a_thread_outliving_the_main_one(self, tmp_path):
        """A commit made while the interpreter exits (its I/O executor
        already shut down) still writes, reclaims and unlocks."""
        root = tmp_path / "store"
        script = textwrap.dedent(
            f"""
            import threading, time
            from repro.graph.generators import uniform_random_temporal
            from repro.store import IndexStore

            def late():
                time.sleep(0.3)
                store = IndexStore({str(root)!r})
                for seed in (1, 2):
                    graph = uniform_random_temporal(10, 40, tmax=8, seed=seed)
                    store.commit(graph, name="s", stream_lsn=seed)
                print("committed", flush=True)

            threading.Thread(target=late).start()
            """
        )
        assert run_script(script) == "committed"
        store = IndexStore(root)
        assert store.lock_info("s") is None
        assert store.stream_lsn("s") == 2
        assert set(os.listdir(root / "s")) \
            == referenced(store.manifest("s")) | {MANIFEST_NAME, LOCK_NAME}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_commits_with_its_own_io_thread(self, tmp_path):
        """A child forked after a commit (the parent's I/O thread and
        its reclaim left behind) commits the same key, and exits."""
        root = tmp_path / "store"
        script = textwrap.dedent(
            f"""
            import os, signal, sys
            from repro.graph.generators import uniform_random_temporal
            from repro.store import IndexStore

            store = IndexStore({str(root)!r})
            for seed in (1, 2):
                graph = uniform_random_temporal(10, 40, tmax=8, seed=seed)
                store.commit(graph, name="s", stream_lsn=seed)
            pid = os.fork()
            if pid == 0:
                signal.alarm(20)
                graph = uniform_random_temporal(10, 40, tmax=8, seed=3)
                IndexStore({str(root)!r}).commit(graph, name="s", stream_lsn=3)
                sys.exit(0)
            print("child", os.waitpid(pid, 0)[1], flush=True)
            """
        )
        assert run_script(script) == "child 0"
        store = IndexStore(root)
        assert store.stream_lsn("s") == 3
        assert set(os.listdir(root / "s")) \
            == referenced(store.manifest("s")) | {MANIFEST_NAME, LOCK_NAME}


@needs_proc_fds
class TestFaultPath:
    def test_second_blob_fsync_fails_on_the_io_thread(
        self, tmp_path, graph, indexes, other, monkeypatch
    ):
        store = IndexStore(tmp_path / "store")
        store.commit(graph, indexes.values(), name="s", stream_lsn=1)
        committed = (store.root / "s" / MANIFEST_NAME).read_bytes()
        events: list[tuple] = []
        blob_fsyncs: list[str] = []
        real_fsync, real_open = os.fsync, open
        real_write_manifest = IndexStore._write_manifest

        def fsync(fd):
            try:
                if is_blob_temp(fd_path(fd)):
                    blob_fsyncs.append(threading.current_thread().name)
                    if len(blob_fsyncs) == 2:
                        raise OSError(errno.ENOSPC, "injected: no space left")
                    time.sleep(0.02)
                real_fsync(fd)
            finally:
                events.append(("fsync", fd))

        class Recorded:
            """A temp file handle that logs its close."""

            def __init__(self, handle):
                self._handle = handle

            def __getattr__(self, name):
                return getattr(self._handle, name)

            def close(self):
                events.append(("close", self._handle.name))
                self._handle.close()

        def recording_open(path, mode="r", *args, **kwargs):
            handle = real_open(path, mode, *args, **kwargs)
            return Recorded(handle) if "w" in mode else handle

        def write_manifest(self, key, manifest):
            events.append(("manifest", key))
            real_write_manifest(self, key, manifest)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(format, "open", recording_open, raising=False)
        monkeypatch.setattr(IndexStore, "_write_manifest", write_manifest)
        graph_b, indexes_b = other
        # Largest index first: blobs are written, and so fsynced, in the
        # order they are renamed, and the commit meets the failed fsync
        # while the later ones are still queued.
        largest_first = sorted(
            indexes_b.values(),
            key=lambda index: index.vct.size() + index.ecs.size(),
            reverse=True,
        )
        with pytest.raises(OSError) as raised:
            store.commit(graph_b, largest_first, name="s", stream_lsn=2)
        assert raised.value.errno == errno.ENOSPC

        # Every blob's fsync ran on the I/O thread, and every one had
        # resolved before the first temp handle closed; the manifest
        # was never touched.
        assert len(blob_fsyncs) == len(KS) + 1
        assert all(name.startswith("repro-store-io") for name in blob_fsyncs)
        closes = [at for at, event in enumerate(events) if event[0] == "close"]
        syncs = [at for at, event in enumerate(events) if event[0] == "fsync"]
        assert len(syncs) == len(closes) == len(KS) + 1
        assert max(syncs) < min(closes)
        assert not [event for event in events if event[0] == "manifest"]
        assert (store.root / "s" / MANIFEST_NAME).read_bytes() == committed

        # The lock is free, and the next commit goes through at once.
        monkeypatch.undo()

        def no_sleep(seconds):
            raise AssertionError(f"slept {seconds} s waiting for a lock")

        monkeypatch.setattr("repro.store.index_store.time.sleep", no_sleep)
        assert store.lock_info("s") is None
        store.commit(graph_b, indexes_b.values(), name="s", stream_lsn=2)
        assert store.stream_lsn("s") == 2
        assert scrub_store(store.root).clean


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
            # The superseded generation is reclaimed once the lock frees.
            assert store.lock_info("s") is None
            assert set(os.listdir(directory)) \
                == referenced(manifest) | {MANIFEST_NAME, WAL_DIR, LOCK_NAME}
        # An offline save into the streamed key supersedes its entry.
        store.save_index(service.built[1][2], name="s")
        assert store.lock_info("s") is None
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
