"""The :class:`IndexStore` — a directory of persisted graphs and indexes.

Layout (one sub-directory per graph)::

    <root>/
        <key>/
            manifest.json       # format version, fingerprint, file table
            graph.bin           # compiled-graph blob
            k3.idx              # core-index blob for k = 3
            k5.idx              # ...one per persisted k
            wal/                # write-ahead log of a streamed key

A streamed key's snapshots name their blobs after the WAL position they
cover (``graph-<lsn>.bin``, ``k3-<lsn>.idx``) and record it as
``"stream": {"lsn": ...}`` in the manifest.

``manifest.json`` schema::

    {
      "format_version": 1,
      "fingerprint": {"num_vertices": ..., "num_edges": ..., "tmax": ...,
                       "raw_span": [lo, hi], "edge_crc32": ...},
      "graph_file": "graph.bin",
      "indexes": {"3": {"file": "k3.idx", "vct_size": ..., "ecs_size": ...}}
    }

Graphs are matched by *fingerprint*, never by name: ``load_index(graph,
k)`` fingerprints the live graph, finds the matching directory and opens
the blob — so any process holding an equal graph gets the cached index
regardless of how either process named it.  Integrity failures
(truncation, checksum, fingerprint drift) make an entry read as absent;
callers rebuild and overwrite, they never serve corrupt data.  Every
write goes through :meth:`IndexStore.commit`: blobs first (temp file,
fsync, ``os.replace``), then one atomic manifest replace.  The blob
fsyncs, and the reclaim after the manifest replace (the superseded
generation's unlinks and the writer lock's release), run on the
process-wide store I/O thread (:func:`repro.store.format.submit_io`);
:func:`settle_reclaims` waits for a directory's pending reclaim.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import pathlib
import threading
import time
import zlib
from collections.abc import Iterable
from concurrent.futures import Future
from dataclasses import dataclass, field

try:  # POSIX advisory locking; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.core.index import CoreIndex
from repro.core.multik import _validated_ks, build_core_indexes
from repro.errors import StoreCorruptionError, StoreError
from repro.graph.temporal_graph import TemporalGraph
from repro.obs.metrics import MetricsRegistry, get_registry, next_instance, timing_enabled
from repro.obs.timing import now
from repro.store import codec
from repro.store.format import FORMAT_VERSION, fsync_dir, submit_io, write_blobs
from repro.store.wal import WalEvent, WriteAheadLog
from repro.testing.crashpoints import crashpoint

MANIFEST_NAME = "manifest.json"
GRAPH_FILE = "graph.bin"
LOCK_NAME = ".lock"
WAL_DIR = "wal"

log = logging.getLogger("repro.store")

#: Seconds between contention polls while waiting for a directory lock.
LOCK_POLL_SECONDS = 0.05

#: Each key directory's pending reclaim (a commit's superseded-blob
#: unlinks and writer-lock release, run on the store I/O thread), by
#: absolute path.  Process-wide: every store over a root shares its
#: directories' locks, and so must wait on the same reclaims.
_reclaims: dict[str, Future] = {}
_reclaims_lock = threading.Lock()


def _forget_reclaims() -> None:
    """In a forked child: the parent's reclaims run, and release their
    locks, in the parent."""
    global _reclaims_lock
    _reclaims.clear()
    _reclaims_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_reclaims)


def _defer_reclaim(directory: pathlib.Path, job, *args) -> None:
    """Run a commit's reclaim ``job(*args)`` on the store I/O thread."""
    path = os.path.abspath(directory)
    with _reclaims_lock:
        future = submit_io(job, *args)
        _reclaims[path] = future
    future.add_done_callback(lambda done: _reclaimed(path, done))


def _reclaimed(path: str, future: Future) -> None:
    with _reclaims_lock:
        if _reclaims.get(path) is future:
            del _reclaims[path]
    failure = future.exception()
    if failure is not None:
        log.error("reclaim in %s failed", path, exc_info=failure)


def settle_reclaims(path: str | os.PathLike[str]) -> None:
    """Wait for every pending reclaim of a key directory at or under ``path``.

    A commit returns once its manifest is durable; the unlinks of the
    generation it superseded and the release of its writer lock follow
    on the store I/O thread.  Whatever in this process next locks,
    inspects or scrubs the directory waits here first, so it sees the
    commit's end state rather than polling a lock held for a reclaim.
    """
    prefix = os.path.abspath(path)
    with _reclaims_lock:
        pending = [
            future
            for directory, future in _reclaims.items()
            if directory == prefix or directory.startswith(prefix + os.sep)
        ]
    for future in pending:
        future.exception()


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process on this machine."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by another user
        return True
    except OSError:  # pragma: no cover - platform oddities read as alive
        return True
    return True


def _read_lock_owner(path: pathlib.Path) -> dict | None:
    """The owner metadata a writer recorded in the lock file, if any."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8") or "null")
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or "pid" not in payload:
        return None
    return payload


def _release_dir_lock(handle) -> None:
    """Release a directory lock taken by :meth:`IndexStore._lock_dir`."""
    if handle is None:  # pragma: no cover - non-POSIX fallback
        return
    with contextlib.suppress(OSError):
        # Clear the owner stamp *before* releasing: a contender must
        # never read our metadata once the flock is free.
        handle.seek(0)
        handle.truncate()
        handle.flush()
    with contextlib.suppress(OSError):
        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
    handle.close()


def _blob_files(manifest: dict) -> set[str]:
    """The blob file names a manifest references."""
    files = {manifest.get("graph_file", GRAPH_FILE)}
    files.update(entry["file"] for entry in manifest.get("indexes", {}).values())
    return files


@dataclass
class StreamRecovery:
    """What :meth:`IndexStore.recover` reassembled for one key.

    ``graph`` is the last durably snapshotted graph (``None`` when the
    key has only WAL records, no snapshot yet); ``snapshot_lsn`` is the
    stream LSN that snapshot covers (0 when none); ``events`` are the
    durable WAL records *past* the snapshot, oldest first — exactly the
    appends a rebuilt service must re-apply; ``wal`` is the opened log,
    ready for further appends at the right LSN.
    """

    key: str
    graph: TemporalGraph | None
    snapshot_lsn: int
    events: list[WalEvent] = field(default_factory=list)
    wal: WriteAheadLog | None = None

    @property
    def replayed(self) -> int:
        return len(self.events)


class IndexStore:
    """Durable store of compiled graphs and their core indexes.

    Parameters
    ----------
    root:
        Store directory; created (with parents) when missing.
    lock_timeout:
        Upper bound, in seconds, on how long a writer waits for a graph
        directory's advisory lock before raising :class:`StoreError`
        naming the recorded holder.  ``None`` (default) waits
        indefinitely — but stale-lock recovery still applies either
        way: a lock whose recorded writer died is taken over rather
        than waited on (see :meth:`_lock_dir`; takeovers are counted
        in ``stale_takeovers``).

    Staleness and invalidation: entries are matched by content
    *fingerprint*, so an index saved for one graph can never be served
    for a different (or since-changed) one — it simply stops matching
    and reads as absent, and the caller rebuilds.  Nothing in the store
    is ever updated in place; writes are whole-file (temp + rename).

    Thread/process-safety: instances hold no mutable state beyond the
    root path — share them freely across threads.  Writers serialise
    per graph directory via an advisory ``flock``; readers never lock
    and see a consistent before-or-after state (see
    ``docs/STORE_FORMAT.md`` for the full on-disk contract).
    """

    def __init__(
        self,
        root: str | os.PathLike[str],
        *,
        lock_timeout: float | None = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if lock_timeout is not None and lock_timeout < 0:
            raise StoreError(f"lock_timeout must be >= 0, got {lock_timeout}")
        self.lock_timeout = lock_timeout
        # Store bookkeeping lives in the metrics registry (the process
        # default unless ``metrics=`` isolates it); this instance's
        # series carry a unique ``store`` label, and the legacy
        # ``stale_takeovers`` attribute reads back through it.
        self.metrics = metrics if metrics is not None else get_registry()
        self.instance = next_instance("store")
        m, inst = self.metrics, self.instance
        self._c_stale_takeovers = m.counter(
            "repro_store_stale_takeovers_total",
            "Dead-writer lock files rotated out of the way",
            ("store",),
        ).labels(inst)
        self._c_graph_loads = m.counter(
            "repro_store_graph_loads_total",
            "Graph blobs opened",
            ("store",),
        ).labels(inst)
        self._c_graph_saves = m.counter(
            "repro_store_graph_saves_total",
            "Graph blobs written (idempotent re-saves not counted)",
            ("store",),
        ).labels(inst)
        self._c_index_saves = m.counter(
            "repro_store_index_saves_total",
            "Index blobs written",
            ("store",),
        ).labels(inst)
        index_loads = m.counter(
            "repro_store_index_loads_total",
            "Index load attempts by outcome (miss = absent/stale/corrupt)",
            ("store", "outcome"),
        )
        self._c_index_load_hits = index_loads.labels(inst, "hit")
        self._c_index_load_misses = index_loads.labels(inst, "miss")
        self._h_lock_wait = m.histogram(
            "repro_store_lock_wait_seconds",
            "Time spent acquiring a graph directory's writer lock",
            ("store",),
        ).labels(inst)
        corrupt = m.counter(
            "repro_store_corrupt_blobs_total",
            "Blob opens that failed integrity checks, by blob kind",
            ("store", "kind"),
        )
        self._c_corrupt_graph = corrupt.labels(inst, "graph")
        self._c_corrupt_index = corrupt.labels(inst, "index")
        blob_bytes = m.counter(
            "repro_store_blob_bytes_written_total",
            "Blob bytes written by commits, by blob kind",
            ("store", "kind"),
        )
        self._c_blob_bytes_graph = blob_bytes.labels(inst, "graph")
        self._c_blob_bytes_index = blob_bytes.labels(inst, "index")
        self._h_commit = m.histogram(
            "repro_store_commit_seconds",
            "Time per commit: blob writes, fsyncs and the manifest replace",
            ("store",),
        ).labels(inst)
        self._h_reclaim = m.histogram(
            "repro_store_reclaim_seconds",
            "Time per commit reclaim on the store I/O thread: superseded-blob "
            "unlinks and the writer lock's release",
            ("store",),
        ).labels(inst)

    def __repr__(self) -> str:
        return f"IndexStore({str(self.root)!r}, graphs={len(self.keys())})"

    @property
    def stale_takeovers(self) -> int:
        """Dead-writer lock rotations (view over the metrics registry)."""
        return int(self._c_stale_takeovers.value)

    def stats(self) -> dict:
        """This store's counters, as a plain dict view over the registry."""
        return {
            "graph_loads": int(self._c_graph_loads.value),
            "graph_saves": int(self._c_graph_saves.value),
            "index_saves": int(self._c_index_saves.value),
            "index_load_hits": int(self._c_index_load_hits.value),
            "index_load_misses": int(self._c_index_load_misses.value),
            "stale_takeovers": self.stale_takeovers,
            "root": str(self.root),
        }

    # ------------------------------------------------------------------
    # Manifests
    # ------------------------------------------------------------------

    def keys(self) -> list[str]:
        """Keys of every graph directory holding a readable manifest."""
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and self._read_manifest(entry.name) is not None
        )

    def only_key(self, key: str | None = None) -> str:
        """Resolve ``key``, defaulting to the store's sole graph.

        The serving front ends (CLI ``query --store``, the daemon) let
        callers omit the graph key when the store holds exactly one
        graph.  Passing a key validates it exists; passing ``None``
        against an empty or multi-graph store raises a
        :class:`StoreError` naming the available keys.
        """
        keys = self.keys()
        if key is not None:
            if key not in keys:
                raise StoreError(
                    f"no stored graph under key {key!r} in {self.root} "
                    f"(available: {keys})"
                )
            return key
        if len(keys) != 1:
            raise StoreError(
                f"store {self.root} holds {len(keys)} graphs "
                f"(available: {keys}); pass an explicit key"
            )
        return keys[0]

    def manifest(self, key: str) -> dict:
        """The manifest of ``key`` (raises :class:`StoreError` if absent)."""
        manifest = self._read_manifest(key)
        if manifest is None:
            raise StoreError(f"no stored graph under key {key!r} in {self.root}")
        return manifest

    def _read_manifest(self, key: str) -> dict | None:
        try:
            with open(self.root / key / MANIFEST_NAME, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError):
            return None
        if manifest.get("format_version") != FORMAT_VERSION:
            return None
        return manifest

    def _write_manifest(self, key: str, manifest: dict) -> None:
        final = self.root / key / MANIFEST_NAME
        tmp = final.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        crashpoint("manifest.post-temp.pre-rename")
        os.replace(tmp, final)
        crashpoint("manifest.post-rename")
        fsync_dir(final.parent)

    def _lock_dir(self, directory: pathlib.Path):
        """Advisory exclusive lock on a graph directory's writers.

        Returns the lock file's open handle, for :func:`_release_dir_lock`
        (``None`` where ``fcntl`` is unavailable: no locking).
        Serialises manifest read-modify-write across *processes* (two
        concurrent ``save_index`` calls for different ``k`` must not
        lose each other's entries).  Readers never take the lock — blob
        and manifest writes are individually atomic, so an unlocked
        reader sees a consistent before-or-after state.

        Hardened against stale locks: the holder records ``{pid,
        acquired_at}`` in the lock file while it works (cleared on
        release), and a contender that cannot acquire checks the
        recorded writer's liveness.  A SIGKILL'd writer normally needs
        no help — the kernel drops its ``flock`` with its last open
        descriptor — but where the lock is held *past* its writer's
        death (an fd leaked to a child, emulated ``flock`` on network
        filesystems), the contender observes the same dead owner on
        two consecutive polls, rotates the lock file out of the way
        and takes over (counted in ``stale_takeovers``).  Acquisition
        re-validates that its descriptor still names the live lock
        path, so a takeover can never leave two writers both holding
        an orphaned inode.  ``lock_timeout`` bounds the wait; on
        expiry a :class:`StoreError` names the recorded owner.
        """
        directory.mkdir(parents=True, exist_ok=True)
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            return None
        return self._acquire_dir_lock(directory / LOCK_NAME)

    def _acquire_dir_lock(self, lock_path: pathlib.Path):
        """Acquire ``lock_path`` exclusively; returns the open handle.

        Implements the contend/detect/rotate loop described in
        :meth:`_lock_dir`.  A dead recorded owner must be observed on
        two consecutive polls before rotation (a live writer normally
        overwrites the leftover metadata long before that), and every
        acquirer stamps its pid *before* validating that its
        descriptor still names the lock path — so if a rotation ever
        does race a not-yet-stamped writer, exactly one of the two
        passes validation and the other re-contends.
        """
        timeout = self.lock_timeout
        wait_started = now() if timing_enabled() else None
        give_up_at = None if timeout is None else time.monotonic() + timeout
        dead_owner_seen: tuple[int, object] | None = None
        while True:
            # A commit in this process releases the lock from the store
            # I/O thread once its reclaim is done: wait for that rather
            # than poll.
            settle_reclaims(lock_path.parent)
            handle = open(lock_path, "a+b")
            keep = False
            try:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError:
                    owner = _read_lock_owner(lock_path)
                    if owner is not None and not _pid_alive(owner["pid"]):
                        observed = (owner["pid"], owner.get("acquired_at"))
                        if dead_owner_seen == observed:
                            # Same dead writer twice: the flock is held
                            # beyond its owner's death.  Rotate the file;
                            # everyone re-contends on the fresh inode.
                            with contextlib.suppress(OSError):
                                os.unlink(lock_path)
                            self._c_stale_takeovers.inc()
                            dead_owner_seen = None
                            continue
                        dead_owner_seen = observed
                    else:
                        dead_owner_seen = None
                    if give_up_at is not None and time.monotonic() >= give_up_at:
                        holder = (
                            f"pid {owner['pid']}" if owner else "an unknown writer"
                        )
                        raise StoreError(
                            f"timed out after {timeout:g}s waiting for "
                            f"{lock_path} (held by {holder})"
                        )
                    time.sleep(LOCK_POLL_SECONDS)
                    continue
                # Acquired.  Stamp ownership first, *then* confirm the
                # descriptor still names the live lock path: a contender
                # that observed the previous (dead) owner's leftover
                # metadata may rotate the file at any point before our
                # stamp replaces it, and a validate-before-stamp order
                # would miss a rotation landing in that window.  After
                # the stamp, any rotation is ours to detect here.
                handle.seek(0)
                handle.truncate()
                handle.write(
                    json.dumps(
                        {"pid": os.getpid(), "acquired_at": time.time()}
                    ).encode("utf-8")
                )
                handle.flush()
                try:
                    fd_stat = os.fstat(handle.fileno())
                    path_stat = os.stat(lock_path)
                    current = (fd_stat.st_dev, fd_stat.st_ino) == (
                        path_stat.st_dev,
                        path_stat.st_ino,
                    )
                except OSError:
                    current = False
                if not current:
                    continue  # rotated under us; re-contend on the new inode
                keep = True
                if wait_started is not None:
                    self._h_lock_wait.observe(now() - wait_started)
                return handle
            finally:
                if not keep:
                    handle.close()

    def lock_info(self, key: str) -> dict | None:
        """The recorded owner of ``key``'s writer lock, if any.

        ``{"pid": ..., "acquired_at": ...}`` while a writer holds the
        directory lock (or after one crashed without releasing),
        ``None`` otherwise.  Observability only — liveness of the pid
        is for the caller to judge.  A commit of this process still
        reclaiming its superseded generation is waited for first, so
        the lock reads free as soon as :meth:`commit` has returned.
        """
        settle_reclaims(self.root / key)
        return _read_lock_owner(self.root / key / LOCK_NAME)

    @staticmethod
    def _default_key(fingerprint: dict) -> str:
        # Blend all content crcs: graphs differing only in labels or raw
        # times must land in different directories too.
        blended = zlib.crc32(
            b"%d:%d:%d"
            % (
                fingerprint["edge_crc32"],
                fingerprint["label_crc32"],
                fingerprint["raw_time_crc32"],
            )
        )
        return f"g{blended:08x}-m{fingerprint['num_edges']}"

    def find(self, graph: TemporalGraph) -> str | None:
        """The key whose stored fingerprint matches ``graph``, if any."""
        return self._find(codec.graph_fingerprint(graph))

    def _find(self, fingerprint: dict) -> str | None:
        for key in self.keys():
            manifest = self._read_manifest(key)
            if manifest is not None and manifest.get("fingerprint") == fingerprint:
                return key
        return None

    # ------------------------------------------------------------------
    # Saving
    # ------------------------------------------------------------------

    def commit(
        self,
        graph: TemporalGraph,
        indexes: "Iterable[CoreIndex]" = (),
        *,
        name: str | None = None,
        stream_lsn: int | None = None,
    ) -> str:
        """Persist ``graph`` and ``indexes`` in one manifest replace.

        The store's one write primitive; returns the key (``name``,
        else the fingerprint match, else the fingerprint-derived
        default).  ``indexes`` must be built over ``graph``.  Under the
        key's writer lock it:

        1. writes the graph blob (unless the stored fingerprint already
           matches) and every index blob — named ``graph-<lsn>.bin`` /
           ``k<k>-<lsn>.idx`` for a streamed commit (``stream_lsn``
           given), ``graph.bin`` / ``k<k>.idx`` otherwise — through
           :func:`~repro.store.format.write_blobs`: largest first, each
           temp file fsynced on the store I/O thread while the next is
           written, each renamed once its fsync is done (graph, then
           the indexes in the order given); then fsyncs the directory
           once;
        2. commits the graph, every index entry and, with
           ``stream_lsn``, ``"stream": {"lsn"}`` in a single manifest
           replace: a crash leaves the old manifest or the new one,
           never a mix;
        3. hands the unlinks of the files only the superseded manifest
           referenced, and the release of the writer lock, to the store
           I/O thread, and returns.  This process's next commit,
           :meth:`lock_info` and :func:`~repro.store.fsck.scrub_store`
           of the key wait for that reclaim; other processes see the
           lock held until it is done.

        A different graph under an existing key replaces it and its
        index entries.  Under an unchanged fingerprint a streamed commit
        keeps every index the manifest lists, so it rewrites only the
        manifest; an offline commit rewrites the indexes it is given
        (how a corrupt entry is rebuilt).  Blobs replace files by
        rename, never in place, so readers' mappings stay valid.
        """
        started = now() if timing_enabled() else None
        fingerprint = codec.graph_fingerprint(graph)
        if name is None:
            key = self._find(fingerprint) or self._default_key(fingerprint)
        else:
            key = name
        directory = self.root / key
        suffix = "" if stream_lsn is None else f"-{stream_lsn:016d}"
        lock = self._lock_dir(directory)
        stale: list[pathlib.Path] | None = None
        try:
            old = self._read_manifest(key)
            kept = old is not None and old.get("fingerprint") == fingerprint
            # Blob file name -> (kind, meta, sections), in rename order.
            blobs: dict[str, tuple] = {}
            if kept:
                manifest = {**old, "indexes": dict(old.get("indexes", {}))}
            else:
                manifest = {
                    "format_version": FORMAT_VERSION,
                    "fingerprint": fingerprint,
                    "graph_file": f"graph{suffix}.bin",
                    "indexes": {},
                }
                blobs[manifest["graph_file"]] = codec.graph_blob(
                    graph, fingerprint=fingerprint
                )
            entries = manifest["indexes"]
            for index in indexes:
                if stream_lsn is not None and kept and str(index.k) in entries:
                    continue
                filename = f"k{index.k}{suffix}.idx"
                blobs[filename] = codec.index_blob(index, fingerprint=fingerprint)
                entries[str(index.k)] = {
                    "file": filename,
                    "vct_size": index.vct.size(),
                    "ecs_size": index.ecs.size(),
                }
            if stream_lsn is not None:
                manifest["stream"] = {"lsn": stream_lsn}
            if blobs:
                written = write_blobs(
                    [(directory / filename, *blob) for filename, blob in blobs.items()]
                )
                for (kind, _meta, _sections), size in zip(blobs.values(), written):
                    if kind == codec.GRAPH_KIND:
                        self._c_blob_bytes_graph.inc(size)
                        self._c_graph_saves.inc()
                    else:
                        self._c_blob_bytes_index.inc(size)
                        self._c_index_saves.inc()
                fsync_dir(directory)
                if stream_lsn is not None:
                    crashpoint("snapshot.post-blobs.pre-commit")
            if manifest != old:
                self._write_manifest(key, manifest)
            # Unreferenced once the manifest commits; a crash before
            # the reclaim unlinks them leaves orphans fsck sets aside,
            # never a dangling reference.
            stale = [] if old is None else [
                directory / filename
                for filename in sorted(_blob_files(old) - _blob_files(manifest))
            ]
        finally:
            if stale is None:
                _release_dir_lock(lock)
            else:
                _defer_reclaim(directory, self._reclaim, stale, lock)
        if started is not None:
            self._h_commit.observe(now() - started)
        return key

    def _reclaim(self, stale: list[pathlib.Path], lock) -> None:
        """A commit's tail, on the store I/O thread: unlink the files
        only the superseded manifest referenced, then release the
        directory's writer lock."""
        started = now() if timing_enabled() else None
        try:
            for path in stale:
                with contextlib.suppress(OSError):
                    os.unlink(path)
        finally:
            _release_dir_lock(lock)
        if started is not None:
            self._h_reclaim.observe(now() - started)

    def save_graph(self, graph: TemporalGraph, *, name: str | None = None) -> str:
        """Persist ``graph`` (idempotent), returning its key.

        A directory whose fingerprint already matches is reused as-is.
        Reusing a ``name`` for a *different* graph resets the directory:
        the graph blob is rewritten and all index entries are dropped
        (their files deleted), since they describe the old graph.
        """
        return self.commit(graph, name=name)

    def save_index(self, index: CoreIndex, *, name: str | None = None) -> str:
        """Persist an index (and its graph if absent), returning the key."""
        return self.commit(index.graph, (index,), name=name)

    def build_all(
        self,
        graph: TemporalGraph,
        ks: "Iterable[int]",
        *,
        name: str | None = None,
        reused: set[int] | None = None,
        into: dict[int, CoreIndex] | None = None,
    ) -> dict[int, CoreIndex]:
        """Ensure a stored index exists for every ``k``; returns them all.

        The one load-else-build path: ``repro index --save-store``,
        ``query --store`` and every registry miss with this store
        attached run it.  All ``k`` values live in **one**
        graph directory — ``name`` when given, else the fingerprint
        match, else the fingerprint-derived default key.  Entries
        already persisted there are opened as-is; the missing ones are
        computed in one shared decremental scan
        (:func:`repro.core.multik.build_core_indexes`) and persisted —
        graph blob included — under that same key, so repeated calls
        with and without ``name`` never split a graph's indexes across
        directories.  Corrupt or stale entries read as absent and are
        rebuilt and overwritten.  Returns ``{k: index}`` for the
        deduplicated ``ks``, ascending.

        ``reused``, when passed, is filled with the ``k`` values that
        were served from disk rather than computed — callers report
        reuse without probing the store a second time.  ``into``, when
        passed, is the dict filled and returned: it holds every index
        loaded or built even when the final :meth:`commit` raises, so a
        caller that serves without persisting need not build again.

        The missing indexes (and the graph blob, if absent) land in one
        :meth:`commit`: one manifest write.  Concurrent writers are
        serialised per graph directory by its advisory lock; the method
        itself is stateless and safe to call from several processes.
        """
        key = name if name is not None else self.find(graph)
        out: dict[int, CoreIndex] = {} if into is None else into
        missing: list[int] = []
        for k in _validated_ks(ks):
            index = (
                self.load_index(graph, k, key=key) if key is not None else None
            )
            if index is not None:
                out[k] = index
                if reused is not None:
                    reused.add(k)
            else:
                missing.append(k)
        if missing:
            built = build_core_indexes(graph, missing)
            out.update(built)
            self.commit(graph, (built[k] for k in missing), name=key)
        return out

    # ------------------------------------------------------------------
    # Write-ahead log and recovery
    # ------------------------------------------------------------------

    def wal(self, key: str) -> WriteAheadLog:
        """Open (creating if needed) the write-ahead log of ``key``.

        Lives in ``<root>/<key>/wal/``; opening scans the segments and
        truncates a torn tail, so the returned log is always ready to
        append at the correct next LSN.  One WAL per key per process —
        callers keep the instance rather than reopening per append.
        Segments rotate at :data:`repro.store.wal.DEFAULT_SEGMENT_BYTES`.
        """
        return WriteAheadLog(self.root / key / WAL_DIR, metrics=self.metrics)

    def stream_lsn(self, key: str) -> int:
        """The WAL position the stored snapshot of ``key`` covers (0 if none)."""
        manifest = self._read_manifest(key)
        if manifest is None:
            return 0
        lsn = manifest.get("stream", {}).get("lsn", 0)
        return lsn if isinstance(lsn, int) and lsn >= 0 else 0

    def recover(self, key: str) -> StreamRecovery:
        """Reassemble the durable state of ``key``: snapshot + WAL replay.

        The boot path after any shutdown, clean or not: opens the WAL
        (truncating a torn tail), loads the last snapshotted graph if
        one exists, and replays every durable record past the
        snapshot's ``stream_lsn``.  The result carries everything a
        :class:`~repro.core.maintenance.StreamingCoreService` needs to
        resume exactly where the acknowledged stream ended.

        A corrupt graph blob raises :class:`StoreCorruptionError` (run
        ``repro fsck``) — recovery never silently drops a snapshot,
        because the WAL past it cannot reconstruct what came before.
        """
        wal = self.wal(key)
        manifest = self._read_manifest(key)
        graph: TemporalGraph | None = None
        snapshot_lsn = 0
        if manifest is not None:
            graph = self.load_graph(key)
            snapshot_lsn = self.stream_lsn(key)
        events = wal.replay(after=snapshot_lsn)
        return StreamRecovery(
            key=key,
            graph=graph,
            snapshot_lsn=snapshot_lsn,
            events=events,
            wal=wal,
        )

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load_graph(self, key: str) -> TemporalGraph:
        """Open the graph blob of ``key`` (raises on absence/corruption).

        Corruption is counted (``repro_store_corrupt_blobs_total``) and
        logged with the offending path before the error propagates —
        an operator grepping one warning line can go straight to the
        file ``repro fsck`` will quarantine.
        """
        manifest = self.manifest(key)
        path = self.root / key / manifest.get("graph_file", GRAPH_FILE)
        try:
            graph = codec.load_graph(path)
        except StoreCorruptionError:
            self._c_corrupt_graph.inc()
            log.warning("corrupt graph blob at %s (quarantine with `repro fsck`)", path)
            raise
        self._c_graph_loads.inc()
        return graph

    def stored_ks(self, key: str) -> list[int]:
        """The ``k`` values with a persisted index under ``key``."""
        return sorted(int(k) for k in self.manifest(key).get("indexes", {}))

    def load_index(
        self, graph: TemporalGraph, k: int, *, key: str | None = None
    ) -> CoreIndex | None:
        """The stored index for ``(graph, k)``, or ``None``.

        ``None`` means "not served from disk": no fingerprint-matching
        directory, no entry for ``k``, or a file that failed integrity
        checks (truncated, checksum mismatch, stale fingerprint).  The
        caller computes and typically re-saves — corrupt entries are
        rebuilt, never served.
        """
        index = self._load_index(graph, k, key=key)
        if index is None:
            self._c_index_load_misses.inc()
        else:
            self._c_index_load_hits.inc()
        return index

    def _load_index(
        self, graph: TemporalGraph, k: int, *, key: str | None = None
    ) -> CoreIndex | None:
        if key is None:
            key = self.find(graph)
            if key is None:
                return None
        manifest = self._read_manifest(key)
        if manifest is None:
            return None
        entry = manifest.get("indexes", {}).get(str(k))
        if entry is None:
            return None
        path = self.root / key / entry["file"]
        try:
            return codec.load_index(path, graph)
        except StoreCorruptionError:
            # Treated as absent (the caller rebuilds), but never
            # silently: rot should show up in metrics and one log line.
            self._c_corrupt_index.inc()
            log.warning(
                "corrupt index blob at %s (quarantine with `repro fsck`)", path
            )
            return None
        except (StoreError, OSError):
            return None
