"""Store scrubbing — the engine behind ``repro fsck --store DIR``.

The scrubber walks every graph directory of an :class:`IndexStore`,
verifying three layers of consistency:

* **Blobs** — every manifest-referenced graph and index blob must open
  and pass its crc32 (`:func:`repro.store.format.read_blob``);
* **Manifest ↔ files** — every referenced file must exist, every index
  blob's recorded fingerprint and ``k`` must agree with the manifest
  that points at it; stray temp files are reported as orphans and
  unreferenced blobs (a commit that crashed before its manifest
  replace, a superseded blob whose unlink did not run) quarantined;
* **WAL segments** — every segment must scan cleanly
  (:func:`repro.store.wal.scan_segment`); a torn *tail* on the final
  segment is the expected crash artefact, damage earlier in the log is
  not.  The log's file of trimmed dedupe tokens must parse.

The repair philosophy mirrors the loader's: **quarantine, never
delete**.  A corrupt or unreferenced file is renamed to
``<name>.corrupt`` (numbered ``.corrupt.1``, ``.corrupt.2``… if taken)
so the bytes stay available for post-mortems; a torn WAL tail is
copied to ``<segment>.corrupt`` before the segment is truncated back to
its valid prefix.  The only
thing ever *removed* is a manifest **entry** whose blob is gone or
quarantined — the entry is rebuildable from the graph, the bytes are
not.  With ``repair=False`` (the CLI's ``--dry-run``) everything is
reported and nothing on disk changes.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field

from repro.errors import StoreCorruptionError, StoreError
from repro.obs.metrics import get_registry, next_instance
from repro.store import codec
from repro.store.format import read_blob
from repro.store.index_store import (
    GRAPH_FILE,
    LOCK_NAME,
    MANIFEST_NAME,
    WAL_DIR,
    IndexStore,
    settle_reclaims,
)
from repro.store.wal import TOKENS_NAME, read_trimmed_tokens, scan_segment

#: Issue kinds, for stable grouping in reports and metrics.
KINDS = (
    "manifest",   # unreadable/unparseable manifest.json
    "graph",      # corrupt or missing graph blob
    "index",      # corrupt, missing or inconsistent index blob
    "wal",        # damaged WAL segment
    "orphan",     # file no manifest references (incl. leftover temps)
)


@dataclass(frozen=True)
class FsckIssue:
    """One problem the scrubber found (and possibly acted on).

    ``action`` is what actually happened: ``"reported"`` (nothing
    changed on disk), ``"quarantined"`` (renamed/copied to
    ``*.corrupt``), ``"repaired"`` (state made consistent again — a
    truncated WAL tail, a dropped-and-rebuildable manifest entry), or a
    ``"would-*"`` variant of the latter two in dry-run mode.
    """

    key: str
    kind: str
    path: str
    problem: str
    action: str


@dataclass
class FsckReport:
    """Everything one scrub pass saw."""

    root: str
    scanned_files: int = 0
    issues: list[FsckIssue] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.issues

    def by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for issue in self.issues:
            out[issue.kind] = out.get(issue.kind, 0) + 1
        return out

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "scanned_files": self.scanned_files,
            "clean": self.clean,
            "issues": [vars(issue) for issue in self.issues],
        }

    def render(self) -> str:
        """Human-readable summary, one line per issue."""
        lines = [f"fsck {self.root}: scanned {self.scanned_files} files"]
        for issue in self.issues:
            lines.append(
                f"  [{issue.kind}] {issue.path}: {issue.problem} -> {issue.action}"
            )
        lines.append(
            "clean" if self.clean else f"{len(self.issues)} issue(s) found"
        )
        return "\n".join(lines)


def _quarantine_name(path: pathlib.Path) -> pathlib.Path:
    """``<path>.corrupt``, numbered if a previous quarantine took it."""
    candidate = path.with_name(path.name + ".corrupt")
    serial = 0
    while candidate.exists():
        serial += 1
        candidate = path.with_name(f"{path.name}.corrupt.{serial}")
    return candidate


class _Scrubber:
    def __init__(self, root: pathlib.Path, *, repair: bool, verify: bool):
        self.root = root
        self.repair = repair
        self.verify = verify
        self.report = FsckReport(root=str(root))
        m = get_registry()
        inst = next_instance("fsck")
        self._c_scanned = m.counter(
            "repro_fsck_scanned_files_total", "Files examined by fsck", ("fsck",)
        ).labels(inst)
        self._c_issues = m.counter(
            "repro_fsck_issues_total", "Issues found by fsck, by kind", ("fsck", "kind")
        )
        self._inst = inst
        self._c_quarantined = m.counter(
            "repro_fsck_quarantined_total", "Files quarantined to *.corrupt", ("fsck",)
        ).labels(inst)
        self._c_repaired = m.counter(
            "repro_fsck_repaired_total", "Inconsistencies repaired", ("fsck",)
        ).labels(inst)

    # -- bookkeeping ----------------------------------------------------

    def _saw_file(self) -> None:
        self.report.scanned_files += 1
        self._c_scanned.inc()

    def _issue(self, key: str, kind: str, path: pathlib.Path, problem: str,
               action: str) -> None:
        self.report.issues.append(
            FsckIssue(key=key, kind=kind, path=str(path), problem=problem,
                      action=action)
        )
        self._c_issues.labels(self._inst, kind).inc()
        if action == "quarantined":
            self._c_quarantined.inc()
        elif action == "repaired":
            self._c_repaired.inc()

    def _quarantine(self, key: str, kind: str, path: pathlib.Path,
                    problem: str) -> None:
        if not self.repair:
            self._issue(key, kind, path, problem, "would-quarantine")
            return
        os.replace(path, _quarantine_name(path))
        self._issue(key, kind, path, problem, "quarantined")

    # -- the walk -------------------------------------------------------

    def run(self) -> FsckReport:
        if not self.root.is_dir():
            raise StoreError(f"{self.root}: not a store directory")
        for entry in sorted(self.root.iterdir()):
            if entry.is_dir():
                self._scrub_key(entry)
        return self.report

    def _scrub_key(self, directory: pathlib.Path) -> None:
        key = directory.name
        manifest = self._scrub_manifest(key, directory)
        referenced: set[str] = {MANIFEST_NAME, LOCK_NAME}
        if manifest is not None:
            referenced |= self._scrub_blobs(key, directory, manifest)
        self._scrub_wal(key, directory / WAL_DIR)
        self._scrub_orphans(key, directory, referenced, manifest)

    def _scrub_manifest(self, key: str, directory: pathlib.Path) -> dict | None:
        path = directory / MANIFEST_NAME
        if not path.exists():
            if self._has_wal_segments(directory / WAL_DIR):
                return None  # WAL-only key: legitimate, nothing to check here
            if any(p.is_file() for p in directory.iterdir()):
                self._issue(key, "manifest", path, "missing manifest over files",
                            "reported")
            return None
        self._saw_file()
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(manifest, dict):
                raise ValueError("manifest is not an object")
        except (OSError, ValueError) as exc:
            self._quarantine(key, "manifest", path, f"unparseable manifest: {exc}")
            return None
        return manifest

    def _scrub_blobs(self, key: str, directory: pathlib.Path,
                     manifest: dict) -> set[str]:
        """Verify the graph and every index entry; returns referenced names."""
        referenced: set[str] = set()
        fingerprint = manifest.get("fingerprint")
        graph_file = manifest.get("graph_file", GRAPH_FILE)
        referenced.add(graph_file)
        graph_path = directory / graph_file
        if not graph_path.exists():
            self._issue(key, "graph", graph_path,
                        "manifest references a missing graph blob", "reported")
        else:
            self._saw_file()
            try:
                blob = read_blob(graph_path, verify=self.verify)
                if blob.kind != codec.GRAPH_KIND:
                    raise StoreError(f"expected graph blob, got {blob.kind!r}")
                if fingerprint is not None and blob.meta.get("fingerprint") != fingerprint:
                    raise StoreError("graph blob fingerprint disagrees with manifest")
            except (StoreError, OSError) as exc:
                # Not rebuildable: the graph *is* the source of truth.
                self._quarantine(key, "graph", graph_path, str(exc))

        entries = manifest.get("indexes", {})
        dropped: list[str] = []
        for k, entry in sorted(entries.items()):
            filename = entry.get("file", f"k{k}.idx")
            referenced.add(filename)
            path = directory / filename
            if not path.exists():
                self._drop_entry(key, directory, manifest, k, path,
                                 "manifest references a missing index blob",
                                 dropped)
                continue
            self._saw_file()
            try:
                blob = read_blob(path, verify=self.verify)
                if blob.kind != codec.INDEX_KIND:
                    raise StoreError(f"expected index blob, got {blob.kind!r}")
                if str(blob.meta.get("k")) != str(k):
                    raise StoreError(
                        f"blob holds k={blob.meta.get('k')}, manifest says k={k}"
                    )
                if fingerprint is not None and blob.meta.get("fingerprint") != fingerprint:
                    raise StoreError("index fingerprint disagrees with manifest")
            except (StoreError, OSError) as exc:
                if self.repair:
                    os.replace(path, _quarantine_name(path))
                    self._issue(key, "index", path, str(exc), "quarantined")
                    self._drop_entry(key, directory, manifest, k, path,
                                     "entry pointed at the quarantined blob",
                                     dropped)
                else:
                    self._issue(key, "index", path, str(exc), "would-quarantine")
        if dropped and self.repair:
            self._rewrite_manifest(directory, manifest)
        return referenced

    def _drop_entry(self, key: str, directory: pathlib.Path, manifest: dict,
                    k: str, path: pathlib.Path, problem: str,
                    dropped: list[str]) -> None:
        if self.repair:
            manifest.get("indexes", {}).pop(k, None)
            dropped.append(k)
            self._issue(key, "index", path, problem,
                        "repaired")
        else:
            self._issue(key, "index", path, problem, "would-repair")

    def _rewrite_manifest(self, directory: pathlib.Path, manifest: dict) -> None:
        # Same atomic discipline as IndexStore._write_manifest; fsck runs
        # offline so it writes directly rather than importing a store.
        final = directory / MANIFEST_NAME
        tmp = final.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)

    # -- WAL ------------------------------------------------------------

    @staticmethod
    def _has_wal_segments(wal_dir: pathlib.Path) -> bool:
        return wal_dir.is_dir() and any(
            p.name.startswith("wal-") and p.name.endswith(".seg")
            for p in wal_dir.iterdir()
        )

    def _scrub_wal(self, key: str, wal_dir: pathlib.Path) -> None:
        if not wal_dir.is_dir():
            return
        if (wal_dir / TOKENS_NAME).exists():
            self._saw_file()
            try:
                read_trimmed_tokens(wal_dir)
            except StoreCorruptionError:
                # The log opens without it: retries of trimmed appends
                # are no longer recognised, every record still is.
                self._quarantine(key, "wal", wal_dir / TOKENS_NAME,
                                 "unreadable dedupe tokens")
        segments = sorted(
            p for p in wal_dir.iterdir()
            if p.name.startswith("wal-") and p.name.endswith(".seg")
        )
        for position, segment in enumerate(segments):
            self._saw_file()
            scan = scan_segment(segment)
            if scan.error is None:
                continue
            last = position == len(segments) - 1
            if last and scan.valid_bytes > 0:
                # The expected crash artefact: quarantine the torn tail
                # bytes, then truncate the segment to its valid prefix.
                if self.repair:
                    tail = segment.read_bytes()[scan.valid_bytes:]
                    _quarantine_name(segment).write_bytes(tail)
                    with open(segment, "r+b") as handle:
                        handle.truncate(scan.valid_bytes)
                        handle.flush()
                        os.fsync(handle.fileno())
                    self._issue(key, "wal", segment,
                                f"torn tail ({scan.error})", "repaired")
                else:
                    self._issue(key, "wal", segment,
                                f"torn tail ({scan.error})", "would-repair")
            else:
                # Mid-log damage (or an unreadable final segment): the
                # records beyond it must not be resurrected, so the
                # damaged segment and everything after it are
                # quarantined whole.
                self._quarantine(key, "wal", segment,
                                 f"damaged segment ({scan.error})")
                for orphan in segments[position + 1:]:
                    self._saw_file()
                    self._quarantine(
                        key, "wal", orphan,
                        "follows a damaged segment; records beyond damage "
                        "cannot be trusted",
                    )
                break

    # -- orphans --------------------------------------------------------

    def _scrub_orphans(self, key: str, directory: pathlib.Path,
                       referenced: set[str], manifest: dict | None) -> None:
        for entry in sorted(directory.iterdir()):
            if entry.is_dir():
                continue  # wal/ handled above; other dirs out of scope
            if entry.name in referenced or ".corrupt" in entry.name:
                continue
            self._saw_file()
            if ".tmp." in entry.name:
                self._issue(key, "orphan", entry,
                            "leftover temporary file from an interrupted write",
                            "reported")
            elif manifest is not None:
                # A blob a crashed commit wrote but never referenced, or
                # a superseded one whose unlink did not run: set aside.
                self._quarantine(key, "orphan", entry,
                                 "file not referenced by the manifest")


def scrub_store(
    store: "IndexStore | str | os.PathLike[str]",
    *,
    repair: bool = True,
    verify: bool = True,
) -> FsckReport:
    """Scrub a store directory; returns the :class:`FsckReport`.

    ``store`` may be an :class:`IndexStore` or a path.  ``repair=False``
    is dry-run: every issue is reported with a ``would-*`` action and
    the directory is left byte-identical.  ``verify=False`` skips the
    payload crc pass (structure and manifest consistency only).

    Scrubbing an in-use store is safe in the same sense concurrent
    readers are: all mutations are atomic renames.  Running it while a
    *writer* is active is not supported — quarantine decisions could
    race half-finished writes.  A commit of this process that has
    returned but is still reclaiming its superseded generation is
    waited for first, so its old blobs are never taken for orphans.
    """
    root = store.root if isinstance(store, IndexStore) else pathlib.Path(store)
    settle_reclaims(root)
    return _Scrubber(root, repair=repair, verify=verify).run()
