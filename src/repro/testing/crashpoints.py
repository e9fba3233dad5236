"""Named crash/fault points, triggered by environment variables.

The durability layer threads :func:`crashpoint` calls through every
instant where dying is interesting — between a WAL record's write and
its fsync, between a blob's temp write and its rename, and so on.  Each
point has a **name** from the central :data:`CRASHPOINTS` catalogue
below, so the crash campaign can enumerate every registered point and
prove the recovery invariants hold at each one.

Triggering is environment-driven so a *subprocess* can be told to die
without any code change::

    REPRO_CRASHPOINT=wal.append.post-write.pre-fsync

kills the process with ``SIGKILL`` the first time that point is
reached.  An optional ``:N`` suffix crashes on the N-th hit instead
(``wal.append.post-fsync:5`` survives four appends and dies mid-fifth),
which lets one workload exercise a point deep into its life.

:func:`faultpoint` is the non-lethal sibling: under
``REPRO_FAULTPOINT=<name>[:N]`` the named call raises ``OSError``
(``ENOSPC``) from the N-th hit **onward** — how the tests simulate a
disk that stops accepting writes, driving the daemon's read-only
degradation without needing an actually-full filesystem.

Cost when inactive: both triggers parse their environment variable once
at import, so a disabled hook is one module-global ``is None`` check —
safe on hot paths.  (Subprocess campaigns set the variable before the
child's interpreter starts; in-process tests may call :func:`reload`
after monkeypatching ``os.environ``.)
"""

from __future__ import annotations

import errno
import os
import signal

#: Environment variable selecting the crash point (``name`` or ``name:N``).
CRASHPOINT_ENV = "REPRO_CRASHPOINT"

#: Environment variable selecting the fault point (``name`` or ``name:N``).
FAULTPOINT_ENV = "REPRO_FAULTPOINT"

#: Every crash point the durability layer threads, with the instant it
#: marks.  The campaign iterates this catalogue; adding a point here and
#: a ``crashpoint()`` call in the code automatically adds it to the
#: matrix.
CRASHPOINTS: dict[str, str] = {
    "wal.append.pre-write": "an append accepted but no bytes written yet",
    "wal.append.post-write.pre-fsync": "record bytes written, not yet durable",
    "wal.append.post-fsync": "record durable, acknowledgement not yet sent",
    "wal.rotate.post-seal": "old segment sealed (fsynced), new one not created",
    "wal.rotate.post-create": "new segment created, directory not yet fsynced",
    "wal.open.post-truncate": "torn tail truncated during open, before use",
    "wal.trim.mid": "snapshot-covered segment removal half done",
    "blob.post-temp.pre-rename": "blob temp file complete, final name absent",
    "blob.post-rename": "blob renamed into place, directory not yet fsynced",
    "manifest.post-temp.pre-rename": "manifest temp complete, final name stale",
    "manifest.post-rename": "manifest renamed, directory not yet fsynced",
    "snapshot.pre-graph": "snapshot refresh done, nothing persisted yet",
    "snapshot.post-blobs.pre-commit": "every new blob durable, manifest still old",
    "snapshot.post-indexes.pre-trim": "snapshot complete, old WAL not trimmed",
    "fold.merge": "incremental fold mid-flight: sub-span computed, merge pending",
}

#: Every fault point (non-lethal ``OSError`` injection sites).
FAULTPOINTS: dict[str, str] = {
    "wal.append.write": "WAL record write fails (disk full)",
    "wal.append.fsync": "WAL fsync fails (I/O error)",
}


def registered_crashpoints() -> tuple[str, ...]:
    """Every crash point name, in catalogue order."""
    return tuple(CRASHPOINTS)


def registered_faultpoints() -> tuple[str, ...]:
    """Every fault point name, in catalogue order."""
    return tuple(FAULTPOINTS)


def _parse(spec: str | None) -> tuple[str, int] | None:
    if not spec:
        return None
    name, _, count = spec.partition(":")
    try:
        nth = int(count) if count else 1
    except ValueError:
        raise ValueError(f"bad hit count in {spec!r} (want name or name:N)") from None
    return name, max(1, nth)


_crash_target: tuple[str, int] | None = None
_fault_target: tuple[str, int] | None = None
_hits: dict[str, int] = {}


def reload() -> None:
    """Re-read both environment variables (for in-process tests)."""
    global _crash_target, _fault_target
    _crash_target = _parse(os.environ.get(CRASHPOINT_ENV))
    _fault_target = _parse(os.environ.get(FAULTPOINT_ENV))
    if _crash_target is not None and _crash_target[0] not in CRASHPOINTS:
        raise ValueError(
            f"unknown crash point {_crash_target[0]!r} "
            f"(know {sorted(CRASHPOINTS)})"
        )
    if _fault_target is not None and _fault_target[0] not in FAULTPOINTS:
        raise ValueError(
            f"unknown fault point {_fault_target[0]!r} "
            f"(know {sorted(FAULTPOINTS)})"
        )
    _hits.clear()


reload()


def crashpoint(name: str) -> None:
    """Die here (SIGKILL, no cleanup) if this point is the armed one.

    ``name`` must be in :data:`CRASHPOINTS` — an unregistered name is a
    programming error, raised eagerly so the catalogue can never drift
    from the code.  With nothing armed this is one global check.
    """
    if _crash_target is None:
        if name not in CRASHPOINTS:
            raise ValueError(f"unregistered crash point {name!r}")
        return
    if name not in CRASHPOINTS:
        raise ValueError(f"unregistered crash point {name!r}")
    target, nth = _crash_target
    if name != target:
        return
    _hits[name] = _hits.get(name, 0) + 1
    if _hits[name] >= nth:
        # SIGKILL ourselves rather than os._exit: the campaign asserts
        # the child died by signal, exactly like a machine crash — no
        # atexit hooks, no flushing, no finally blocks.
        os.kill(os.getpid(), signal.SIGKILL)


def faultpoint(name: str) -> None:
    """Raise ``OSError(ENOSPC)`` here from the N-th hit onward, if armed.

    Unlike :func:`crashpoint` the failure *persists* once it starts —
    a full disk does not heal between writes — which is what drives a
    daemon into (and keeps it in) read-only mode.
    """
    if _fault_target is None:
        if name not in FAULTPOINTS:
            raise ValueError(f"unregistered fault point {name!r}")
        return
    if name not in FAULTPOINTS:
        raise ValueError(f"unregistered fault point {name!r}")
    target, nth = _fault_target
    if name != target:
        return
    _hits[name] = _hits.get(name, 0) + 1
    if _hits[name] >= nth:
        raise OSError(errno.ENOSPC, f"injected fault at {name}")
