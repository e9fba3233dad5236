"""Compile-once loader for the C kernels (``core/_fixpoint.c``).

:func:`library` compiles the source with the system C compiler
(``cc -O2 -shared -fPIC``) the first time a process asks for it, caches
the shared library under a name carrying the source's sha256, and loads
it through :mod:`ctypes` with declared argument types.  It holds two
functions: the multi-k build pass (``build_pass``, fed a
:class:`BuildArgs` block; see :mod:`repro.core.multik`) and the fold's
per-segment splice (``splice``; see :mod:`repro.core.incremental`).

The cache lives in ``__pycache__`` beside the source, or in a per-user
temp directory when that one is not writable.  A library is published
by ``os.replace`` of a fully written temp file, so processes racing on a
cold cache each load a complete library.  After publishing in
``__pycache__``, libraries built from other revisions of the source are
removed there; the shared per-user temp directory is left alone, since
several checkouts may use it.

When compiling or loading fails, :func:`library` returns ``None`` and
logs one warning carrying the compiler's stderr; callers then run their
numpy paths.  The ``repro_kernel_native`` gauge records which path this
process took (1 compiled, 0 fallback).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import pathlib
import stat
import subprocess
import tempfile
from collections.abc import Callable
from typing import NamedTuple

from repro.obs.metrics import get_registry

log = logging.getLogger("repro.core.native")

SOURCE = pathlib.Path(__file__).with_name("_fixpoint.c")

_INT64 = ctypes.c_int64
_POINTER = ctypes.c_void_p


class BuildArgs(ctypes.Structure):
    """``struct repro_build``: one build's array addresses and scalars.

    The field order mirrors the C source; arrays are passed as the
    addresses of C-contiguous numpy buffers (int64, the masks uint8).
    """

    _fields_ = [
        (name, _POINTER)
        for name in (
            "adj_offsets", "adj_neighbour",
            "edge_u", "edge_v", "edge_slot_u", "edge_slot_v",
            "time_offset", "pair_times", "slot_times_end",
            "inc_offsets", "inc_time", "inc_other", "inc_eid",
            "km1",
        )
    ] + [
        (name, _INT64) for name in ("n", "m", "levels", "ts_hi", "inf", "no_time")
    ] + [
        (name, _POINTER)
        for name in (
            "ptr", "ett", "ct", "ect", "inc_cursor",
            "inq", "grown_mask", "queue", "scratch", "grown",
            "vct_key", "vct_ts", "vct_ct",
            "ecs_key", "ecs_t1", "ecs_t2",
        )
    ] + [
        (name, _INT64)
        for name in (
            "vct_capacity", "ecs_capacity", "vct_len", "ecs_len", "vct_need", "ecs_need",
        )
    ]


class Kernels(NamedTuple):
    """The loaded C functions."""

    #: ``repro_build_pass(BuildArgs *, ts_from) -> next start time``
    build_pass: Callable[..., int]
    #: ``repro_splice(segments, old_segments, 13 arrays)``
    splice: Callable[..., None]


def cache_dirs() -> list[pathlib.Path]:
    """Where compiled libraries are cached, in order of preference."""
    return [
        SOURCE.parent / "__pycache__",
        pathlib.Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}",
    ]


def compiler_command(source: pathlib.Path, output: pathlib.Path) -> list[str]:
    """The command that compiles ``source`` into the shared library ``output``."""
    return ["cc", "-O2", "-shared", "-fPIC", "-o", str(output), str(source)]


class _CompileError(Exception):
    pass


def _prune_stale(directory: pathlib.Path, current: pathlib.Path) -> None:
    """Remove libraries of other source revisions beside ``current``."""
    for stale in directory.glob("_fixpoint-*.so"):
        if stale.name != current.name:
            try:
                stale.unlink()
            except FileNotFoundError:  # a racing process removed it first
                pass


def _library(directory: pathlib.Path, *, private: bool) -> pathlib.Path:
    """The cached library for the current source in ``directory``, compiled if absent.

    ``private`` directories (the shared temp dir's per-user one) must be
    owned by this user and closed to others before anything in them is
    trusted; stale libraries are pruned only from the others.
    """
    directory.mkdir(mode=0o700 if private else 0o777, parents=True, exist_ok=True)
    if private:
        info = directory.stat()
        if info.st_uid != os.getuid() or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
            raise OSError(f"{directory} is not private to this user")
    digest = hashlib.sha256(SOURCE.read_bytes()).hexdigest()
    target = directory / f"_fixpoint-{digest[:16]}.so"
    if target.exists():
        return target
    fd, tmp_name = tempfile.mkstemp(prefix=".fixpoint-", suffix=".so", dir=directory)
    os.close(fd)
    tmp = pathlib.Path(tmp_name)
    try:
        try:
            proc = subprocess.run(
                compiler_command(SOURCE, tmp), capture_output=True, text=True
            )
        except OSError as exc:  # no compiler at all
            raise _CompileError(str(exc)) from exc
        if proc.returncode != 0:
            raise _CompileError(proc.stderr.strip() or f"exit status {proc.returncode}")
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)
    if not private:
        _prune_stale(directory, target)
    return target


def _bind(lib: ctypes.CDLL) -> Kernels:
    build_pass = lib.repro_build_pass
    build_pass.argtypes = [ctypes.POINTER(BuildArgs), _INT64]
    build_pass.restype = _INT64
    splice = lib.repro_splice
    splice.argtypes = [_INT64] * 2 + [_POINTER] * 13
    splice.restype = None
    return Kernels(build_pass, splice)


def _load() -> Kernels | None:
    """Compile (or reuse) and load the library; ``None`` on failure."""
    problems: list[str] = []
    for position, directory in enumerate(cache_dirs()):
        try:
            path = _library(directory, private=position > 0)
            return _bind(ctypes.CDLL(str(path)))
        except _CompileError as exc:
            problems.append(str(exc))
            break  # the compiler itself failed: another directory won't help
        except (OSError, AttributeError) as exc:  # unusable dir or library
            problems.append(f"{directory}: {exc}")
    log.warning(
        "compiled CoreTime kernels unavailable, using the numpy path: %s",
        "; ".join(problems),
    )
    return None


@functools.cache
def library() -> Kernels | None:
    """The loaded C kernels, or ``None`` when they cannot be built (memoised)."""
    kernels = _load()
    get_registry().gauge(
        "repro_kernel_native",
        "1 when the compiled CoreTime fixpoint step is loaded, 0 on the numpy fallback",
    ).set(0 if kernels is None else 1)
    return kernels
