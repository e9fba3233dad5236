"""Compile-once loader for the C fixpoint step (``core/_fixpoint.c``).

:func:`fixpoint_step` compiles the source with the system C compiler
(``cc -O2 -shared -fPIC``) the first time a process asks for it, caches
the shared library under a name carrying the source's sha256, and loads
it through :mod:`ctypes`.  The cache lives in ``__pycache__`` beside the
source, or in a per-user temp directory when that one is not writable.
A library is published by ``os.replace`` of a fully written temp file,
so processes racing on a cold cache each load a complete library.

When compiling or loading fails, :func:`fixpoint_step` returns ``None``
and logs one warning carrying the compiler's stderr; callers then run
their numpy path.  The ``repro_kernel_native`` gauge records which path
this process took (1 compiled, 0 fallback).
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

from repro.obs.metrics import get_registry

log = logging.getLogger("repro.core.native")

SOURCE = pathlib.Path(__file__).with_name("_fixpoint.c")

_INT64 = ctypes.c_int64
_POINTER = ctypes.c_void_p
#: ``repro_fixpoint_step``'s parameters, in order (see the C source).
_ARGTYPES = [_POINTER] * 8 + [_INT64] * 4 + [_POINTER] * 5 + [_INT64] * 2


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


def _library(directory: pathlib.Path, *, private: bool) -> pathlib.Path:
    """The cached library for the current source in ``directory``, compiled if absent.

    ``private`` directories (the shared temp dir's per-user one) must be
    owned by this user and closed to others before anything in them is
    trusted.
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
    return target


def _load():
    """Compile (or reuse) and load the library; ``None`` on failure."""
    problems: list[str] = []
    for position, directory in enumerate(cache_dirs()):
        try:
            path = _library(directory, private=position > 0)
            step = ctypes.CDLL(str(path)).repro_fixpoint_step
        except _CompileError as exc:
            problems.append(str(exc))
            break  # the compiler itself failed: another directory won't help
        except (OSError, AttributeError) as exc:  # unusable dir or library
            problems.append(f"{directory}: {exc}")
            continue
        step.argtypes = _ARGTYPES
        step.restype = _INT64
        return step
    log.warning(
        "compiled CoreTime fixpoint unavailable, using the numpy path: %s",
        "; ".join(problems),
    )
    return None


@functools.cache
def fixpoint_step():
    """The loaded ``repro_fixpoint_step`` function, or ``None`` (memoised)."""
    step = _load()
    get_registry().gauge(
        "repro_kernel_native",
        "1 when the compiled CoreTime fixpoint step is loaded, 0 on the numpy fallback",
    ).set(0 if step is None else 1)
    return step
