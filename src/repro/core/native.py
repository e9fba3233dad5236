"""Compile-once loader for the C kernels (``core/_fixpoint.c``).

:func:`library` compiles the source with the system C compiler
(``cc -O2 -shared -fPIC``) the first time a process asks for it, caches
the shared library under a name carrying the source's sha256, and loads
it through :mod:`ctypes` with declared argument types.  It holds nine
functions: the first-start scan of a CoreTime build (``initial_scan``)
and its advancing phase (``build_pass``, fed a :class:`BuildArgs`
block; both see :mod:`repro.core.multik`), the fold's
per-segment splice (``splice``; see :mod:`repro.core.incremental`),
the two columnar enumeration walks of :mod:`repro.serve.columnar` —
one visited start time for a sink that receives the cores
(``walk_step``, fed a :class:`WalkArgs` block, O(alive windows) per
visit) and, for a sink that only counts, ``count_init`` then
``count_visits`` (fed a :class:`CountArgs` block: ``count_init`` reads
a skyline's start-ordered cut itself and activates each window from its
flat predecessor, then the alive set is a histogram of windows per end
time, O(changes + width of the reported end range) per visit) —
``render_frames``, which writes one start time's cores as NDJSON core
frames for :class:`FrameRenderer`, the stable counting sort behind
:func:`counting_order` and the carry-less multiplication crc32 behind
:func:`crc32`.

The cache lives in ``__pycache__`` beside the source, or in a per-user
temp directory when that one is not writable.  A library is published
by ``os.replace`` of a fully written temp file, so processes racing on a
cold cache each load a complete library.  After publishing in
``__pycache__``, libraries built from other revisions of the source are
removed there; the shared per-user temp directory is left alone, since
several checkouts may use it.

There is no other implementation of these kernels: when compiling or
loading fails, :func:`library` raises :class:`KernelBuildError` carrying
the compiler's stderr.  The outcome is memoised either way, so a process
runs the compiler at most once.  Their oracles are the seed
implementations, :mod:`repro.core.coretime_ref` and
:mod:`repro.core.enumerate_ref`, which the test suites hold them to.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import pathlib
import stat
import subprocess
import tempfile
import zlib
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from repro.errors import KernelBuildError

SOURCE = pathlib.Path(__file__).with_name("_fixpoint.c")

_INT64 = ctypes.c_int64
_POINTER = ctypes.c_void_p


class BuildArgs(ctypes.Structure):
    """``struct repro_build``: one build's array addresses and scalars.

    The field order mirrors the C source; arrays are passed as the
    addresses of C-contiguous numpy buffers (int64, the masks uint8).
    ``live_end`` (one entry per vertex) and ``pos_ett``,
    ``pos_neighbour``, ``slot_pos``, ``pos_slot`` (one per adjacency
    slot) are scratch the pass writes at the first start time
    (``ts_from == ts_lo``), along with the first start's output rows: a
    vertex's live slots, the pairs with an edge left in the window, sit
    at positions ``[adj_offsets[u], live_end[u])`` of the ``pos_*``
    copies, and the core-time operator reads nothing else.  ``support``
    (one entry per ``(level, vertex)`` key) is written there too: each
    key's live slots whose availability is at most its core time, which
    the pass keeps exact so that it evaluates a key only when that count
    falls below ``k``.
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
        (name, _INT64) for name in ("n", "m", "levels", "ts_lo", "ts_hi", "inf", "no_time")
    ] + [
        (name, _POINTER)
        for name in (
            "ptr", "ett", "ct", "ect", "inc_cursor",
            "live_end", "pos_ett", "pos_neighbour", "slot_pos", "pos_slot", "support",
            "inq", "grown_mask", "queue", "scratch", "grown",
            "vct_key", "vct_ts", "vct_ct",
            "ecs_key", "ecs_t1", "ecs_t2",
        )
    ] + [
        (name, _INT64)
        for name in (
            "vct_capacity", "ecs_capacity", "vct_len", "ecs_len", "vct_need", "ecs_need",
            "evaluations", "fallback_selections", "harvest_steps", "slots_read",
        )
    ]


class WalkArgs(ctypes.Structure):
    """``struct repro_walk``: one emitting columnar walk's arrays and state.

    The field order mirrors the C source; arrays are passed as the
    addresses of C-contiguous int64 numpy buffers.
    """

    _fields_ = [
        (name, _POINTER) for name in ("eid", "start", "end", "active", "order")
    ] + [("size", _INT64)] + [
        (name, _POINTER)
        for name in ("end_0", "start_0", "eid_0", "end_1", "start_1", "eid_1")
    ] + [
        (name, _INT64) for name in ("cur", "alive", "next")
    ] + [
        (name, _POINTER) for name in ("out_end", "out_len")
    ]


class CountArgs(ctypes.Structure):
    """``struct repro_count``: one counting walk's cut, arrays, state and counters.

    The field order mirrors the C source; arrays are passed as the
    addresses of C-contiguous numpy buffers (int64, the first-window
    flags uint8).
    """

    _fields_ = [
        (name, _POINTER) for name in ("start", "end", "order", "first")
    ] + [
        (name, _INT64) for name in ("windows", "lo", "hi", "ts", "te")
    ] + [("ranks", _POINTER)] + [
        (name, _INT64) for name in ("base", "width")
    ] + [
        (name, _POINTER)
        for name in (
            "keys", "by_active", "active_offsets", "by_start", "start_offsets",
            "alive_at", "cores_after", "edges_after",
        )
    ] + [
        (name, _INT64) for name in ("next", "prev", "alive", "top")
    ] + [
        (name, _POINTER)
        for name in (
            "target_ts", "target_te", "target_num", "target_edges", "target_active",
        )
    ] + [
        (name, _INT64)
        for name in ("targets", "position", "num_active", "num_results", "total_edges")
    ]


class Kernels(NamedTuple):
    """The loaded C functions."""

    #: ``repro_initial_scan(n, levels, ts_lo, ts_hi, 13 arrays)``
    initial_scan: Callable[..., None]
    #: ``repro_build_pass(BuildArgs *, ts_from) -> next start time``
    build_pass: Callable[..., int]
    #: ``repro_splice(segments, old_segments, 13 arrays)``
    splice: Callable[..., None]
    #: ``repro_walk_step(WalkArgs *, t) -> cores reported at t``
    walk_step: Callable[..., int]
    #: ``repro_count_init(CountArgs *) -> visits, or -1 on a malformed cut``
    count_init: Callable[..., int]
    #: ``repro_count_visits(CountArgs *, max_visits) -> visits counted``
    count_visits: Callable[..., int]
    #: ``repro_render_frames(prefix, closing, ts, batch, edge_ids, run,
    #: scratch, out, capacity) -> bytes the frames take, or -1``
    render_frames: Callable[..., int]
    #: ``repro_counting_order(len, keys, bound, offsets, order) -> 0 or -1``
    counting_order: Callable[..., int]
    #: ``repro_crc32_fold(len, buf, crc) -> crc of the 16-byte blocks, or -1``
    crc32_fold: Callable[..., int]


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
    initial_scan = lib.repro_initial_scan
    initial_scan.argtypes = [_INT64] * 4 + [_POINTER] * 13
    initial_scan.restype = None
    build_pass = lib.repro_build_pass
    build_pass.argtypes = [ctypes.POINTER(BuildArgs), _INT64]
    build_pass.restype = _INT64
    splice = lib.repro_splice
    splice.argtypes = [_INT64] * 2 + [_POINTER] * 13
    splice.restype = None
    walk_step = lib.repro_walk_step
    walk_step.argtypes = [ctypes.POINTER(WalkArgs), _INT64]
    walk_step.restype = _INT64
    count_init = lib.repro_count_init
    count_init.argtypes = [ctypes.POINTER(CountArgs)]
    count_init.restype = _INT64
    count_visits = lib.repro_count_visits
    count_visits.argtypes = [ctypes.POINTER(CountArgs), _INT64]
    count_visits.restype = _INT64
    render_frames = lib.repro_render_frames
    render_frames.argtypes = [
        ctypes.c_char_p, _INT64, ctypes.c_char_p, _INT64, _INT64,
        _INT64, _POINTER, _POINTER, _INT64, _INT64, _POINTER,
        _POINTER, _POINTER, _POINTER, _INT64,
    ]
    render_frames.restype = _INT64
    counting_order = lib.repro_counting_order
    counting_order.argtypes = [_INT64, _POINTER, _INT64, _POINTER, _POINTER]
    counting_order.restype = _INT64
    crc32_fold = lib.repro_crc32_fold
    crc32_fold.argtypes = [_INT64, _POINTER, _INT64]
    crc32_fold.restype = _INT64
    return Kernels(
        initial_scan, build_pass, splice, walk_step, count_init, count_visits,
        render_frames, counting_order, crc32_fold,
    )


def _load() -> Kernels:
    """Compile (or reuse) and load the library, or raise :class:`KernelBuildError`."""
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
    raise KernelBuildError(
        "cannot build the compiled kernels (a C compiler, cc, is required): "
        + "; ".join(problems)
    )


@functools.cache
def _loaded() -> Kernels | str:
    """The loaded kernels, or the reason they could not be built.

    Memoised either way: :func:`functools.cache` does not cache a raised
    exception, so a failure is kept as its message.
    """
    try:
        return _load()
    except KernelBuildError as exc:
        return str(exc)


def library() -> Kernels:
    """The loaded C kernels; raises :class:`KernelBuildError` when they cannot be built."""
    kernels = _loaded()
    if isinstance(kernels, str):
        raise KernelBuildError(kernels)
    return kernels


#: Scratch bytes per id of a run's text: the 20 characters of the
#: widest int64, ``-9223372036854775808``, and the ``", "`` after it.
_ID_TEXT_BYTES = 22


class FrameRenderer:
    """The cores of one start time's batch as NDJSON frames, in bytes.

    A batch is what an emitting walk hands a sink (see
    :mod:`repro.serve.sinks`): a start time ``ts``, per core its end and
    prefix length, and the shared edge run.  Each core becomes
    ``prefix``, the object ``{"tti": [ts, te], "num_edges": n,
    "edge_ids": [...]}`` (without ``edge_ids`` when ``edge_ids=False``),
    ``closing`` and ``\\n`` — ``json.dumps``'s text, byte for byte, for
    every int64.  One ``repro_render_frames`` call renders the run's
    text once and copies each core's prefix of it; the output buffer is
    kept across batches and grown when a batch does not fit (a second
    call then renders it).
    """

    def __init__(self, prefix: bytes = b"", closing: bytes = b"", *, edge_ids: bool = True):
        self._render = library().render_frames
        self._prefix = prefix
        self._closing = closing
        self._edge_ids = edge_ids
        self._stops = np.empty(1, dtype=np.int64)
        self._text = np.empty(0, dtype=np.uint8)
        self._grow(1 << 16)

    def _grow(self, capacity: int) -> None:
        self._out = bytearray(capacity)
        # The export pins the buffer, whose address the kernel writes to.
        self._pin = ctypes.c_char.from_buffer(self._out)
        self._address = ctypes.addressof(self._pin)

    def render(self, ts: int, ends, prefix_lens, eids) -> memoryview:
        """The batch's frames: a view of the renderer's buffer from its
        first byte, valid until the next call.

        ``ends``, ``prefix_lens`` and ``eids`` must be C-contiguous int64
        arrays, ``ends`` and ``prefix_lens`` of one length; with
        ``edge_ids``, every prefix length must lie in ``[0, len(eids)]``.
        Raises :class:`ValueError` otherwise, the columns checked before
        the kernel runs.
        """
        for column in (ends, prefix_lens, eids):
            if column.dtype != np.int64 or not column.flags.c_contiguous:
                raise ValueError("a batch's columns must be C-contiguous int64 arrays")
        if len(ends) != len(prefix_lens):
            raise ValueError("a batch needs one prefix length per core end")
        run = len(eids) if self._edge_ids else 0
        if run >= len(self._stops):
            self._stops = np.empty(2 * run + 1, dtype=np.int64)
            self._text = np.empty(_ID_TEXT_BYTES * len(self._stops), dtype=np.uint8)
        while True:
            size = self._render(
                self._prefix, len(self._prefix), self._closing, len(self._closing), ts,
                len(ends), ends.ctypes.data, prefix_lens.ctypes.data,
                self._edge_ids, run, eids.ctypes.data,
                self._text.ctypes.data, self._stops.ctypes.data,
                self._address, len(self._out),
            )
            if size < 0:
                raise ValueError(f"a prefix length lies outside the {run} edge ids of the run")
            if size <= len(self._out):
                return memoryview(self._out)[:size]
            self._grow(max(size, 2 * len(self._out)))


def counting_order(keys, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The stable order of int ``keys`` in ``[0, bound)`` and their CSR offsets.

    Returns ``(order, offsets)``: ``order`` equals
    ``np.argsort(keys, kind="stable")`` and ``keys[order][offsets[b] :
    offsets[b + 1]]`` is the run of key ``b`` (``bound + 1`` offsets).
    One O(len + bound) ``repro_counting_order`` call.  Raises
    :class:`ValueError` when a key lies outside ``[0, bound)``.
    """
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    order = np.empty(len(keys), dtype=np.int64)
    offsets = np.empty(bound + 1, dtype=np.int64)
    if library().counting_order(
        len(keys), keys.ctypes.data, bound, offsets.ctypes.data, order.ctypes.data
    ):
        raise ValueError(f"counting-order keys outside [0, {bound})")
    return order, offsets


def crc32(data, value: int = 0) -> int:
    """``zlib.crc32(data, value)`` of a bytes-like object.

    The 16-byte blocks go through one ``repro_crc32_fold`` call when the
    CPU multiplies carry-less (several times zlib's speed on large
    buffers), the few bytes left through zlib; short buffers, and every
    buffer on a CPU without PCLMULQDQ, go through zlib whole.
    """
    view = memoryview(data).cast("B")
    if len(view) >= 64:
        address = np.frombuffer(view, dtype=np.uint8).ctypes.data
        folded = library().crc32_fold(len(view), address, value)
        if folded >= 0:
            return zlib.crc32(view[len(view) & ~15 :], folded)
    return zlib.crc32(view, value)
