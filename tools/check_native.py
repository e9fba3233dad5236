"""Strict-warning and sanitizer checks for the C kernels (``core/_fixpoint.c``).

1. Compiles the source with ``-Wall -Wextra -Werror``: any warning fails.
2. Runs the CoreTime kernel, multi-k, fold, streaming-service,
   counting-order, graph-compile, checksum, skyline, blob-store,
   columnar-walk, sink and frame-writer suites
   (``tests/core/test_flat_kernel.py``, ``tests/core/test_multik.py``,
   ``tests/core/test_incremental.py``, ``tests/core/test_maintenance.py``,
   ``tests/core/test_counting_order.py``, ``tests/graph/test_csr.py``
   (every compile's counting passes, on empty, single-edge, all-self-loop
   and grown graphs),
   ``tests/core/test_crc32.py``, ``tests/core/test_windows.py``,
   ``tests/store/test_format.py``, ``tests/serve/test_columnar.py``,
   ``tests/serve/test_executor.py``, ``tests/serve/test_sinks.py``,
   ``tests/serve/test_protocol.py::TestFrameWriterChunks``)
   against an AddressSanitizer + UndefinedBehaviorSanitizer build of the
   library (``-fsanitize=address,undefined -fno-sanitize-recover=all``),
   loaded through :mod:`repro.core.native` with its compiler command and
   cache directory redirected to a temp dir.
3. Hands the sanitized ``repro_count_init`` two cuts of its own (see
   :func:`count_cuts`): a mid-span cut whose first window's flat
   predecessor lies outside it, which must count what the seed walk
   counts, and a cut claiming a range its windows start before, which
   must be refused.
4. Hands the sanitized ``repro_render_frames`` batches of its own (see
   :func:`render_frames`): ``INT64_MIN``/``INT64_MAX`` ids and times, a
   frame wider than a daemon outbox chunk, a batch without edge ids,
   and a prefix length past its run, which must be refused.  Frames
   must equal ``json.dumps`` of each core between prefix and closing.
5. Hands the sanitized ``repro_build_pass`` three builds of its own
   (see :func:`own_builds`): narrow windows of a sparse graph, where
   most pairs have no edge in the window and leave their vertices' live
   prefixes at the first start; a high-k build of a dense graph, whose
   keys keep finite core times until their live pairs fall to k - 1 or
   fewer; and a graph whose pairs repeat edges at one timestamp, built
   from empty output buffers (``_FusedMultiK._START_ROWS = 0``), so
   each expiring batch crosses a pair's support once however many of
   its edges it holds, and every resume sizes the buffers to what the
   pass asked for, spare row included.  All must equal ``coretime_ref``
   entry for entry, and the second must hold such a key.
6. Counts the calls of each of the nine entry points of
   :class:`~repro.core.native.Kernels` while the suites and cuts run,
   and reports them: an entry point nothing called is a failure, since
   the sanitizers never saw it.
7. Sums the build pass's ``fallback_selections``
   (``repro_kernel_work_total``, see :class:`FallbackWatch`) over the
   multi-k suite's tests and reports it: 0 is a failure, since the
   sanitizers then never saw the core-time operator's quickselect on
   its copy at ``scratch + deg``.

The ASan runtime has to be loaded before the Python interpreter's own
libraries, so run it as::

    LD_PRELOAD=$(cc -print-file-name=libasan.so) ASAN_OPTIONS=detect_leaks=0 \\
        PYTHONPATH=src python tools/check_native.py

Exits non-zero when the strict compile fails, the sanitized library does
not load, a test, cut, render or build check fails (a sanitizer report
aborts the process), an entry point was never called, or the multi-k
suite made no fallback selection.
"""

from __future__ import annotations

import pathlib
import random
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

from repro.core import multik, native  # noqa: E402
from repro.errors import KernelBuildError  # noqa: E402

STRICT = ["-Wall", "-Wextra", "-Werror"]
SANITIZE = [
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all",
    "-fno-omit-frame-pointer",
    "-g",
]
TESTS = [
    "tests/core/test_flat_kernel.py",
    "tests/core/test_multik.py",
    "tests/core/test_incremental.py",
    "tests/core/test_maintenance.py",
    "tests/core/test_counting_order.py",
    "tests/graph/test_csr.py",
    "tests/core/test_crc32.py",
    "tests/core/test_windows.py",
    "tests/store/test_format.py",
    "tests/serve/test_columnar.py",
    "tests/serve/test_executor.py",
    "tests/serve/test_sinks.py",
    "tests/serve/test_protocol.py::TestFrameWriterChunks",
]


def with_flags(flags: list[str]):
    """The loader's compiler command with ``flags`` after the compiler name."""
    base = native.compiler_command

    def command(source: pathlib.Path, output: pathlib.Path) -> list[str]:
        compiler, *rest = base(source, output)
        return [compiler, *flags, *rest]

    return command


def counted(kernels: native.Kernels, calls: dict[str, int]) -> native.Kernels:
    """``kernels`` with every entry point wrapped to count its calls into ``calls``."""

    def wrap(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)

        return call

    return kernels._replace(**{name: wrap(name, getattr(kernels, name)) for name in kernels._fields})


class FallbackWatch:
    """A pytest plugin summing the fallback selections of the tests in ``suite``."""

    def __init__(self, suite: str):
        self.suite = suite
        self.selections = 0

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(self, item):
        before = multik.kernel_work_counts()["fallback_selections"]
        try:
            return (yield)
        finally:
            if item.path.name == self.suite:
                self.selections += multik.kernel_work_counts()["fallback_selections"] - before


def count_cuts() -> list[str]:
    """Count a mid-span cut and refuse a malformed one; the problems found.

    The skyline's edge 0 has windows (1, 3), (2, 5), (4, 6).  The cut of
    ``[2, 6]`` starts past the windows starting at 1 (``lo > 0``) and
    holds edge 0 from its second window on, so that window activates at
    ``ts`` although its flat predecessor starts at 1; edge 2's (3, 7)
    starts inside the range but ends after it.  The cut of the whole
    start order claimed for ``[2, 7]`` holds windows starting at 1.
    """
    from repro.core.enumerate_ref import enumerate_active_window_arrays_ref
    from repro.core.windows import EdgeCoreSkyline, SkylineCut
    from repro.serve.columnar import run_columnar_walk
    from repro.serve.sinks import CountSink

    skyline = EdgeCoreSkyline(
        [[(1, 3), (2, 5), (4, 6)], [(1, 2), (3, 4)], [(2, 4), (3, 7)]], 2, (1, 7)
    )
    problems = []
    cut = skyline.cut(2, 6)
    if cut.lo == 0:
        problems.append(f"the [2, 6] cut starts at lo = 0: {cut}")
    sink = CountSink()
    sink.finish(run_columnar_walk(cut, sink))
    want = enumerate_active_window_arrays_ref(2, 2, 6, cut.arrays(), collect=False)
    if (sink.num_results, sink.total_edges) != (want.num_results, want.total_edges):
        problems.append(
            f"mid-span cut counted {(sink.num_results, sink.total_edges)}, "
            f"the seed walk {(want.num_results, want.total_edges)}"
        )
    full = skyline.cut(1, 7)
    try:
        run_columnar_walk(SkylineCut(skyline, full.lo, full.hi, 2, 7), CountSink())
    except ValueError:
        pass
    else:
        problems.append("a cut holding windows that start before its range was counted")
    return problems


def render_frames() -> list[str]:
    """Render batches at the int64 extremes and refuse a bad one; the problems found."""
    import json

    import numpy as np

    low, high = -(2**63), 2**63 - 1
    run = [low, high, 0, -1, *range(10**15, 10**15 + 7 * 20_000, 7)]
    batches = [
        (low, [low, -1, high], [0, 2, 4]),
        (high, [high], [len(run)]),  # ~340 KiB: wider than a 64 KiB chunk
    ]
    problems = []
    for edge_ids in (True, False):
        renderer = native.FrameRenderer(b'{"id": "x", "core": ', b"}", edge_ids=edge_ids)
        for ts, ends, lens in batches:
            frames = renderer.render(
                ts, *(np.array(column, dtype=np.int64) for column in (ends, lens, run))
            )
            want = []
            for te, n in zip(ends, lens):
                core = {"tti": [ts, te], "num_edges": n}
                if edge_ids:
                    core["edge_ids"] = run[:n]
                want.append('{"id": "x", "core": ' + json.dumps(core) + "}\n")
            if bytes(frames) != "".join(want).encode():
                problems.append(f"frames of ts={ts}, edge_ids={edge_ids} differ from json.dumps")
    try:
        native.FrameRenderer().render(
            1, *(np.array(column, dtype=np.int64) for column in ([2], [5], [1, 2, 3]))
        )
    except ValueError:
        pass
    else:
        problems.append("a prefix length past its run was rendered")
    return problems


def own_builds() -> list[str]:
    """Builds where pairs die before and inside the window, and a resumed
    build with repeated same-timestamp pair edges; the problems found."""
    from repro.core.coretime_ref import compute_core_times_reference
    from repro.graph.generators import uniform_random_temporal
    from repro.graph.temporal_graph import TemporalGraph

    problems = []

    def check(graph, ks, ts, te):
        built = multik.compute_core_times_multi(graph, ks, ts, te)
        for k in ks:
            reference = compute_core_times_reference(graph, k, ts, te)
            if any(
                built[k].vct.entries_of(u) != reference.vct.entries_of(u)
                for u in range(graph.num_vertices)
            ) or any(
                built[k].ecs.windows_of(eid) != reference.ecs.windows_of(eid)
                for eid in range(graph.num_edges)
            ):
                problems.append(f"the k={k} build over [{ts}, {te}] differs from coretime_ref")
        return built

    sparse = uniform_random_temporal(20, 900, tmax=300, seed=7)
    cores = 0
    for ts in (1, sparse.tmax // 2, sparse.tmax - 10):
        cores += check(sparse, [1, 2, 3], ts, ts + 10)[2].vct.size()
    if not cores:
        problems.append("the narrow windows hold no 2-core")

    dense = uniform_random_temporal(12, 400, tmax=40, seed=3)
    ks = [4, 6, 8]
    built = check(dense, ks, 1, dense.tmax)
    last: dict[tuple[int, int], int] = {}  # the last time of each pair
    for x, y, t in zip(*(column.tolist() for column in dense.edge_columns())):
        last[x, y] = max(last.get((x, y), 0), t)

    def live_pairs(x: int, start: int) -> int:
        return sum(t >= start for pair, t in last.items() if x in pair)

    ran_out = any(
        before is not None and after is None and live_pairs(x, start) <= k - 1
        for k in ks
        for x in range(dense.num_vertices)
        for (_, before), (start, after) in zip(
            built[k].vct.entries_of(x), built[k].vct.entries_of(x)[1:]
        )
    )
    if not ran_out:
        problems.append("no key of the high-k build ran out of live pairs")

    rng = random.Random(5)
    columns = uniform_random_temporal(10, 300, tmax=30, seed=5).edge_columns()
    drawn = list(zip(*(column.tolist() for column in columns)))
    repeated = TemporalGraph([edge for edge in drawn for _ in range(rng.randint(1, 3))])
    start_rows = multik._FusedMultiK._START_ROWS
    multik._FusedMultiK._START_ROWS = 0
    try:
        for ts, te in ((None, None), (4, repeated.tmax - 5)):
            check(repeated, [1, 2, 3, 4], ts, te)
    finally:
        multik._FusedMultiK._START_ROWS = start_rows
    return problems


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="check-native-") as tmp:
        scratch = pathlib.Path(tmp)
        strict = with_flags(STRICT)(native.SOURCE, scratch / "strict.so")
        print("+", " ".join(strict), flush=True)
        if subprocess.run(strict).returncode != 0:
            print("strict compile failed", file=sys.stderr)
            return 1

        sanitized = scratch / "sanitized"
        native.compiler_command = with_flags(SANITIZE)
        native.cache_dirs = lambda: [sanitized]
        native._loaded.cache_clear()
        try:
            kernels = native.library()
        except KernelBuildError as exc:
            print(exc, file=sys.stderr)
            kernels = None
        if kernels is None or not list(sanitized.glob("_fixpoint-*.so")):
            print(
                "the sanitized library did not load: run with "
                "LD_PRELOAD=$(cc -print-file-name=libasan.so)",
                file=sys.stderr,
            )
            return 1
        calls = dict.fromkeys(native.Kernels._fields, 0)
        watched = counted(kernels, calls)
        native.library = lambda: watched
        # --capture=sys leaves fd 2 alone, so a sanitizer report that
        # aborts the process still reaches the terminal.
        args = ["-q", "-p", "no:cacheprovider", "--capture=sys"]
        watch = FallbackWatch("test_multik.py")
        status = int(pytest.main([*args, *(str(ROOT / t) for t in TESTS)], plugins=[watch]))
        problems = [f"cut check: {problem}" for problem in count_cuts()]
        problems += [f"render check: {problem}" for problem in render_frames()]
        problems += [f"build check: {problem}" for problem in own_builds()]
        print(f"fallback selections under the sanitizers in test_multik.py: {watch.selections}")
        if not watch.selections:
            problems.append("the multi-k suite made no fallback selection")
        for problem in problems:
            print(problem, file=sys.stderr)
        status = status or int(bool(problems))
        print("entry point calls under the sanitizers:")
        for name, count in calls.items():
            print(f"  {name}: {count}")
        missed = [name for name, count in calls.items() if not count]
        if missed:
            print(f"never called under the sanitizers: {', '.join(missed)}", file=sys.stderr)
            return status or 1
        return status


if __name__ == "__main__":
    sys.exit(main())
