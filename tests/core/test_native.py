"""The C kernels' loader (:mod:`repro.core.native`).

The cache directory and the compiler command are redirected by
monkeypatching the module's functions; each test loads through the
unmemoised ``_load`` or clears the memo behind :func:`native.library`.
"""

from __future__ import annotations

import io
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest

from repro import cli
from repro.core import native
from repro.core.incremental import delta_fold
from repro.core.index import CoreIndex
from repro.core.multik import build_core_indexes, compute_core_times_multi
from repro.errors import KernelBuildError
from repro.graph.generators import uniform_random_temporal
from repro.graph.temporal_graph import TemporalGraph
from repro.serve.sinks import NDJSONSink
from repro.store import IndexStore
from tests.conftest import ON_BOTH_PATHS


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    """An empty cache directory, and a log of every compiler run."""
    directory = tmp_path / "cache"
    runs: list[list[str]] = []
    real = native.compiler_command

    def counted(source, output):
        command = real(source, output)
        runs.append(command)
        return command

    monkeypatch.setattr(native, "cache_dirs", lambda: [directory])
    monkeypatch.setattr(native, "compiler_command", counted)
    return directory, runs


@pytest.fixture()
def fresh_memo():
    native._loaded.cache_clear()
    yield
    native._loaded.cache_clear()


class TestCache:
    def test_second_load_reuses_library(self, cache):
        directory, runs = cache
        assert native._load() is not None
        assert len(runs) == 1
        libraries = sorted(directory.glob("*.so"))
        assert len(libraries) == 1
        assert native._load() is not None
        assert len(runs) == 1
        assert sorted(directory.glob("*.so")) == libraries

    def test_changed_source_recompiles(self, cache, tmp_path, monkeypatch):
        directory, runs = cache
        assert native._load() is not None
        (previous,) = directory.glob("*.so")
        edited = tmp_path / "_fixpoint.c"
        edited.write_text(native.SOURCE.read_text() + "\n/* edited */\n")
        monkeypatch.setattr(native, "SOURCE", edited)
        assert native._load() is not None
        assert len(runs) == 2
        # The previous revision's library is pruned on publish.
        (current,) = directory.glob("*.so")
        assert current != previous

    def test_publish_prunes_only_other_revisions(self, cache):
        directory, _ = cache
        directory.mkdir()
        stale = directory / "_fixpoint-0123456789abcdef.so"
        stale.write_bytes(b"old revision")
        unrelated = directory / "other.so"
        unrelated.write_bytes(b"not ours")
        assert native._load() is not None
        assert not stale.exists()
        assert unrelated.exists()
        assert len(list(directory.glob("_fixpoint-*.so"))) == 1

    def test_reused_library_prunes_nothing(self, cache):
        directory, runs = cache
        assert native._load() is not None
        stale = directory / "_fixpoint-0123456789abcdef.so"
        stale.write_bytes(b"old revision")
        assert native._load() is not None
        assert len(runs) == 1
        assert stale.exists()

    def test_private_directory_is_not_pruned(self, tmp_path, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        private = tmp_path / "private"
        private.mkdir(mode=0o700)
        stale = private / "_fixpoint-0123456789abcdef.so"
        stale.write_bytes(b"another checkout's revision")
        monkeypatch.setattr(native, "cache_dirs", lambda: [blocker / "cache", private])
        assert native._load() is not None
        assert stale.exists()
        assert len(list(private.glob("_fixpoint-*.so"))) == 2

    def test_prune_tolerates_a_racing_remover(self, cache, monkeypatch):
        directory, _ = cache
        real_glob = pathlib.Path.glob

        def glob_with_vanished(self, pattern):
            yield from real_glob(self, pattern)
            yield self / "_fixpoint-ffffffffffffffff.so"  # already removed

        monkeypatch.setattr(pathlib.Path, "glob", glob_with_vanished)
        assert native._load() is not None
        assert len(list(real_glob(directory, "_fixpoint-*.so"))) == 1

    def test_unusable_directory_falls_back_to_the_next(self, tmp_path, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        fallback = tmp_path / "fallback"
        monkeypatch.setattr(native, "cache_dirs", lambda: [blocker / "cache", fallback])
        assert native._load() is not None
        assert len(list(fallback.glob("*.so"))) == 1

    def test_no_temp_files_left(self, cache):
        directory, _ = cache
        native._load()
        assert [p.name for p in directory.iterdir() if not p.name.endswith(".so")] == []


def test_racing_processes_on_cold_cache(tmp_path):
    """Two processes compiling into one empty cache both load a library."""
    directory = tmp_path / "cache"
    script = textwrap.dedent(
        f"""
        import pathlib
        from repro.core import native
        from repro.core.coretime import compute_core_times
        from repro.core.multik import compute_core_times_multi
        from repro.datasets.paper_example import paper_example_graph

        native.cache_dirs = lambda: [pathlib.Path({str(directory)!r})]
        native.library()
        graph = paper_example_graph()
        multi = compute_core_times_multi(graph, [2, 3])
        for k in (2, 3):
            single = compute_core_times(graph, k)
            for u in range(graph.num_vertices):
                assert multi[k].vct.entries_of(u) == single.vct.entries_of(u)
        print("ok")
        """
    )
    env = dict(os.environ, PYTHONPATH=str(native.SOURCE.parents[2]))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for _ in range(2)
    ]
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert out.strip() == "ok"
    assert len(list(directory.glob("*.so"))) == 1
    assert [p for p in directory.iterdir() if not p.name.endswith(".so")] == []


def test_failing_compiler_raises_once(tmp_path, monkeypatch, fresh_memo):
    """The compiler's stderr reaches the error; a failure is memoised like a success."""
    runs = []
    failing = [
        sys.executable,
        "-c",
        "import sys; sys.stderr.write('cc: fatal error: no input\\n'); sys.exit(1)",
    ]

    def command(source, output):
        runs.append(output)
        return failing

    monkeypatch.setattr(native, "cache_dirs", lambda: [tmp_path / "cache"])
    monkeypatch.setattr(native, "compiler_command", command)
    graph = uniform_random_temporal(20, 220, tmax=18, seed=5)
    with pytest.raises(KernelBuildError, match="cc: fatal error: no input"):
        native.library()
    with pytest.raises(KernelBuildError, match="cc: fatal error: no input"):
        compute_core_times_multi(graph, [1, 2, 4])
    assert len(runs) == 1
    assert not list((tmp_path / "cache").glob("*.so"))


def test_serve_exits_at_boot_without_kernels(tmp_path, monkeypatch, capsys, fresh_memo):
    """``repro serve`` fails before it binds, with the compiler's stderr."""
    failing = [sys.executable, "-c", "import sys; sys.exit('cc: fatal error: no input')"]
    monkeypatch.setattr(native, "cache_dirs", lambda: [tmp_path / "cache"])
    monkeypatch.setattr(native, "compiler_command", lambda source, output: failing)
    assert cli.main(["serve", "--store", str(tmp_path / "store"), "--port", "0"]) == 2
    out, err = capsys.readouterr()
    assert "ready" not in out
    assert "cc: fatal error: no input" in err


def stream_edges(seed: int, count: int, *, start: int = 1) -> list[tuple]:
    """Nondecreasing-time random labelled edges over 12 vertices."""
    rng = random.Random(seed)
    edges, t = [], start
    while len(edges) < count:
        t += rng.random() < 0.6
        u, v = rng.sample(range(12), 2)
        edges.append((f"n{u}", f"n{v}", t))
    return edges


class _Inputs:
    """What the public callers take, built with the kernels before the
    case runs: a compiled graph, its k=2,3 indexes, a frontier batch."""

    def __init__(self, root: pathlib.Path):
        self.root = root
        self.edges = stream_edges(5, 160)
        self.graph = TemporalGraph(self.edges)
        self.graph.compiled()
        self.indexes = build_core_indexes(self.graph, (2, 3))
        self.pending = stream_edges(6, 12, start=self.edges[-1][2] + 1)
        top = self.graph.tmax
        self.ranges = [(1, top // 2), (top // 3, top)]


#: Every ``native.Kernels`` entry point and the public caller that
#: reaches it.
PUBLIC_CALLERS = {
    "initial_scan": lambda s: build_core_indexes(s.graph, (2, 3)),
    "build_pass": lambda s: CoreIndex(s.graph, 2),
    "splice": lambda s: delta_fold(s.graph, s.indexes, s.pending),
    "walk_step": lambda s: s.indexes[2].query(*s.ranges[0]),
    "count_init": lambda s: s.indexes[2].query(*s.ranges[0], collect=False),
    "count_visits": lambda s: s.indexes[3].query_batch(s.ranges),
    "render_frames": lambda s: s.indexes[2].query(
        *s.ranges[0], sink=NDJSONSink(io.StringIO())
    ),
    "counting_order": lambda s: TemporalGraph(s.edges).compiled(),
    "crc32_fold": lambda s: IndexStore(s.root / "store").commit(
        s.graph, s.indexes.values(), name="g"
    ),
}


def test_every_entry_point_has_a_public_caller():
    assert set(PUBLIC_CALLERS) == set(native.Kernels._fields)


@pytest.fixture()
def inputs(tmp_path) -> _Inputs:
    """Built before the case runs, so a refused case refuses only its caller."""
    return _Inputs(tmp_path)


@pytest.mark.parametrize("path", ON_BOTH_PATHS)
@pytest.mark.parametrize("entry", sorted(PUBLIC_CALLERS))
def test_public_caller_reaches_its_kernel(entry, path, inputs, monkeypatch):
    """Compiled, the caller calls its entry point.  On a host whose
    compile failed (``numpy``, held to the ``failed_compile`` contract)
    the caller lets the :class:`KernelBuildError` through: it never
    falls back, never computes, never swallows the refusal."""
    if path == "compiled":
        called: set[str] = set()
        kernels = native.library()

        class Spy:
            def __getattr__(self, name):
                called.add(name)
                return getattr(kernels, name)

        monkeypatch.setattr(native, "library", Spy)
        PUBLIC_CALLERS[entry](inputs)
        assert entry in called
        return
    PUBLIC_CALLERS[entry](inputs)
    pytest.fail(f"the public caller of {entry} never asked for the kernels")
