"""The C kernels' loader (:mod:`repro.core.native`).

The cache directory and the compiler command are redirected by
monkeypatching the module's functions; each test loads through the
unmemoised ``_load`` or clears :func:`native.library`'s memo.
"""

from __future__ import annotations

import logging
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core import native
from repro.core.index import CoreIndex
from repro.core.multik import compute_core_times_multi
from repro.graph.generators import uniform_random_temporal
from repro.obs.metrics import get_registry

pytestmark = pytest.mark.skipif(
    native.library() is None, reason="no working C compiler"
)


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
    native.library.cache_clear()
    yield
    native.library.cache_clear()


def _flat(results):
    return [
        part
        for k in sorted(results)
        for part in results[k].vct.flat_parts() + results[k].ecs.flat_parts()
    ]


def _same(left, right) -> bool:
    return all(np.array_equal(a, b) for a, b in zip(_flat(left), _flat(right), strict=True))


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
        assert native.library() is not None
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


def test_failing_compiler_falls_back(tmp_path, monkeypatch, caplog, fresh_memo):
    graph = uniform_random_temporal(20, 220, tmax=18, seed=5)
    compiled = compute_core_times_multi(graph, [1, 2, 4])
    index = CoreIndex(graph, 2)
    ranges = [(1, graph.tmax), (3, 12), (3, 12), (5, 9)]

    def answers():
        return [(r.num_results, r.total_edges) for r in index.query_batch(ranges)]

    compiled_answers = answers()
    failing = [
        sys.executable,
        "-c",
        "import sys; sys.stderr.write('cc: fatal error: no input\\n'); sys.exit(1)",
    ]
    monkeypatch.setattr(native, "cache_dirs", lambda: [tmp_path / "cache"])
    monkeypatch.setattr(native, "compiler_command", lambda source, output: failing)
    native.library.cache_clear()
    with caplog.at_level(logging.WARNING, logger="repro.core.native"):
        assert native.library() is None
        fallback = compute_core_times_multi(graph, [1, 2, 4])
        compute_core_times_multi(graph, [2, 3])
        fallback_answers = answers()
    warnings = [r for r in caplog.records if r.name == "repro.core.native"]
    assert len(warnings) == 1
    assert "cc: fatal error: no input" in warnings[0].getMessage()
    assert get_registry().get("repro_kernel_native").value == 0
    assert _same(compiled, fallback)
    assert fallback_answers == compiled_answers


def test_gauge_reports_compiled(fresh_memo):
    assert native.library() is not None
    assert get_registry().get("repro_kernel_native").value == 1
