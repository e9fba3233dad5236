"""Registry store fallthrough and warm-up: the daemon cold-start path."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import threading

import pytest

import repro
import repro.core.index as index_module
import repro.core.multik as multik_module
from repro.core.enumerate import enumerate_temporal_kcores
from repro.core.index import CoreIndex, CoreIndexRegistry, get_core_index
from repro.datasets.paper_example import paper_example_graph
from repro.graph.generators import uniform_random_temporal
from repro.store import IndexStore


@pytest.fixture()
def store(tmp_path):
    return IndexStore(tmp_path / "store")


@pytest.fixture()
def populated(store, paper_graph):
    store.save_index(CoreIndex(paper_graph, 2), name="paper")
    store.save_index(CoreIndex(paper_graph, 3), name="paper")
    return store


def _forbid_compute(monkeypatch, message):
    """Make any Algorithm-2 run fail the test loudly."""
    def explode(*args, **kwargs):
        raise AssertionError(message)

    monkeypatch.setattr(index_module, "compute_core_times", explode)
    monkeypatch.setattr(multik_module, "compute_core_times_multi", explode)


class TestStoreFallthrough:
    def test_get_with_store_computes_nothing(self, populated, monkeypatch):
        """Acceptance: a populated store answers with zero compute_core_times."""
        _forbid_compute(monkeypatch, "compute_core_times called on the warm path")
        registry = CoreIndexRegistry(capacity=4, store=populated)
        fresh = paper_example_graph()  # equal content, different object
        index = registry.get(fresh, 2)
        assert registry.stats()["store_hits"] == 1
        expected = enumerate_temporal_kcores(paper_example_graph(), 2, 1, 4).edge_sets()
        assert index.query(1, 4).edge_sets() == expected

    def test_attached_store_used_by_default(self, populated, monkeypatch):
        _forbid_compute(monkeypatch, "compute_core_times called on the warm path")
        registry = CoreIndexRegistry(capacity=4, store=populated)
        registry.get(paper_example_graph(), 3)
        assert registry.stats()["store_hits"] == 1
        assert populated.stats()["index_saves"] == 2  # nothing rewritten

    def test_second_get_is_a_cache_hit(self, populated):
        registry = CoreIndexRegistry(capacity=4, store=populated)
        graph = paper_example_graph()
        first = registry.get(graph, 2)
        assert registry.get(graph, 2) is first
        stats = registry.stats()
        assert stats["hits"] == 1 and stats["store_hits"] == 1

    def test_absent_entry_falls_back_to_build(self, populated):
        registry = CoreIndexRegistry(capacity=4, store=populated)
        index = registry.get(paper_example_graph(), 5)  # k=5 never stored
        assert registry.stats()["store_hits"] == 0
        assert index.k == 5
        # The build is committed before it is served, under the same key.
        assert populated.stored_ks("paper") == [2, 3, 5]

    def test_helper_passes_store_through(self, populated, monkeypatch):
        _forbid_compute(monkeypatch, "compute_core_times called on the warm path")
        registry = CoreIndexRegistry(capacity=4, store=populated)
        index = get_core_index(paper_example_graph(), 2, registry=registry)
        assert index.k == 2


class TestThreadSafety:
    def test_concurrent_gets_are_safe(self, paper_graph, triangle_graph):
        """A warm-up thread plus serving threads is a supported pattern."""
        registry = CoreIndexRegistry(capacity=4)
        graphs = [paper_graph, triangle_graph]
        errors: list[BaseException] = []

        def hammer(worker: int) -> None:
            try:
                for i in range(25):
                    graph = graphs[(worker + i) % 2]
                    index = registry.get(graph, 2)
                    assert index.graph is graph
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = registry.stats()
        assert stats["hits"] + stats["misses"] == 8 * 25

    def test_concurrent_warm_and_serve(self, populated):
        registry = CoreIndexRegistry(capacity=8, store=populated)
        errors: list[BaseException] = []

        def warm() -> None:
            try:
                for key in populated.keys():
                    graph = populated.load_graph(key)
                    registry.get_many(graph, populated.stored_ks(key))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def serve() -> None:
            try:
                graph = paper_example_graph()
                for _ in range(10):
                    registry.get(graph, 2)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=warm), threading.Thread(target=serve)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors


class TestFirstQueryImports:
    def test_store_backed_query_does_not_import_numpy_ma(self, tmp_path):
        """numpy 2.4's plain ``np.unique`` imports ``numpy.ma`` (tens of
        milliseconds) on its first call: a fresh process's first
        store-backed query must not pay that."""
        root = tmp_path / "store"
        graph = uniform_random_temporal(30, 300, tmax=40, seed=2)
        IndexStore(root).build_all(graph, (2, 3), name="g")
        script = (
            "import sys\n"
            "from repro.store import IndexStore\n"
            f"store = IndexStore({str(root)!r})\n"
            "graph = store.load_graph('g')\n"
            "index = store.load_index(graph, 3, key='g')\n"
            "assert index.query(1, graph.tmax).num_results > 0\n"
            "assert index.query_batch([(1, 20), (10, 40)])[1].num_results > 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(pathlib.Path(repro.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        )}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-1500:]
        assert proc.stdout.strip() == "False"
