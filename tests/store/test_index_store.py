"""IndexStore: manifests, fingerprint matching, corruption handling."""

from __future__ import annotations

import json

import pytest

from repro.core.enumerate import enumerate_temporal_kcores
from repro.core.index import CoreIndex
from repro.errors import StoreError
from repro.store import IndexStore
from repro.store.index_store import GRAPH_FILE, MANIFEST_NAME


@pytest.fixture()
def store(tmp_path):
    return IndexStore(tmp_path / "store")


class TestSaving:
    def test_save_and_keys(self, store, paper_graph):
        key = store.save_index(CoreIndex(paper_graph, 2), name="paper")
        assert key == "paper"
        assert store.keys() == ["paper"]
        assert store.stored_ks("paper") == [2]

    def test_default_key_is_fingerprint_derived(self, store, paper_graph):
        key = store.save_graph(paper_graph)
        assert key.startswith("g")
        assert store.keys() == [key]

    def test_save_graph_idempotent(self, store, paper_graph):
        first = store.save_graph(paper_graph, name="paper")
        mtime = (store.root / "paper" / GRAPH_FILE).stat().st_mtime_ns
        assert store.save_graph(paper_graph, name="paper") == first
        assert (store.root / "paper" / GRAPH_FILE).stat().st_mtime_ns == mtime

    def test_multiple_ks_share_a_graph(self, store, paper_graph):
        store.save_index(CoreIndex(paper_graph, 2), name="paper")
        store.save_index(CoreIndex(paper_graph, 3), name="paper")
        assert store.stored_ks("paper") == [2, 3]
        files = {p.name for p in (store.root / "paper").iterdir()} - {".lock"}
        assert files == {MANIFEST_NAME, GRAPH_FILE, "k2.idx", "k3.idx"}

    def test_name_reuse_for_different_graph_resets(self, store, paper_graph,
                                                   triangle_graph):
        store.save_index(CoreIndex(paper_graph, 2), name="g")
        store.save_graph(triangle_graph, name="g")
        # The old index described the old graph and must be gone once
        # the commit's reclaim has released the lock.
        assert store.stored_ks("g") == []
        assert store.lock_info("g") is None
        assert not (store.root / "g" / "k2.idx").exists()
        loaded = store.load_graph("g")
        assert loaded.num_edges == triangle_graph.num_edges

    def test_isomorphic_graphs_do_not_collide(self, store):
        """Same structure, different labels/raw times → distinct entries."""
        from repro.graph.temporal_graph import TemporalGraph

        a = TemporalGraph([("a", "b", 10), ("b", "c", 20), ("a", "c", 30)])
        b = TemporalGraph([("x", "y", 10), ("y", "z", 25), ("x", "z", 30)])
        key_a = store.save_graph(a)
        key_b = store.save_graph(b)
        assert key_a != key_b
        restored_a = store.load_graph(store.find(a))
        restored_b = store.load_graph(store.find(b))
        assert restored_a.label_of(0) == "a"
        assert restored_b.label_of(0) == "x"
        assert restored_b.raw_time_of(2) == 25

    def test_manifest_schema(self, store, paper_graph):
        store.save_index(CoreIndex(paper_graph, 2), name="paper")
        manifest = json.loads((store.root / "paper" / MANIFEST_NAME).read_text())
        assert manifest["format_version"] == 1
        assert manifest["graph_file"] == GRAPH_FILE
        assert set(manifest["fingerprint"]) == {
            "num_vertices", "num_edges", "tmax", "raw_span",
            "edge_crc32", "label_crc32", "raw_time_crc32",
        }
        assert set(manifest["indexes"]) == {"2"}
        assert manifest["indexes"]["2"]["file"] == "k2.idx"
        assert manifest["indexes"]["2"]["ecs_size"] > 0


class TestLoading:
    def test_load_index_by_fingerprint(self, store, paper_graph):
        index = CoreIndex(paper_graph, 2)
        store.save_index(index, name="paper")
        loaded = store.load_index(paper_graph, 2)
        assert loaded is not None
        assert loaded.query(1, 7).edge_sets() == index.query(1, 7).edge_sets()

    def test_load_index_unknown_graph(self, store, paper_graph, triangle_graph):
        store.save_index(CoreIndex(paper_graph, 2), name="paper")
        assert store.load_index(triangle_graph, 2) is None

    def test_load_index_unknown_k(self, store, paper_graph):
        store.save_index(CoreIndex(paper_graph, 2), name="paper")
        assert store.load_index(paper_graph, 3) is None

    def test_load_graph_missing_key(self, store):
        with pytest.raises(StoreError):
            store.load_graph("nope")

    def test_stored_ks_open_per_key(self, store, paper_graph, triangle_graph):
        """Every key lists its stored ``k`` values, and each one opens."""
        store.save_index(CoreIndex(paper_graph, 2), name="paper")
        store.save_index(CoreIndex(paper_graph, 3), name="paper")
        store.save_index(CoreIndex(triangle_graph, 2), name="tri")
        seen = [(key, store.stored_ks(key)) for key in store.keys()]
        assert seen == [("paper", [2, 3]), ("tri", [2])]
        for key, ks in seen:
            graph = store.load_graph(key)
            for k in ks:
                assert store.load_index(graph, k, key=key).k == k


class TestCorruption:
    def test_truncated_index_reads_as_absent(self, store, paper_graph):
        store.save_index(CoreIndex(paper_graph, 2), name="paper")
        path = store.root / "paper" / "k2.idx"
        path.write_bytes(path.read_bytes()[:-32])
        assert store.load_index(paper_graph, 2) is None

    def test_bit_flipped_index_reads_as_absent(self, store, paper_graph):
        store.save_index(CoreIndex(paper_graph, 2), name="paper")
        path = store.root / "paper" / "k2.idx"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert store.load_index(paper_graph, 2) is None

    def test_corrupt_index_is_rebuilt_not_served(self, store, paper_graph):
        """Acceptance: a truncated file is detected and rebuilt via the registry."""
        from repro.core.index import CoreIndexRegistry

        store.save_index(CoreIndex(paper_graph, 2), name="paper")
        path = store.root / "paper" / "k2.idx"
        path.write_bytes(path.read_bytes()[:-32])

        registry = CoreIndexRegistry(capacity=2, store=store)
        index = registry.get(paper_graph, 2)  # falls back to a fresh build
        assert registry.stats()["store_hits"] == 0
        expected = enumerate_temporal_kcores(paper_graph, 2, 1, 4).edge_sets()
        assert index.query(1, 4).edge_sets() == expected
        # Re-saving overwrites the corrupt file; the next open is warm again.
        store.save_index(index, name="paper")
        assert store.load_index(paper_graph, 2) is not None

    def test_garbage_manifest_hides_directory(self, store, paper_graph):
        store.save_index(CoreIndex(paper_graph, 2), name="paper")
        (store.root / "paper" / MANIFEST_NAME).write_text("{not json")
        assert store.keys() == []
        assert store.load_index(paper_graph, 2) is None

    def test_stale_index_after_graph_swap(self, store, paper_graph, triangle_graph):
        """An index file left over for a different graph is never served."""
        store.save_index(CoreIndex(paper_graph, 2), name="g")
        manifest_path = store.root / "g" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        # Simulate a manifest whose fingerprint was tampered to match a
        # different graph: the blob-level fingerprint still protects us.
        from repro.store.codec import graph_fingerprint

        manifest["fingerprint"] = graph_fingerprint(triangle_graph)
        manifest_path.write_text(json.dumps(manifest))
        assert store.load_index(triangle_graph, 2) is None
