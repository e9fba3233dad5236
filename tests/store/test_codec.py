"""Codec round trips: graphs and indexes are bit-identical after disk.

The property tests run over the shared seeded ``random_graph`` fixture
and compare the loaded structures against the seed reference kernel
(``coretime_ref``) — the same oracle the flat-kernel equivalence suite
uses — so a persistence bug cannot hide behind a kernel bug.
"""

from __future__ import annotations

import pytest

from repro.core.coretime import VertexCoreTimeIndex
from repro.core.coretime_ref import compute_core_times_reference
from repro.core.enumerate import enumerate_temporal_kcores
from repro.core.index import CoreIndex
from repro.core.windows import EdgeCoreSkyline
from repro.errors import StoreError
from repro.graph.temporal_graph import TemporalGraph
from repro.store import codec


class TestGraphRoundTrip:
    def test_exact_ids_labels_and_raw_times(self, tmp_path, paper_graph):
        path = tmp_path / "graph.bin"
        codec.dump_graph(path, paper_graph)
        loaded = codec.load_graph(path)
        assert loaded.edges == paper_graph.edges
        assert loaded.num_vertices == paper_graph.num_vertices
        for u in range(paper_graph.num_vertices):
            assert loaded.label_of(u) == paper_graph.label_of(u)
        for t in range(1, paper_graph.tmax + 1):
            assert loaded.raw_time_of(t) == paper_graph.raw_time_of(t)
            assert loaded.edge_ids_at(t) == paper_graph.edge_ids_at(t)
        assert loaded.time_offsets() == paper_graph.time_offsets()
        assert loaded.id_of("v1") == paper_graph.id_of("v1")

    def test_compiled_view_is_attached_and_equal(self, tmp_path, random_graph):
        path = tmp_path / "graph.bin"
        codec.dump_graph(path, random_graph)
        loaded = codec.load_graph(path)
        original, restored = random_graph.compiled(), loaded.compiled()
        for name in ("adj_offsets", "adj_neighbour", "pair_times", "slot_pid",
                     "edge_slot_u", "edge_slot_v", "inc_offsets", "full_degree"):
            assert list(getattr(restored, name)) == list(getattr(original, name)), name
        assert restored.np_inc_time.tolist() == original.np_inc_time.tolist()
        assert restored.np_slot_first_time.tolist() == original.np_slot_first_time.tolist()

    def test_kernel_runs_on_loaded_graph(self, tmp_path, random_graph):
        """Full Algorithm 2 over the mmap-backed arrays matches the oracle."""
        path = tmp_path / "graph.bin"
        codec.dump_graph(path, random_graph)
        loaded = codec.load_graph(path)
        reference = compute_core_times_reference(random_graph, 2)
        from repro.core.coretime import compute_core_times

        result = compute_core_times(loaded, 2)
        for u in range(random_graph.num_vertices):
            assert result.vct.entries_of(u) == reference.vct.entries_of(u)
        for eid in range(random_graph.num_edges):
            assert result.ecs.windows_of(eid) == reference.ecs.windows_of(eid)

    def test_fingerprint_matches_after_round_trip(self, tmp_path, paper_graph):
        path = tmp_path / "graph.bin"
        codec.dump_graph(path, paper_graph)
        loaded = codec.load_graph(path)
        assert codec.graph_fingerprint(loaded) == codec.graph_fingerprint(paper_graph)

    def test_unpersistable_labels_rejected(self, tmp_path):
        graph = TemporalGraph([(("tuple", 1), "b", 1), ("b", "c", 2), (("tuple", 1), "c", 3)])
        with pytest.raises(StoreError, match="label"):
            codec.dump_graph(tmp_path / "graph.bin", graph)

    def test_int_labels_survive_as_ints(self, tmp_path):
        graph = TemporalGraph([(10, 20, 1), (20, 30, 2), (10, 30, 3)])
        path = tmp_path / "graph.bin"
        codec.dump_graph(path, graph)
        loaded = codec.load_graph(path)
        assert loaded.id_of(10) == graph.id_of(10)
        assert isinstance(loaded.label_of(0), int)


class TestIndexRoundTrip:
    def test_bit_identical_vs_reference_oracle(self, tmp_path, random_graph):
        """dump → load equals the seed reference kernel, entry for entry."""
        index = CoreIndex(random_graph, 2)
        path = tmp_path / "k2.idx"
        codec.dump_index(path, index)
        loaded = codec.load_index(path, random_graph)
        reference = compute_core_times_reference(random_graph, 2)
        for u in range(random_graph.num_vertices):
            assert loaded.vct.entries_of(u) == reference.vct.entries_of(u)
        for eid in range(random_graph.num_edges):
            assert loaded.ecs.windows_of(eid) == reference.ecs.windows_of(eid)
        assert loaded.vct.size() == reference.vct.size()
        assert loaded.ecs.size() == reference.ecs.size()

    def test_loaded_index_answers_queries(self, tmp_path, paper_graph):
        index = CoreIndex(paper_graph, 2)
        path = tmp_path / "k2.idx"
        codec.dump_index(path, index)
        loaded = codec.load_index(path, paper_graph)
        assert isinstance(loaded.vct, VertexCoreTimeIndex)
        assert isinstance(loaded.ecs, EdgeCoreSkyline)
        tmax = paper_graph.tmax
        for ts in range(1, tmax + 1):
            for te in range(ts, tmax + 1):
                assert (
                    loaded.query(ts, te).edge_sets()
                    == enumerate_temporal_kcores(paper_graph, 2, ts, te).edge_sets()
                ), (ts, te)

    def test_flat_vct_lookups(self, tmp_path, random_graph):
        index = CoreIndex(random_graph, 2)
        path = tmp_path / "k2.idx"
        codec.dump_index(path, index)
        loaded = codec.load_index(path, random_graph)
        for ts in range(1, random_graph.tmax + 1):
            for u in range(random_graph.num_vertices):
                assert loaded.vct.core_time(u, ts) == index.vct.core_time(u, ts)

    def test_flat_skyline_restriction(self, tmp_path, random_graph):
        index = CoreIndex(random_graph, 2)
        path = tmp_path / "k2.idx"
        codec.dump_index(path, index)
        loaded = codec.load_index(path, random_graph)
        tmax = random_graph.tmax
        for ts, te in [(1, tmax), (2, tmax - 1), (tmax // 2, tmax)]:
            if ts > te:
                continue
            narrow, expected = loaded.ecs.restricted_to(ts, te), index.ecs.restricted_to(ts, te)
            for eid in range(random_graph.num_edges):
                assert narrow.windows_of(eid) == expected.windows_of(eid)

    def test_flat_skyline_invariant_checkable(self, tmp_path, paper_graph):
        index = CoreIndex(paper_graph, 2)
        path = tmp_path / "k2.idx"
        codec.dump_index(path, index)
        codec.load_index(path, paper_graph).ecs.check_skyline_invariant()

    def test_fingerprint_mismatch_rejected(self, tmp_path, paper_graph, triangle_graph):
        index = CoreIndex(paper_graph, 2)
        path = tmp_path / "k2.idx"
        codec.dump_index(path, index)
        with pytest.raises(StoreError, match="fingerprint"):
            codec.load_index(path, triangle_graph)

    def test_text_dump_works_from_flat_views(self, tmp_path, paper_graph):
        """The debug text format still renders from an mmap-backed index."""
        from repro.core.index import load_skyline, load_vct

        index = CoreIndex(paper_graph, 2)
        path = tmp_path / "k2.idx"
        codec.dump_index(path, index)
        loaded = codec.load_index(path, paper_graph)
        assert loaded.dumps_skyline() == index.dumps_skyline()
        assert loaded.dumps_vct() == index.dumps_vct()
        load_vct(loaded.dumps_vct())
        load_skyline(loaded.dumps_skyline())
