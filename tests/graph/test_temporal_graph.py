"""Unit tests for the temporal graph store."""

from __future__ import annotations

import pytest

from repro.errors import EmptyGraphError, GraphFormatError, InvalidParameterError
from repro.graph.temporal_graph import TemporalEdge, TemporalGraph
from repro.graph.validation import check_graph_invariants


class TestConstruction:
    def test_basic_counts(self):
        g = TemporalGraph([("a", "b", 5), ("b", "c", 9), ("a", "c", 5)])
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert len(g) == 3

    def test_timestamps_normalised_dense(self):
        g = TemporalGraph([("a", "b", 100), ("b", "c", 5000), ("a", "c", 100)])
        assert g.tmax == 2
        assert {e.t for e in g.edges} == {1, 2}

    def test_normalisation_preserves_order(self):
        g = TemporalGraph([("a", "b", 30), ("b", "c", 10), ("c", "d", 20)])
        by_label = {(g.label_of(e.u), g.label_of(e.v)): e.t for e in g.edges}
        assert by_label[("b", "c")] < by_label[("c", "d")] < by_label[("a", "b")]

    def test_raw_time_round_trip(self):
        raw = [("a", "b", 7), ("b", "c", 42), ("a", "c", 1000)]
        g = TemporalGraph(raw)
        for t in range(1, g.tmax + 1):
            assert g.normalized_time_of(g.raw_time_of(t)) == t

    def test_unknown_raw_time_raises(self):
        g = TemporalGraph([("a", "b", 7)])
        with pytest.raises(KeyError):
            g.normalized_time_of(8)

    def test_edges_sorted_by_time(self):
        g = TemporalGraph([("a", "b", 9), ("c", "d", 1), ("e", "f", 5)])
        times = [e.t for e in g.edges]
        assert times == sorted(times)

    def test_canonical_endpoint_order(self):
        g = TemporalGraph([("x", "a", 1)])
        edge = g.edges[0]
        assert edge.u < edge.v

    def test_self_loops_dropped_and_counted(self):
        g = TemporalGraph([("a", "a", 1), ("a", "b", 2), ("b", "b", 3)])
        assert g.num_edges == 1
        assert g.num_dropped_self_loops == 2

    def test_deduplicate_collapses_exact_duplicates(self):
        edges = [("a", "b", 1), ("b", "a", 1), ("a", "b", 2)]
        assert TemporalGraph(edges).num_edges == 3
        assert TemporalGraph(edges, deduplicate=True).num_edges == 2

    def test_multi_edges_kept_by_default(self):
        g = TemporalGraph([("a", "b", 1), ("a", "b", 2), ("a", "b", 3)])
        assert g.num_edges == 3
        assert g.degree_statistics()["num_pairs"] == 1

    def test_no_normalisation_mode(self):
        g = TemporalGraph([("a", "b", 3), ("b", "c", 7)], normalize_time=False)
        assert g.tmax == 7
        assert g.raw_time_of(3) == 3

    def test_no_normalisation_rejects_nonpositive(self):
        with pytest.raises(GraphFormatError):
            TemporalGraph([("a", "b", 0)], normalize_time=False)

    def test_bad_triple_shape_raises(self):
        with pytest.raises(GraphFormatError):
            TemporalGraph([("a", "b")])

    def test_non_integer_timestamp_raises(self):
        with pytest.raises(GraphFormatError):
            TemporalGraph([("a", "b", "noon")])

    @pytest.mark.parametrize("raw_t", [2**70, 2**63, -(2**63) - 1])
    def test_timestamp_outside_int64_raises(self, raw_t):
        with pytest.raises(GraphFormatError, match=str(raw_t)):
            TemporalGraph([("a", "b", 5), ("b", "c", raw_t)])

    def test_int64_extreme_timestamps_accepted(self):
        g = TemporalGraph([("a", "b", 2**63 - 1), ("b", "c", -(2**63))])
        assert [g.raw_time_of(t) for t in (1, 2)] == [-(2**63), 2**63 - 1]

    def test_empty_graph(self):
        g = TemporalGraph([])
        assert g.num_edges == 0
        assert g.tmax == 0

    def test_integer_labels_supported(self):
        g = TemporalGraph([(10, 20, 1), (20, 30, 2)])
        assert g.num_vertices == 3
        assert g.label_of(g.id_of(10)) == 10

    def test_invariants_hold(self, paper_graph):
        check_graph_invariants(paper_graph)


class TestAccessors:
    def test_label_id_round_trip(self, paper_graph):
        for name in [f"v{i}" for i in range(1, 10)]:
            assert paper_graph.label_of(paper_graph.id_of(name)) == name

    def test_unknown_label_raises(self, paper_graph):
        with pytest.raises(KeyError):
            paper_graph.id_of("nope")

    def test_edge_ids_at(self, paper_graph):
        at5 = paper_graph.edge_ids_at(5)
        assert len(at5) == 4
        assert all(paper_graph.edges[eid].t == 5 for eid in at5)

    def test_edge_ids_at_out_of_range_is_empty(self, paper_graph):
        assert paper_graph.edge_ids_at(0) == ()
        assert paper_graph.edge_ids_at(99) == ()

    def test_window_edges(self, paper_graph):
        window = list(paper_graph.window_edges(2, 4))
        assert len(window) == 6
        assert all(2 <= e.t <= 4 for e in window)

    def test_window_edge_ids_ordered_by_time(self, paper_graph):
        ids = list(paper_graph.window_edge_ids(1, 7))
        times = [paper_graph.edges[eid].t for eid in ids]
        assert times == sorted(times)

    def test_check_window_rejects_inverted(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            paper_graph.check_window(4, 2)

    def test_check_window_rejects_outside_span(self, paper_graph):
        with pytest.raises(InvalidParameterError):
            paper_graph.check_window(0, 3)
        with pytest.raises(InvalidParameterError):
            paper_graph.check_window(1, 8)

    def test_check_window_on_empty_graph(self):
        with pytest.raises(EmptyGraphError):
            TemporalGraph([]).check_window(1, 1)

    def test_adjacency_symmetric(self, paper_graph):
        adjacency = paper_graph.adjacency()
        for u, entries in enumerate(adjacency):
            for v, t, eid in entries:
                assert any(
                    x == u and t2 == t and eid2 == eid
                    for x, t2, eid2 in adjacency[v]
                )

    def test_adjacency_cached(self, paper_graph):
        assert paper_graph.adjacency() is paper_graph.adjacency()

    def test_degree_statistics(self, paper_graph):
        stats = paper_graph.degree_statistics()
        assert stats["max"] == 6  # v1 touches v2..v7 minus none: check below
        assert stats["num_pairs"] == 14  # the example has no repeated pairs
        assert stats["avg"] == pytest.approx(2 * 14 / 9)

    def test_subgraph_in_window_renormalises(self, paper_graph):
        sub = paper_graph.subgraph_in_window(2, 4)
        assert sub.num_edges == 6
        assert sub.tmax == 3  # timestamps 2,3,4 -> 1,2,3

    def test_repr(self, paper_graph):
        assert "n=9" in repr(paper_graph)
        assert "m=14" in repr(paper_graph)

    def test_named_tuple_edge_fields(self):
        edge = TemporalEdge(1, 2, 3)
        assert (edge.u, edge.v, edge.t) == (1, 2, 3)
