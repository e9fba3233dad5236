"""CompiledGraph: flat-array invariants against the naive structures.

``reference_compile`` is the per-edge construction the vectorised
``CompiledGraph`` replaced, kept as its oracle: every section must equal
it on generated multigraphs.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import TABLES, CompiledGraph, compile_graph
from repro.graph.generators import uniform_random_temporal
from repro.graph.temporal_graph import TemporalEdge, TemporalGraph
from repro.store import codec


def reference_graph(triples, *, normalize_time=True, deduplicate=False):
    """``(edges, raw_times, time_offset)`` by the per-edge construction."""
    label_ids: dict = {}
    raw = []
    for raw_u, raw_v, raw_t in triples:
        if raw_u == raw_v:
            continue
        u = label_ids.setdefault(raw_u, len(label_ids))
        v = label_ids.setdefault(raw_v, len(label_ids))
        raw.append((raw_t, min(u, v), max(u, v)))
    raw.sort()
    raw_times: list[int] = []
    edges: list[TemporalEdge] = []
    for raw_t, u, v in raw:
        if normalize_time:
            if not raw_times or raw_t != raw_times[-1]:
                raw_times.append(raw_t)
            edges.append(TemporalEdge(u, v, len(raw_times)))
        else:
            edges.append(TemporalEdge(u, v, raw_t))
    if deduplicate:
        edges = list(dict.fromkeys(edges))
    tmax = edges[-1].t if edges else 0
    time_offset = [sum(1 for e in edges if e.t < t) for t in range(tmax + 2)]
    return edges, raw_times, time_offset


def reference_compile(graph: TemporalGraph) -> dict[str, list[int]]:
    """Every compiled section, built edge by edge from ``graph.edges``."""
    edges = graph.edges
    n = graph.num_vertices
    pair_ids: dict[tuple[int, int], int] = {}
    pair_times: list[list[int]] = []
    for u, v, t in edges:
        pid = pair_ids.setdefault((u, v), len(pair_times))
        if pid == len(pair_times):
            pair_times.append([])
        pair_times[pid].append(t)
    neighbours: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), pid in pair_ids.items():
        neighbours[u].append((v, pid))
        neighbours[v].append((u, pid))
    adj_offsets, adj_neighbour, slot_pid, slot_of = [0], [], [], {}
    for u in range(n):
        for v, pid in sorted(neighbours[u]):
            slot_of[(u, v)] = len(adj_neighbour)
            adj_neighbour.append(v)
            slot_pid.append(pid)
        adj_offsets.append(len(adj_neighbour))
    pair_offset = [0]
    for times in pair_times:
        pair_offset.append(pair_offset[-1] + len(times))
    incident: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for eid, (u, v, t) in enumerate(edges):
        incident[u].append((t, v, eid))
        incident[v].append((t, u, eid))
    inc_offsets = [0]
    for entries in incident:
        inc_offsets.append(inc_offsets[-1] + len(entries))
    flat_incident = [entry for entries in incident for entry in entries]
    return {
        "edge_u": [e.u for e in edges],
        "edge_v": [e.v for e in edges],
        "edge_t": [e.t for e in edges],
        "adj_offsets": adj_offsets,
        "adj_neighbour": adj_neighbour,
        "slot_pid": slot_pid,
        "slot_times_start": [pair_offset[p] for p in slot_pid],
        "slot_times_end": [pair_offset[p + 1] for p in slot_pid],
        "slot_count": [pair_offset[p + 1] - pair_offset[p] for p in slot_pid],
        "pair_offset": pair_offset,
        "pair_times": [t for times in pair_times for t in times],
        "full_degree": [adj_offsets[u + 1] - adj_offsets[u] for u in range(n)],
        "edge_slot_u": [slot_of[(u, v)] for u, v, _ in edges],
        "edge_slot_v": [slot_of[(v, u)] for u, v, _ in edges],
        "inc_offsets": inc_offsets,
        "inc_time": [t for t, _, _ in flat_incident],
        "inc_other": [w for _, w, _ in flat_incident],
        "inc_eid": [eid for _, _, eid in flat_incident],
    }


def assert_matches_reference(cg: CompiledGraph, graph: TemporalGraph) -> None:
    want = reference_compile(graph)
    assert (cg.num_vertices, cg.num_edges, cg.tmax) == (
        graph.num_vertices, graph.num_edges, graph.tmax
    )
    assert cg.num_pairs == len(want["pair_offset"]) - 1
    assert cg.num_slots == 2 * cg.num_pairs
    assert cg.time_offset.tolist() == graph.time_offsets().tolist()
    for name in TABLES:
        table = getattr(cg, name)
        assert table.dtype == np.int64 and not table.flags.writeable, name
        assert table.tolist() == want[name], name


#: Multigraph edge lists over few labels and timestamps: repeated pairs,
#: equal timestamps and self-loops are all common.
edge_lists = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 9)), max_size=60
)


class TestAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(edge_lists, st.booleans(), st.booleans())
    def test_sections_equal_reference(self, triples, normalize_time, deduplicate):
        graph = TemporalGraph(triples, normalize_time=normalize_time, deduplicate=deduplicate)
        edges, raw_times, time_offset = reference_graph(
            triples, normalize_time=normalize_time, deduplicate=deduplicate
        )
        assert list(graph.edges) == edges
        assert [graph.raw_time_of(t) for t in range(1, graph.tmax + 1)] == (
            raw_times if normalize_time else list(range(1, graph.tmax + 1))
        )
        assert graph.time_offsets().tolist() == time_offset
        assert graph.num_dropped_self_loops == sum(u == v for u, v, _ in triples)
        assert_matches_reference(graph.compiled(), graph)

    @settings(max_examples=25, deadline=None)
    @given(edge_lists)
    def test_store_round_trip(self, tmp_path_factory, triples):
        graph = TemporalGraph(triples)
        path = tmp_path_factory.mktemp("graph") / "graph.bin"
        codec.dump_graph(path, graph)
        loaded = codec.load_graph(path)
        assert_matches_reference(loaded.compiled(), graph)
        assert loaded.edges == graph.edges

    def test_empty_graph(self):
        for triples in ([], [("a", "a", 3)]):
            graph = TemporalGraph(triples)
            assert graph.num_edges == graph.tmax == 0
            assert_matches_reference(graph.compiled(), graph)

    def test_generated_graph(self):
        graph = uniform_random_temporal(40, 600, tmax=30, seed=7)
        assert_matches_reference(graph.compiled(), graph)


@st.composite
def grown_edge_lists(draw):
    """A base edge list and a batch placed against its last raw time.

    The batch interleaves with the base in time, ties its last raw time,
    or starts strictly past it; its labels reach past the base's (new
    vertices) and self-loops are common.
    """
    base = draw(edge_lists)
    last = max((t for _, _, t in base), default=1)
    times = draw(
        st.sampled_from(
            [st.integers(1, last + 3), st.just(last), st.integers(last + 1, last + 5)]
        )
    )
    batch = draw(
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11), times), max_size=20)
    )
    return base, batch


class TestWithEdges:
    @settings(max_examples=80, deadline=None)
    @given(grown_edge_lists(), st.booleans())
    def test_equals_graph_of_every_edge(self, drawn, normalize_time):
        base_triples, batch = drawn
        base = TemporalGraph(base_triples, normalize_time=normalize_time)
        grown = base.with_edges(batch)
        # A graph without edges does not record how it was built: it grows normalised.
        fresh = TemporalGraph(
            base_triples + batch, normalize_time=normalize_time or not base.num_edges
        )
        assert list(grown.edges) == list(fresh.edges)
        assert grown.num_vertices == fresh.num_vertices
        for u in range(fresh.num_vertices):
            label = fresh.label_of(u)
            assert grown.label_of(u) == label and grown.id_of(label) == u
        assert [grown.raw_time_of(t) for t in range(1, grown.tmax + 1)] == [
            fresh.raw_time_of(t) for t in range(1, fresh.tmax + 1)
        ]
        assert grown.time_offsets().tolist() == fresh.time_offsets().tolist()
        assert grown.num_dropped_self_loops == fresh.num_dropped_self_loops
        assert_matches_reference(grown.compiled(), grown)

    def test_unnormalised_graph_keeps_its_times(self):
        base = TemporalGraph([("a", "b", 5), ("b", "c", 7)], normalize_time=False)
        grown = base.with_edges([("a", "c", 9)])
        assert grown.tmax == 9
        assert [edge.t for edge in grown.edges] == [5, 7, 9]


@pytest.fixture(params=range(3))
def compiled_pair(request):
    graph = uniform_random_temporal(10, 60, tmax=12, seed=100 + request.param)
    return graph, graph.compiled()


class TestCaching:
    def test_compiled_is_cached(self, paper_graph):
        assert paper_graph.compiled() is paper_graph.compiled()

    def test_compile_graph_builds_fresh(self, paper_graph):
        assert compile_graph(paper_graph) is not paper_graph.compiled()

    def test_repr_mentions_sizes(self, paper_graph):
        cg = paper_graph.compiled()
        assert f"m={paper_graph.num_edges}" in repr(cg)
        assert cg.nbytes() > 0


class TestTimeOffsets:
    def test_window_ranges_match_edge_times(self, compiled_pair):
        graph, cg = compiled_pair
        for ts in range(1, graph.tmax + 1):
            for te in range(ts, graph.tmax + 1):
                ids = list(cg.window_edge_range(ts, te))
                expected = [
                    eid for eid, e in enumerate(graph.edges) if ts <= e.t <= te
                ]
                assert ids == expected, (ts, te)

    def test_window_range_clamps(self, compiled_pair):
        graph, cg = compiled_pair
        assert list(cg.window_edge_range(-5, graph.tmax + 5)) == list(
            range(graph.num_edges)
        )
        assert list(cg.window_edge_range(graph.tmax + 1, graph.tmax + 9)) == []
        assert list(cg.window_edge_range(3, 2)) == []


class TestAdjacency:
    def test_neighbours_sorted_and_complete(self, compiled_pair):
        graph, cg = compiled_pair
        expected: list[set[int]] = [set() for _ in range(graph.num_vertices)]
        for u, v, _ in graph.edges:
            expected[u].add(v)
            expected[v].add(u)
        for u in range(graph.num_vertices):
            neighbours = cg.neighbours_of(u)
            assert neighbours == sorted(expected[u])
            assert cg.full_degree[u] == len(expected[u])

    def test_pair_times_match_multigraph(self, compiled_pair):
        graph, cg = compiled_pair
        expected: dict[tuple[int, int], list[int]] = defaultdict(list)
        for u, v, t in graph.edges:
            expected[(u, v)].append(t)
        for (u, v), times in expected.items():
            assert cg.pair_times_of(u, v) == sorted(times)
            assert cg.pair_times_of(v, u) == sorted(times)
        assert cg.pair_times_of(0, 0) == []

    def test_slot_slices_shared_between_directions(self, compiled_pair):
        _, cg = compiled_pair
        for s in range(cg.num_slots):
            assert cg.slot_count[s] == cg.slot_times_end[s] - cg.slot_times_start[s]
            assert cg.slot_count[s] >= 1
        # Total flat timestamp storage is one entry per temporal edge.
        assert len(cg.pair_times) == cg.num_edges
        assert cg.num_slots == 2 * cg.num_pairs

    def test_edge_slot_round_trip(self, compiled_pair):
        graph, cg = compiled_pair
        for eid, (u, v, t) in enumerate(graph.edges):
            su = cg.edge_slot_u[eid]
            sv = cg.edge_slot_v[eid]
            assert cg.adj_offsets[u] <= su < cg.adj_offsets[u + 1]
            assert cg.adj_offsets[v] <= sv < cg.adj_offsets[v + 1]
            assert cg.adj_neighbour[su] == v
            assert cg.adj_neighbour[sv] == u
            times = cg.pair_times[cg.slot_times_start[su] : cg.slot_times_end[su]]
            assert t in times


class TestIncidentCsr:
    def test_ascending_times_and_degrees(self, compiled_pair):
        graph, cg = compiled_pair
        inc_degree = [0] * graph.num_vertices
        for u, v, _ in graph.edges:
            inc_degree[u] += 1
            inc_degree[v] += 1
        for u in range(graph.num_vertices):
            lo, hi = cg.inc_offsets[u], cg.inc_offsets[u + 1]
            assert hi - lo == inc_degree[u]
            times = cg.inc_time[lo:hi].tolist()
            assert times == sorted(times)
            for i in range(lo, hi):
                eid = int(cg.inc_eid[i])
                edge = graph.edges[eid]
                assert edge.t == int(cg.inc_time[i])
                assert {edge.u, edge.v} == {u, int(cg.inc_other[i])}

    def test_first_times_per_slot(self, compiled_pair):
        _, cg = compiled_pair
        owners = np.repeat(np.arange(cg.num_vertices), cg.full_degree)
        for s in range(cg.num_slots):
            times = cg.pair_times_of(int(owners[s]), int(cg.adj_neighbour[s]))
            assert cg.pair_times[cg.slot_times_start[s]] == times[0]


class TestDegenerate:
    def test_single_edge(self):
        graph = TemporalGraph([("a", "b", 7)])
        cg = graph.compiled()
        assert cg.num_pairs == 1
        assert cg.pair_times_of(0, 1) == [1]  # normalised timestamp
        assert list(cg.window_edge_range(1, 1)) == [0]

    def test_multi_edges_one_pair(self):
        graph = TemporalGraph([("a", "b", 1), ("a", "b", 3), ("a", "b", 2)])
        cg = graph.compiled()
        assert cg.num_pairs == 1
        assert cg.num_edges == 3
        assert cg.pair_times_of(0, 1) == [1, 2, 3]
