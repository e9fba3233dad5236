"""Property-based tests (hypothesis) over random temporal multigraphs.

These are the strongest correctness guarantees in the suite: for *any*
generated graph and k, the whole pipeline must agree with the brute-force
oracle and respect the paper's structural lemmas.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.bruteforce import enumerate_bruteforce
from repro.baselines.otcd import enumerate_otcd
from repro.core.coretime import compute_core_times
from repro.core.enumbase import enumerate_temporal_kcores_base
from repro.core.enumerate import enumerate_temporal_kcores
from repro.core.enumerate_ref import enumerate_temporal_kcores_ref
from repro.core.index import CoreIndex
from repro.graph.snapshot import Snapshot
from repro.graph.static_core import snapshot_k_core
from repro.graph.temporal_graph import TemporalGraph
from repro.graph.validation import exact_core_edge_ids

from tests.conftest import ON_BOTH_PATHS


@st.composite
def temporal_graphs(draw, max_vertices=9, max_edges=36, max_time=9):
    """Small random temporal multigraphs (non-empty)."""
    n = draw(st.integers(min_value=3, max_value=max_vertices))
    m = draw(st.integers(min_value=3, max_value=max_edges))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=1, max_value=max_time),
            ),
            min_size=m,
            max_size=m,
        )
    )
    filtered = [(u, v, t) for u, v, t in edges if u != v]
    if not filtered:
        filtered = [(0, 1, 1), (1, 2, 1), (0, 2, 1)]
    return TemporalGraph(filtered)


@st.composite
def graph_and_k(draw):
    graph = draw(temporal_graphs())
    k = draw(st.integers(min_value=2, max_value=4))
    return graph, k


@st.composite
def graph_k_and_ranges(draw):
    """A graph, ``k`` and a batch of ranges with exact repeats and overlaps."""
    graph, k = draw(graph_and_k())
    bounds = st.integers(min_value=1, max_value=graph.tmax)
    ranges = [
        tuple(sorted(draw(st.tuples(bounds, bounds))))
        for _ in range(draw(st.integers(min_value=1, max_value=6)))
    ]
    repeats = draw(st.lists(st.sampled_from(ranges), min_size=1, max_size=4))
    return graph, k, draw(st.permutations(ranges + repeats))


@settings(max_examples=60, deadline=None)
@given(case=graph_and_k())
def test_enum_equals_oracle(case):
    graph, k = case
    ours = enumerate_temporal_kcores(graph, k)
    oracle = enumerate_bruteforce(graph, k)
    assert ours.edge_sets() == oracle.edge_sets()
    assert set(ours.by_tti()) == set(oracle.by_tti())


@settings(max_examples=40, deadline=None)
@given(case=graph_and_k())
def test_all_engines_agree(case):
    graph, k = case
    reference = enumerate_temporal_kcores(graph, k).edge_sets()
    assert enumerate_temporal_kcores_base(graph, k).edge_sets() == reference
    assert enumerate_otcd(graph, k).edge_sets() == reference
    assert enumerate_otcd(graph, k, use_pruning=False).edge_sets() == reference


@settings(max_examples=40, deadline=None)
@given(case=graph_and_k())
def test_skyline_windows_minimal(case):
    """Definition 5 holds for every reported minimal core window."""
    graph, k = case
    skyline = compute_core_times(graph, k).ecs
    for eid, (t1, t2) in skyline:
        assert eid in exact_core_edge_ids(graph, k, t1, t2)
        if t1 < t2:
            assert eid not in exact_core_edge_ids(graph, k, t1 + 1, t2)
            assert eid not in exact_core_edge_ids(graph, k, t1, t2 - 1)


@settings(max_examples=40, deadline=None)
@given(case=graph_and_k())
def test_core_times_define_membership(case):
    """Definition 4: {u : CT_ts(u) <= te} is exactly the window's core."""
    graph, k = case
    vct = compute_core_times(graph, k, with_skyline=False).vct
    for ts in range(1, graph.tmax + 1):
        for te in (ts, graph.tmax):
            expected = snapshot_k_core(Snapshot.from_graph(graph, ts, te), k)
            via_index = {
                u for u in range(graph.num_vertices) if vct.in_core(u, ts, te)
            }
            assert via_index == expected


@settings(max_examples=40, deadline=None)
@given(case=graph_and_k())
def test_skyline_strictly_monotone(case):
    graph, k = case
    compute_core_times(graph, k).ecs.check_skyline_invariant()


@settings(max_examples=40, deadline=None)
@given(case=graph_and_k())
def test_result_edges_form_k_cohesive_subgraphs(case):
    """Every reported core satisfies the degree constraint."""
    graph, k = case
    result = enumerate_temporal_kcores(graph, k)
    for core in result:
        neighbours: dict[int, set[int]] = {}
        for eid in core.edge_ids:
            u, v, _ = graph.edges[eid]
            neighbours.setdefault(u, set()).add(v)
            neighbours.setdefault(v, set()).add(u)
        assert all(len(s) >= k for s in neighbours.values())


@settings(max_examples=30, deadline=None)
@given(case=graph_and_k(), data=st.data())
def test_subrange_query_consistent_with_full(case, data):
    """Cores of a sub-range are exactly the full-range cores whose TTI
    fits inside it."""
    graph, k = case
    ts = data.draw(st.integers(min_value=1, max_value=graph.tmax))
    te = data.draw(st.integers(min_value=ts, max_value=graph.tmax))
    full = enumerate_temporal_kcores(graph, k)
    sub = enumerate_temporal_kcores(graph, k, ts, te)
    expected = {
        core.edge_set()
        for core in full
        if ts <= core.tti[0] and core.tti[1] <= te
    }
    assert sub.edge_sets() == expected


@pytest.mark.parametrize("path", ON_BOTH_PATHS)
@settings(max_examples=40, deadline=None)
@given(case=graph_k_and_ranges())
def test_query_batch_counters_equal_oracle(path, case):
    """Deduped, merged and routed batch answers count what the oracle counts."""
    graph, k, ranges = case
    results = CoreIndex(graph, k).query_batch(ranges)
    for (ts, te), result in zip(ranges, results):
        oracle = enumerate_temporal_kcores_ref(graph, k, ts, te, collect=False)
        assert (result.num_results, result.total_edges, result.completed) == (
            oracle.num_results, oracle.total_edges, True
        )


@st.composite
def cut_batches(draw):
    """A graph, ``k``, a time scale and a batch of its ranges.

    The batch mixes the full span, single timestamps and random ranges
    (cuts that begin past an edge's first window among them; empty cuts
    wherever ``k`` or the range leaves no window).  At scale 997 the
    graph is queried through a raw-timestamp twin, whose cuts are
    counted over the ranks of their times.
    """
    graph, k = draw(graph_and_k())
    bounds = st.integers(min_value=1, max_value=graph.tmax)
    ranges = [(1, graph.tmax)]
    ranges += [(t, t) for t in draw(st.lists(bounds, min_size=1, max_size=3))]
    ranges += [
        tuple(sorted(draw(st.tuples(bounds, bounds))))
        for _ in range(draw(st.integers(min_value=0, max_value=4)))
    ]
    return graph, k, draw(st.sampled_from([1, 997])), draw(st.permutations(ranges))


@settings(max_examples=60, deadline=None)
@given(case=cut_batches())
def test_fused_count_equals_oracle(case):
    """Counting batches read skyline cuts; every request counts what the oracle counts."""
    graph, k, scale, ranges = case
    queried, asked = graph, ranges
    if scale > 1:
        u, v, t = graph.edge_columns()
        queried = TemporalGraph(
            zip(u.tolist(), v.tolist(), (t * scale).tolist()), normalize_time=False
        )
        # [ts * scale - 500, te * scale] holds exactly the raw times of [ts, te].
        asked = [(ts * scale - 500, te * scale) for ts, te in ranges]
    results = CoreIndex(queried, k).query_batch(asked)
    for (ts, te), result in zip(ranges, results):
        oracle = enumerate_temporal_kcores_ref(graph, k, ts, te, collect=False)
        assert (result.num_results, result.total_edges, result.completed) == (
            oracle.num_results, oracle.total_edges, True
        ), (ts, te)


@settings(max_examples=30, deadline=None)
@given(graph=temporal_graphs())
def test_core_times_monotone_everywhere(graph):
    vct = compute_core_times(graph, 2, with_skyline=False).vct
    for u in range(graph.num_vertices):
        series = [vct.core_time(u, ts) for ts in range(1, graph.tmax + 1)]
        for earlier, later in zip(series, series[1:]):
            if earlier is None:
                assert later is None
            elif later is not None:
                assert later >= earlier


@settings(max_examples=25, deadline=None)
@given(case=graph_and_k(), data=st.data())
def test_prebuilt_index_matches_fresh_runs(case, data):
    """CoreIndex.restricted_to answers == per-range recomputation."""
    from repro.core.index import CoreIndex

    graph, k = case
    ts = data.draw(st.integers(min_value=1, max_value=graph.tmax))
    te = data.draw(st.integers(min_value=ts, max_value=graph.tmax))
    index = CoreIndex(graph, k)
    via_index = index.query(ts, te)
    fresh = enumerate_temporal_kcores(graph, k, ts, te)
    assert via_index.edge_sets() == fresh.edge_sets()


@settings(max_examples=25, deadline=None)
@given(case=graph_and_k())
def test_vertex_sets_partition_results(case):
    """The vertex-set view groups every core exactly once."""
    from repro.core.vertex_sets import distinct_vertex_sets

    graph, k = case
    result = enumerate_temporal_kcores(graph, k)
    grouped = distinct_vertex_sets(graph, result)
    assert sum(len(ttis) for ttis in grouped.values()) == result.num_results
    for vertices, ttis in grouped.items():
        assert vertices  # no empty vertex sets
        assert ttis == sorted(ttis)


@settings(max_examples=25, deadline=None)
@given(case=graph_and_k())
def test_otcd_pruning_equivalence(case):
    """PoR/PoU/PoL never change the output, only the work."""
    graph, k = case
    pruned = enumerate_otcd(graph, k)
    unpruned = enumerate_otcd(graph, k, use_pruning=False)
    assert pruned.edge_sets() == unpruned.edge_sets()
    assert set(pruned.by_tti()) == set(unpruned.by_tti())


@settings(max_examples=25, deadline=None)
@given(case=graph_and_k())
def test_result_counters_consistent(case):
    """Streaming counters equal collected totals for every engine."""
    graph, k = case
    for runner in (
        enumerate_temporal_kcores,
        enumerate_temporal_kcores_base,
        enumerate_otcd,
    ):
        collected = runner(graph, k, collect=True)
        streamed = runner(graph, k, collect=False)
        assert streamed.num_results == collected.num_results
        assert streamed.total_edges == collected.total_edges
        assert streamed.total_edges == sum(
            core.num_edges for core in collected
        )


@settings(max_examples=20, deadline=None)
@given(case=graph_and_k())
def test_active_times_partition_start_times(case):
    """Per edge, the [active, start] intervals of its windows tile a
    prefix of the start-time axis without gaps or overlaps."""
    from repro.core.windows import build_active_windows

    graph, k = case
    skyline = compute_core_times(graph, k).ecs
    windows = build_active_windows(skyline, 1)
    by_edge: dict[int, list] = {}
    for w in windows:
        by_edge.setdefault(w.edge_id, []).append(w)
    for edge_windows in by_edge.values():
        expected_active = 1
        for w in edge_windows:
            assert w.active == expected_active
            assert w.active <= w.start
            expected_active = w.start + 1
