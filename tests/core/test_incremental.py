"""Incremental delta-folds (:mod:`repro.core.incremental`).

The contract under test is *entry identity*: folding a frontier batch
into existing indexes must produce, for every level, VCT/ECS flat
arrays **exactly equal** to a full ``build_core_indexes`` over the
concatenated edge list — and the extended compiled graph must be
section-for-section equal to a fresh compile.  Randomized streams,
chained folds, and every fallback reason are covered.
"""

from __future__ import annotations

import random

import pytest

import repro.core.incremental as incremental
from repro.core.coretime import compute_core_times
from repro.core.coretime_ref import compute_core_times_reference
from repro.core.incremental import (
    FoldFallback,
    delta_fold,
    extend_graph,
)
from repro.core.multik import build_core_indexes
from repro.errors import GraphFormatError
from repro.graph.csr import CompiledGraph
from repro.graph.temporal_graph import TemporalGraph

_SCALARS = ("num_vertices", "num_edges", "tmax", "num_slots", "num_pairs")
#: Every compiled column that must match a fresh compile exactly (the
#: private slots are caches derived from the columns).
_SECTIONS = [
    slot
    for slot in CompiledGraph.__slots__
    if slot not in _SCALARS and not slot.startswith("_")
]


def stream(seed: int, count: int, *, nodes: int = 14, advance: float = 0.6):
    """Nondecreasing-time random labelled edges, small enough to core."""
    rng = random.Random(seed)
    out, t = [], 1
    while len(out) < count:
        if rng.random() < advance:
            t += rng.randint(0, 2)
        u = rng.randrange(nodes)
        v = rng.randrange(nodes)
        if u == v:
            v = (v + 1) % nodes
        out.append((f"n{u}", f"n{v}", t))
    return out


def frontier_batch(base_edges, seed: int, count: int, *, nodes: int = 14):
    """A strictly-newer batch continuing a stream."""
    rng = random.Random(seed)
    t = max(e[2] for e in base_edges) + 1
    out = []
    while len(out) < count:
        if rng.random() < 0.6:
            t += rng.randint(0, 2)
        u = rng.randrange(nodes)
        v = rng.randrange(nodes)
        if u == v:
            v = (v + 1) % nodes
        out.append((f"n{u}", f"n{v}", t))
    return out


def assert_compiled_equal(got: CompiledGraph, want: CompiledGraph):
    for slot in _SCALARS:
        assert getattr(got, slot) == getattr(want, slot), slot
    for slot in _SECTIONS:
        left = list(getattr(got, slot))
        right = list(getattr(want, slot))
        assert left == right, f"compiled section {slot} diverged"


def assert_indexes_equal(got, want, ks):
    for k in ks:
        for name in ("vct", "ecs"):
            left = getattr(got[k], name).flat_parts()
            right = getattr(want[k], name).flat_parts()
            for x, y in zip(left, right):
                same = x == y
                assert (
                    same.all() if hasattr(same, "all") else same
                ), f"{name} flat arrays diverged at k={k}"


class TestExtendGraph:
    def test_sections_match_fresh_compile(self):
        for seed in range(8):
            base_edges = stream(seed, 120)
            batch = frontier_batch(base_edges, seed + 100, 25)
            base = TemporalGraph(base_edges)
            base.compiled()
            extended = extend_graph(base, batch)
            assert extended.num_edges - base.num_edges == len(batch)
            fresh = TemporalGraph(base_edges + batch)
            assert extended.num_edges == fresh.num_edges
            assert extended.tmax == fresh.tmax
            assert_compiled_equal(extended.compiled(), fresh.compiled())

    def test_raw_times_round_trip(self):
        base_edges = stream(3, 80)
        batch = frontier_batch(base_edges, 4, 20)
        extended = extend_graph(TemporalGraph(base_edges), batch)
        fresh = TemporalGraph(base_edges + batch)
        for t in range(1, extended.tmax + 1):
            assert extended.raw_time_of(t) == fresh.raw_time_of(t)

    def test_new_vertices_get_fresh_ids(self):
        base_edges = stream(5, 60)
        t = max(e[2] for e in base_edges)
        batch = [("zz1", "zz2", t + 1), ("zz1", "n0", t + 2)]
        extended = extend_graph(TemporalGraph(base_edges), batch)
        fresh = TemporalGraph(base_edges + batch)
        assert extended.num_vertices == fresh.num_vertices
        assert_compiled_equal(extended.compiled(), fresh.compiled())

    def test_self_loops_dropped(self):
        base_edges = stream(6, 60)
        t = max(e[2] for e in base_edges)
        extended = extend_graph(
            TemporalGraph(base_edges),
            [("n0", "n0", t + 1), ("n0", "n1", t + 2)],
        )
        assert extended.num_edges == len(base_edges) + 1
        assert extended.num_dropped_self_loops == 1

    def test_boundary_tie_falls_back(self):
        base_edges = stream(7, 60)
        t = max(e[2] for e in base_edges)
        with pytest.raises(FoldFallback) as err:
            extend_graph(TemporalGraph(base_edges), [("n0", "n1", t)])
        assert err.value.reason == "boundary-tie"

    def test_timestamp_outside_int64_raises(self):
        base = TemporalGraph(stream(8, 60))
        with pytest.raises(GraphFormatError, match=str(2**70)):
            extend_graph(base, [("n0", "n1", 2**70)])

    def test_empty_base_falls_back(self):
        with pytest.raises(FoldFallback) as err:
            extend_graph(TemporalGraph([]), [("a", "b", 1)])
        assert err.value.reason == "empty-base"


class TestDeltaFoldIdentity:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("ks", [(2,), (2, 3), (2, 3, 4)])
    def test_single_fold_matches_full_build(self, seed, ks):
        base_edges = stream(seed, 150)
        batch = frontier_batch(base_edges, seed + 50, 30)
        base = TemporalGraph(base_edges)
        indexes = build_core_indexes(base, ks)
        result = delta_fold(base, indexes, batch)
        oracle = build_core_indexes(TemporalGraph(base_edges + batch), ks)
        assert_indexes_equal(result.indexes, oracle, ks)
        assert_compiled_equal(
            result.graph.compiled(),
            TemporalGraph(base_edges + batch).compiled(),
        )
        assert result.report.delta_edges == len(batch)
        assert result.report.span_end == result.graph.tmax

    @pytest.mark.parametrize("seed", range(5))
    def test_chained_folds_match_full_build(self, seed):
        ks = (2, 3)
        edges = stream(seed, 120)
        graph = TemporalGraph(edges)
        indexes = build_core_indexes(graph, ks)
        for round_no in range(4):
            batch = frontier_batch(edges, seed * 31 + round_no, 20)
            # Each fold extends the graph the previous one returned.
            result = delta_fold(graph, indexes, batch)
            graph, indexes = result.graph, result.indexes
            edges = edges + batch
            fresh = TemporalGraph(edges)
            assert_indexes_equal(indexes, build_core_indexes(fresh, ks), ks)
            assert_compiled_equal(graph.compiled(), fresh.compiled())

    def test_matches_seed_oracle(self):
        ks = (2, 3)
        base_edges = stream(2, 100)
        batch = frontier_batch(base_edges, 9, 25)
        base = TemporalGraph(base_edges)
        result = delta_fold(base, build_core_indexes(base, ks), batch)
        graph = TemporalGraph(base_edges + batch)
        for k in ks:
            oracle = compute_core_times(graph, k)
            for u in range(graph.num_vertices):
                assert (
                    result.indexes[k].vct.entries_of(u)
                    == oracle.vct.entries_of(u)
                )
            for e in range(graph.num_edges):
                assert (
                    result.indexes[k].ecs.windows_of(e)
                    == oracle.ecs.windows_of(e)
                )

    def test_new_vertices_fold_correctly(self):
        ks = (2,)
        base_edges = stream(4, 120)
        t = max(e[2] for e in base_edges)
        batch = [
            ("x1", "x2", t + 1),
            ("x2", "x3", t + 1),
            ("x1", "x3", t + 2),
            ("x1", "n0", t + 2),
            ("x2", "n0", t + 3),
        ]
        base = TemporalGraph(base_edges)
        result = delta_fold(base, build_core_indexes(base, ks), batch)
        oracle = build_core_indexes(TemporalGraph(base_edges + batch), ks)
        assert_indexes_equal(result.indexes, oracle, ks)
        assert result.report.new_vertices == 3

    @pytest.mark.parametrize("seed", [3, 16, 22, 31])
    def test_new_vertices_hit_every_merge_branch(self, seed, monkeypatch):
        """A small batch with two fresh degree-1 vertices: the VCT merge
        inserts (fold_start, INF) and drops unchanged first entries, and
        the ECS merge synthesises pre-window rows."""
        seen = {"insert": False, "drop": False, "pre": False}
        real = incremental._splice

        def recording(old, keep, ins_a, ins_b, sub, skip):
            if skip is not None:  # the VCT merge
                seen["insert"] |= bool((ins_a >= 0).any())
                seen["drop"] |= bool(skip.any())
            else:
                seen["pre"] |= bool((ins_a >= 0).any())
            return real(old, keep, ins_a, ins_b, sub, skip)

        monkeypatch.setattr(incremental, "_splice", recording)
        ks = (2, 3)
        base_edges = stream(seed, 150)
        batch = frontier_batch(base_edges, seed + 50, 3)
        t = batch[-1][2]
        batch += [("x1", "n3", t + 1), ("x2", "n5", t + 1)]
        base = TemporalGraph(base_edges)
        result = delta_fold(base, build_core_indexes(base, ks), batch)
        assert seen == {"insert": True, "drop": True, "pre": True}
        assert result.report.new_vertices == 2
        assert result.report.fold_start > 1
        graph = TemporalGraph(base_edges + batch)
        assert_indexes_equal(result.indexes, build_core_indexes(graph, ks), ks)
        for k in ks:
            oracle = compute_core_times_reference(graph, k)
            for u in range(graph.num_vertices):
                assert result.indexes[k].vct.entries_of(u) == oracle.vct.entries_of(u)
            for e in range(graph.num_edges):
                assert result.indexes[k].ecs.windows_of(e) == oracle.ecs.windows_of(e)

    def test_empty_batch_is_a_no_op(self):
        base_edges = stream(1, 80)
        base = TemporalGraph(base_edges)
        indexes = build_core_indexes(base, (2,))
        result = delta_fold(base, indexes, [])
        assert result.graph is base
        assert result.report.delta_edges == 0
        assert result.report.window_edges == 0

    def test_self_loop_batch_only_moves_the_dropped_count(self):
        base_edges = stream(1, 80)
        batch = [("n0", "n0", max(e[2] for e in base_edges) + 1)]
        base = TemporalGraph(base_edges)
        indexes = build_core_indexes(base, (2,))
        result = delta_fold(base, indexes, batch)
        fresh = TemporalGraph(base_edges + batch)
        assert result.graph.num_dropped_self_loops == fresh.num_dropped_self_loops == 1
        assert result.report.delta_edges == 0
        assert_compiled_equal(result.graph.compiled(), fresh.compiled())
        assert_indexes_equal(result.indexes, indexes, (2,))
        assert result.indexes[2].graph is result.graph

    def test_inputs_not_mutated(self):
        ks = (2,)
        base_edges = stream(8, 100)
        batch = frontier_batch(base_edges, 13, 20)
        base = TemporalGraph(base_edges)
        indexes = build_core_indexes(base, ks)
        before = [
            [list(part) for part in indexes[2].vct.flat_parts()],
            [list(part) for part in indexes[2].ecs.flat_parts()],
        ]
        delta_fold(base, indexes, batch)
        after = [
            [list(part) for part in indexes[2].vct.flat_parts()],
            [list(part) for part in indexes[2].ecs.flat_parts()],
        ]
        assert before == after
        assert base.num_edges == len(base_edges)


@pytest.mark.failed_compile
class TestDeltaFoldIdentityNumpy(TestDeltaFoldIdentity):
    """Every fold identity case on a host whose compile failed: it raises, it never computes."""


class TestFallbacks:
    def test_no_indexes(self):
        base = TemporalGraph(stream(0, 50))
        with pytest.raises(FoldFallback) as err:
            delta_fold(base, {}, [("n0", "n1", 10**6)])
        assert err.value.reason == "no-indexes"

    def test_window_fraction_refuses_hostile_batches(self):
        base_edges = stream(0, 100)
        t = max(e[2] for e in base_edges)
        base = TemporalGraph(base_edges)
        indexes = build_core_indexes(base, (2,))
        # Wire brand-new vertices to >= 2 partners each: their entries
        # change at every start, so the window is the whole span.
        batch = [
            ("y1", "y2", t + 1),
            ("y1", "y3", t + 1),
            ("y2", "y3", t + 2),
        ]
        with pytest.raises(FoldFallback) as err:
            delta_fold(base, indexes, batch, max_window_fraction=0.01)
        assert err.value.reason == "window-fraction"
        # Without the bound the same batch folds, correctly.
        result = delta_fold(base, indexes, batch)
        oracle = build_core_indexes(TemporalGraph(base_edges + batch), (2,))
        assert_indexes_equal(result.indexes, oracle, (2,))

    def test_cascade_limit(self):
        base_edges = stream(0, 150)
        base = TemporalGraph(base_edges)
        indexes = build_core_indexes(base, (2,))
        batch = frontier_batch(base_edges, 77, 30)
        with pytest.raises(FoldFallback) as err:
            delta_fold(base, indexes, batch, max_cascade=1)
        assert err.value.reason == "cascade-limit"
