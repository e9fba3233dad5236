"""Columnar enumeration core vs the seed linked-list oracle.

The property contract: over randomised graphs, ``k`` values and query
windows, the columnar walk must report exactly the oracle's cores —
same count, same TTI set, same edge *set* per TTI, same ``|R|``.
(Intra-core edge order may differ inside equal-end-time groups; the
identity of a core is its edge set.)

The compiled walks are also held to the seed walk over skyline cuts
(run over the window slice each cut materialises): the emitting walk's
cores (TTI and edge set) at every step, and the counting walk's
counters, slice-router targets included, after completion and after
an abort.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import native
from repro.core.enumerate import enumerate_temporal_kcores
from repro.core.enumerate_ref import (
    enumerate_active_window_arrays_ref,
    enumerate_temporal_kcores_ref,
)
from repro.core.index import CoreIndex
from repro.core.windows import EdgeCoreSkyline, SkylineCut
from repro.graph.generators import uniform_random_temporal
from repro.obs.metrics import get_registry
from repro.obs.timing import Deadline
from repro.serve import columnar
from repro.serve.columnar import run_columnar_walk
from repro.serve.executor import _SliceRouter
from repro.serve.sinks import CountSink, ResultSink


class ExpiresAfter:
    """A fake deadline that trips after ``n`` polls — deterministic aborts."""

    def __init__(self, n: int):
        self.remaining_polls = n

    def expired(self) -> bool:
        self.remaining_polls -= 1
        return self.remaining_polls < 0


def assert_result_identical(new, ref):
    assert new.num_results == ref.num_results
    assert new.total_edges == ref.total_edges
    assert new.completed == ref.completed
    new_by_tti = new.by_tti()
    ref_by_tti = ref.by_tti()
    assert new_by_tti.keys() == ref_by_tti.keys()
    for tti, core in new_by_tti.items():
        assert core.edge_set() == ref_by_tti[tti].edge_set(), tti


def random_windows(rng, tmax, count):
    windows = []
    for _ in range(count):
        a, b = rng.randint(1, tmax), rng.randint(1, tmax)
        windows.append((min(a, b), max(a, b)))
    return windows


class TestOracleIdentity:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_full_span_identical(self, seed, k):
        graph = uniform_random_temporal(14, 110, tmax=18, seed=seed)
        assert_result_identical(
            enumerate_temporal_kcores(graph, k),
            enumerate_temporal_kcores_ref(graph, k),
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_random_windows_identical(self, seed):
        graph = uniform_random_temporal(13, 140, tmax=24, seed=seed)
        rng = random.Random(1000 + seed)
        for ts, te in random_windows(rng, graph.tmax, 8):
            for k in (2, 3):
                assert_result_identical(
                    enumerate_temporal_kcores(graph, k, ts, te),
                    enumerate_temporal_kcores_ref(graph, k, ts, te),
                )

    @pytest.mark.parametrize("seed", range(3))
    def test_index_cut_windows_identical(self, seed):
        """The serving shape: one full-span skyline, many sub-ranges."""
        graph = uniform_random_temporal(12, 120, tmax=20, seed=seed)
        index = CoreIndex(graph, 2)
        rng = random.Random(2000 + seed)
        for ts, te in random_windows(rng, graph.tmax, 10):
            assert_result_identical(
                index.query(ts, te),
                enumerate_temporal_kcores_ref(
                    graph, 2, ts, te, skyline=index.ecs
                ),
            )

    def test_empty_ranges(self):
        graph = uniform_random_temporal(10, 60, tmax=30, seed=7)
        # k too large for any core, and a window too narrow for one.
        for k, ts, te in [(9, 1, graph.tmax), (2, 1, 1), (3, 5, 6)]:
            new = enumerate_temporal_kcores(graph, k, ts, te)
            ref = enumerate_temporal_kcores_ref(graph, k, ts, te)
            assert_result_identical(new, ref)

    def test_parallel_and_duplicate_edges(self):
        from repro.graph.temporal_graph import TemporalGraph

        graph = TemporalGraph(
            [("a", "b", 1), ("a", "b", 1), ("a", "b", 2), ("b", "c", 2),
             ("a", "c", 2), ("b", "c", 3), ("a", "c", 1)]
        )
        assert_result_identical(
            enumerate_temporal_kcores(graph, 2),
            enumerate_temporal_kcores_ref(graph, 2),
        )

    def test_streaming_counters_identical(self):
        graph = uniform_random_temporal(14, 150, tmax=16, seed=3)
        new = enumerate_temporal_kcores(graph, 2, collect=False)
        ref = enumerate_temporal_kcores_ref(graph, 2, collect=False)
        assert new.cores is None and ref.cores is None
        assert (new.num_results, new.total_edges) == (
            ref.num_results, ref.total_edges
        )

    def test_callback_protocol_identical(self):
        """The emitted batches replay the oracle's callbacks, in order."""
        graph = uniform_random_temporal(12, 100, tmax=14, seed=5)
        sink, ref_seen = RecordingSink(), []
        enumerate_temporal_kcores(graph, 2, sink=sink)
        enumerate_temporal_kcores_ref(
            graph, 2, collect=False,
            on_result=lambda ts, te, edges: ref_seen.append(
                (ts, te, frozenset(edges))),
        )
        assert emitted(sink) == ref_seen  # same cores, same emission order


class TestDeadline:
    def test_immediate_deadline_aborts_cleanly(self):
        graph = uniform_random_temporal(12, 100, tmax=14, seed=0)
        result = enumerate_temporal_kcores(graph, 2, deadline=Deadline(0.0))
        assert not result.completed
        assert result.num_results == 0

    @pytest.mark.parametrize("polls", [1, 2, 5])
    def test_mid_walk_abort_is_a_prefix_of_the_full_answer(self, polls):
        """Cancellation mid-walk keeps whatever start times finished."""
        graph = uniform_random_temporal(13, 150, tmax=18, seed=11)
        full = enumerate_temporal_kcores(graph, 2)
        partial = enumerate_temporal_kcores(
            graph, 2, deadline=ExpiresAfter(polls)
        )
        assert not partial.completed
        assert partial.num_results < full.num_results
        # Every partial core is a genuine core of the full answer, and
        # the abort respects start-time boundaries: the partial TTIs are
        # exactly the full answer's TTIs up to the last finished start.
        full_by_tti = full.by_tti()
        for tti, core in partial.by_tti().items():
            assert core.edge_set() == full_by_tti[tti].edge_set()
        if partial.num_results:
            last_started = max(ts for ts, _te in partial.by_tti())
            expected = {
                tti for tti in full_by_tti if tti[0] <= last_started
            }
            assert set(partial.by_tti()) == expected

    def test_deadline_mid_walk_with_sink_marks_incomplete(self):
        from repro.serve.sinks import CountSink

        graph = uniform_random_temporal(13, 150, tmax=18, seed=11)
        sink = CountSink()
        result = enumerate_temporal_kcores(
            graph, 2, sink=sink, deadline=ExpiresAfter(1)
        )
        assert not result.completed
        assert not sink.completed


@pytest.mark.failed_compile
class TestOracleIdentityNumpy(TestOracleIdentity):
    """Every oracle case on a host whose compile failed: it raises, it never computes."""


@pytest.mark.failed_compile
class TestDeadlineNumpy(TestDeadline):
    """Every deadline case on a host whose compile failed: it raises, it never computes."""


class RecordingSink(ResultSink):
    """Keeps every emission as delivered (the producer never mutates it)."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def consume(self, ts, ends, prefix_lens, eids):
        self.batches.append((ts, ends, prefix_lens, eids))


def router_counters(targets):
    """A counting router over ``targets``: ``(router, its CountSinks)``."""
    sinks = [CountSink() for _ in targets]
    return _SliceRouter([(ts, te, s) for (ts, te), s in zip(targets, sinks)]), sinks


def counters(sinks):
    return [(s.num_results, s.total_edges, s.completed) for s in sinks]


def emitted(sink):
    """A recording sink's batches as cores: ``[(ts, te, edge set)]`` in emission order."""
    return [
        (t, end, frozenset(eids[:length].tolist()))
        for t, ends, lengths, eids in sink.batches
        for end, length in zip(ends.tolist(), lengths.tolist())
    ]


def oracle_cores(arrays):
    """The seed linked-list walk's cores of a window slice, as :func:`emitted` lists them.

    The seed walk steps through every time unit of its span, so it runs
    over the ranks of the slice's times (it only compares them) and the
    cores' TTIs are mapped back.
    """
    eids, *times = arrays
    distinct = np.unique(np.concatenate(times))
    ranked = [np.searchsorted(distinct, part) for part in times]
    cores = []
    enumerate_active_window_arrays_ref(
        1, 0, len(distinct) - 1, (eids, *ranked), collect=False,
        on_result=lambda ts, te, edges: cores.append(
            (int(distinct[ts]), int(distinct[te]), frozenset(edges))),
    )
    return cores


def oracle_counters(cores, targets, completed=True):
    """What each target ``(ts, te)`` counts of ``cores``: those whose TTI fits inside."""
    out = []
    for lo, hi in targets:
        inside = [edges for ts, te, edges in cores if lo <= ts and te <= hi]
        out.append((len(inside), sum(map(len, inside)), completed))
    return out


def visits(cores):
    return len({ts for ts, _te, _edges in cores})


class TestCompiledWalk:
    """The compiled walks, emitting and counting, against the seed linked-list walk."""

    @staticmethod
    def walk(cut, sink, deadline=None):
        """One walk, finished like the executor does."""
        done = run_columnar_walk(cut, sink, deadline=deadline)
        sink.finish(done)
        return done

    @staticmethod
    def cuts(seed, count=8):
        """Skyline cuts of random graphs and ranges, full span first."""
        graph = uniform_random_temporal(13, 150, tmax=22, seed=seed)
        index = CoreIndex(graph, 2)
        rng = random.Random(7000 + seed)
        ranges = [(1, graph.tmax)] + random_windows(rng, graph.tmax, count)
        return [index.ecs.cut(ts, te) for ts, te in ranges]

    @staticmethod
    def raw_index(seed):
        """An index over raw timestamps 997 apart: cuts far wider than they are long."""
        from repro.graph.temporal_graph import TemporalGraph

        dense = uniform_random_temporal(13, 150, tmax=22, seed=seed)
        u, v, t = dense.edge_columns()
        graph = TemporalGraph(
            zip(u.tolist(), v.tolist(), (t * 997).tolist()), normalize_time=False
        )
        return graph, CoreIndex(graph, 2)

    @staticmethod
    def raw_cuts(seed):
        """The raw graph's full-span cut and random sub-range cuts.

        Each spans at least ``2 * (hi - lo) + 64`` time units, so the
        counting walk runs over the ranks of the windows' times.
        """
        graph, index = TestCompiledWalk.raw_index(seed)
        rng = random.Random(7500 + seed)
        ranges = [(1, graph.tmax)] + random_windows(rng, graph.tmax, 4)
        cuts = [index.ecs.cut(ts, te) for ts, te in ranges]
        cuts = [cut for cut in cuts if len(cut.arrays()[0])]
        for cut in cuts:
            assert cut.te - cut.ts + 1 >= 2 * (cut.hi - cut.lo) + 64
        return cuts

    def test_oracle_cores_match_the_enum_engine(self):
        """The ranked seed walk reports what the seed engine reports over the range."""
        graph = uniform_random_temporal(13, 150, tmax=22, seed=0)
        index = CoreIndex(graph, 2)
        for ts, te in [(1, graph.tmax)] + random_windows(random.Random(3), graph.tmax, 4):
            reference = enumerate_temporal_kcores_ref(graph, 2, ts, te, skyline=index.ecs)
            cores = oracle_cores(index.ecs.active_window_arrays(ts, te))
            assert sorted((ts, te, edges) for ts, te, edges in cores) == sorted(
                (*core.tti, core.edge_set()) for core in reference
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_emissions_entry_identical_at_every_step(self, seed):
        """Compared after the walk: no emitted array was mutated later."""
        for cut in self.cuts(seed):
            got = RecordingSink()
            assert self.walk(cut, got)
            for _t, *parts in got.batches:
                assert all(part.dtype == np.int64 for part in parts)
            assert emitted(got) == oracle_cores(cut.arrays())

    @pytest.mark.parametrize("seed", range(4))
    def test_start_order_gather_emits_the_flat_order_batches(self, seed):
        """A cut's windows gathered in start order, flat indices as the
        splice ties, emit exactly the batches (edge order included) of
        the same windows sorted into flat order."""
        cuts = self.cuts(seed) + self.raw_cuts(seed)
        for cut in cuts:
            got = RecordingSink()
            assert self.walk(cut, got)
            flat = np.sort(cut.selection())
            arrays = cut.skyline.active_arrays_from_selection(flat, cut.ts)
            assert [np.array_equal(a, b) for a, b in zip(cut.arrays(flat), arrays)] == [True] * 4
            want = RecordingSink()
            if len(flat):
                columnar._walk_compiled(
                    native.library().walk_step, arrays, np.arange(len(flat)), want, None
                )
            assert len(got.batches) == len(want.batches)
            for (t, *parts), (want_t, *want_parts) in zip(got.batches, want.batches):
                assert t == want_t
                assert all(np.array_equal(a, b) for a, b in zip(parts, want_parts))

    @pytest.mark.parametrize("seed", range(3))
    def test_count_sink_counters_identical(self, seed):
        for cut in self.cuts(seed):
            got = CountSink()
            self.walk(cut, got)
            assert counters([got]) == oracle_counters(
                oracle_cores(cut.arrays()), [(0, 1 << 62)]
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_counting_router_with_repeated_targets(self, seed):
        """1,200 targets, many repeated, several starting before the cut."""
        graph = uniform_random_temporal(13, 150, tmax=24, seed=seed)
        cut = CoreIndex(graph, 2).ecs.cut(1, graph.tmax)
        rng = random.Random(8100 + seed)
        targets = random_windows(rng, graph.tmax, 400) * 3
        rng.shuffle(targets)
        got, got_sinks = router_counters(targets)
        assert got.counting_targets() is not None
        self.walk(cut, got)
        cores = oracle_cores(cut.arrays())
        assert counters(got_sinks) == oracle_counters(cores, targets)
        assert counters([got]) == oracle_counters(cores, [(1, graph.tmax)])
        assert got._batches == visits(cores) > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_counting_over_raw_times(self, seed):
        """Count sinks and router targets between, before and after raw times count alike."""
        graph, index = self.raw_index(seed)
        for cut in self.raw_cuts(seed):
            arrays = cut.arrays()
            cores = oracle_cores(arrays)
            got = CountSink()
            self.walk(cut, got)
            assert counters([got]) == oracle_counters(cores, [(1, graph.tmax)])
            _eids, starts, ends, actives = arrays
            first_end = int(ends[starts == starts.min()].min())
            last_visit = int(starts.max())
            rng = random.Random(8200 + seed)
            targets = random_windows(rng, graph.tmax, 60) + [
                (int(actives.min()), first_end - 1),  # ends before the first e0
                (1, int(actives.min()) - 1),  # ends before the cut
                (last_visit + 1, graph.tmax),  # starts after the last visit
                (int(starts.min()), int(ends.max())),  # the whole cut
            ]
            got, got_sinks = router_counters(targets)
            self.walk(cut, got)
            assert counters(got_sinks) == oracle_counters(cores, targets)
            assert counters(got_sinks)[-1][:2] == (got.num_results, got.total_edges)
            assert counters(got_sinks)[-3:-1] == [(0, 0, True)] * 2
            assert got._batches == visits(cores)

    @pytest.mark.parametrize("seed", range(3))
    def test_cuts_starting_past_an_edges_first_window(self, seed):
        """Windows whose flat predecessor the cut leaves out activate at ts.

        Every cut starting after an edge's first window, and its
        single-timestamp cuts, count the oracle's cores of the range.
        """
        graph = uniform_random_temporal(13, 150, tmax=22, seed=seed)
        skyline = CoreIndex(graph, 2).ecs
        offsets, t1, _t2 = skyline.flat_parts()
        heads = set(offsets.tolist())
        later = [int(t1[i]) for i in range(len(t1)) if i not in heads]
        assert later
        for ts in sorted(set(later)):
            for te in (ts, graph.tmax):
                cut = skyline.cut(ts, te)
                got = CountSink()
                self.walk(cut, got)
                oracle = enumerate_temporal_kcores_ref(graph, 2, ts, te, collect=False)
                assert (got.num_results, got.total_edges) == (
                    oracle.num_results, oracle.total_edges
                ), (ts, te)

    def test_router_metrics_count_identically(self):
        graph = uniform_random_temporal(13, 150, tmax=24, seed=5)
        cut = CoreIndex(graph, 2).ecs.cut(1, graph.tmax)
        targets = random_windows(random.Random(5), graph.tmax, 30)
        registry = get_registry()
        names = ("repro_router_batches_total", "repro_router_targets_total")
        before = [registry.get(name).value for name in names]
        self.walk(cut, router_counters(targets)[0])
        moved = [registry.get(n).value - b for n, b in zip(names, before)]
        assert moved == [visits(oracle_cores(cut.arrays())), len(targets)]

    def test_empty_slice(self):
        """An empty cut, and a cut whose windows all end after its range."""
        graph = uniform_random_temporal(13, 150, tmax=22, seed=0)
        skyline = CoreIndex(graph, 2).ecs
        uncounted = [
            cut for cut in (skyline.cut(t, t) for t in range(1, graph.tmax + 1))
            if cut.hi > cut.lo and not len(cut.arrays()[0])
        ]
        assert uncounted
        for cut in (EdgeCoreSkyline([], 2, (1, 5)).cut(1, 5), uncounted[0]):
            for sink in (CountSink(), RecordingSink(), router_counters([(1, 5)])[0]):
                assert self.walk(cut, sink)
                assert (sink.num_results, sink.total_edges, sink.completed) == (0, 0, True)

    @pytest.mark.parametrize("seed", range(3))
    def test_width_one_windows(self, seed):
        graph = uniform_random_temporal(12, 160, tmax=10, seed=seed)
        index = CoreIndex(graph, 1)
        for t in range(1, graph.tmax + 1):
            cut = index.ecs.cut(t, t)
            cores = oracle_cores(cut.arrays())
            got = RecordingSink()
            self.walk(cut, got)
            assert emitted(got) == cores
            count = CountSink()
            self.walk(cut, count)
            assert counters([count]) == oracle_counters(cores, [(t, t)])

    @pytest.mark.parametrize("polls", [0, 1, 2, 3, 7, 30])
    def test_abort_leaves_identical_partial_counters(self, polls):
        """An abort keeps the oracle's cores of every visit finished before it."""
        graph = uniform_random_temporal(13, 150, tmax=18, seed=11)
        cut = CoreIndex(graph, 2).ecs.cut(1, graph.tmax)
        cores = oracle_cores(cut.arrays())
        finished = sorted({ts for ts, _te, _edges in cores})[:polls]
        done = polls >= visits(cores)  # 30 polls outlast the walk
        kept = [core for core in cores if core[0] in finished]
        targets = random_windows(random.Random(polls), graph.tmax, 40)
        count, recording = CountSink(), RecordingSink()
        router, router_sinks = router_counters(targets)
        flags = [
            self.walk(cut, sink, ExpiresAfter(polls)) for sink in (count, recording, router)
        ]
        assert flags == [done] * 3
        everything = oracle_counters(kept, [(1, graph.tmax)], done)
        assert counters([count, recording, router]) == everything * 3
        assert counters(router_sinks) == oracle_counters(kept, targets, done)
        assert emitted(recording) == kept
        assert len(recording.batches) == router._batches == len(finished)

    @pytest.mark.parametrize("span", [12, 5_000, 1 << 40])
    @pytest.mark.parametrize("seed", range(3))
    def test_synthetic_slices_of_every_time_span(self, span, seed):
        """Spans sorted by the packed key and spans that overflow it walk like the oracle.

        Hand-built slices are no skyline's cut, so they go to the
        emitting walk itself.
        """
        rng = np.random.default_rng(seed)
        size = 60
        times = np.sort(rng.integers(0, span, size=(size, 3)), axis=1)
        actives, starts, ends = (np.ascontiguousarray(times[:, i]) for i in range(3))
        arrays = (rng.permutation(size).astype(np.int64), starts, ends, actives)
        ties = rng.permutation(3 * size)[:size].astype(np.int64)
        visit_times = np.unique(starts)
        splice = np.lexsort((ties, actives, ends, np.searchsorted(visit_times, actives)))
        got_visits, got_splice = columnar._schedule(starts, ends, actives, ties)
        assert np.array_equal(got_visits, visit_times)
        assert np.array_equal(got_splice, splice)
        recording = RecordingSink()
        recording.finish(
            columnar._walk_compiled(native.library().walk_step, arrays, ties, recording, None)
        )
        assert emitted(recording) == oracle_cores(arrays)

    @pytest.mark.parametrize("span", [12, 5_000])
    @pytest.mark.parametrize("seed", range(3))
    def test_synthetic_skylines_count_like_the_oracle(self, span, seed):
        """Random bi-monotone skylines: every cut's router counters equal the oracle's.

        60 edges of up to four windows each over ``[1, span]``: the
        short span is counted over its own times, the long one over
        ranks.
        """
        rng = random.Random(9000 + seed)
        windows_by_edge = []
        for _ in range(60):
            points = sorted(rng.sample(range(1, span + 1), 8))
            count = rng.randint(0, 4)
            starts, ends = sorted(points[:count]), sorted(points[4:4 + count])
            windows_by_edge.append(list(zip(starts, ends)))
        skyline = EdgeCoreSkyline(windows_by_edge, 2, (1, span))
        skyline.check_skyline_invariant()
        for ts, te in [(1, span)] + random_windows(rng, span, 6):
            cut = skyline.cut(ts, te)
            cores = oracle_cores(cut.arrays()) if len(cut.arrays()[0]) else []
            targets = random_windows(rng, span, 20) + [(ts, te)]
            router, router_sinks = router_counters(targets)
            self.walk(cut, router)
            assert counters([router, *router_sinks]) == oracle_counters(
                cores, [(ts, te)] + targets
            )

    def test_counting_walk_refuses_windows_out_of_order(self):
        """A cut whose windows start before its range, or out of start order, is refused."""
        skyline = self.cuts(0)[0].skyline
        full = skyline.cut(*skyline.span)
        first_start = int(skyline.flat_parts()[1].min())
        early = SkylineCut(skyline, full.lo, full.hi, first_start + 1, full.te)
        with pytest.raises(ValueError):
            run_columnar_walk(early, CountSink())
        shuffled = EdgeCoreSkyline.from_flat(*skyline.flat_parts(), 2, skyline.span)
        order = shuffled.counting_columns()[2]
        shuffled._start_order = np.ascontiguousarray(order[::-1])
        with pytest.raises(ValueError):
            run_columnar_walk(shuffled.cut(*skyline.span), CountSink())

    @pytest.mark.parametrize("lo, hi", [(5, 4), (-1, 3), (0, "size + 1")])
    def test_cut_bounds_refused_before_the_kernel(self, monkeypatch, lo, hi):
        """``lo > hi`` or a cut past the start order raises before anything is read."""
        skyline = self.cuts(0)[0].skyline
        if hi == "size + 1":
            hi = skyline.size() + 1

        def unreachable():
            raise AssertionError("the kernels were asked for")

        monkeypatch.setattr(columnar.native, "library", unreachable)
        for sink in (CountSink(), RecordingSink()):
            with pytest.raises(ValueError):
                run_columnar_walk(SkylineCut(skyline, lo, hi, *skyline.span), sink)
