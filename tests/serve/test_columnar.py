"""Columnar enumeration core vs the seed linked-list oracle.

The property contract: over randomised graphs, ``k`` values and query
windows, the columnar walk must report exactly the oracle's cores —
same count, same TTI set, same edge *set* per TTI, same ``|R|``.
(Intra-core edge order may differ inside equal-end-time groups; the
identity of a core is its edge set.)

The compiled walks are also held to the seed walk over raw window
slices: the emitting walk's cores (TTI and edge set) at every step,
and the counting walk's counters, slice-router targets included, after
completion and after an abort.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.enumerate import enumerate_temporal_kcores
from repro.core.enumerate_ref import (
    enumerate_active_window_arrays_ref,
    enumerate_temporal_kcores_ref,
)
from repro.core.index import CoreIndex
from repro.graph.generators import uniform_random_temporal
from repro.obs.metrics import get_registry
from repro.obs.timing import Deadline
from repro.serve import columnar
from repro.serve.columnar import run_columnar_walk
from repro.serve.executor import _SliceRouter
from repro.serve.sinks import CountSink, FlatArraySink, ResultSink


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
        graph = uniform_random_temporal(12, 100, tmax=14, seed=5)
        new_seen, ref_seen = [], []
        enumerate_temporal_kcores(
            graph, 2, collect=False,
            on_result=lambda ts, te, edges: new_seen.append(
                (ts, te, frozenset(edges))),
        )
        enumerate_temporal_kcores_ref(
            graph, 2, collect=False,
            on_result=lambda ts, te, edges: ref_seen.append(
                (ts, te, frozenset(edges))),
        )
        assert new_seen == ref_seen  # same cores, same emission order


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
    def walk(arrays, sink, deadline=None):
        """One walk, finished like the executor does."""
        done = run_columnar_walk(arrays, sink, deadline=deadline)
        sink.finish(done)
        return done

    @staticmethod
    def slices(seed, count=8):
        """Window slices of random graphs and ranges, full span first."""
        graph = uniform_random_temporal(13, 150, tmax=22, seed=seed)
        index = CoreIndex(graph, 2)
        rng = random.Random(7000 + seed)
        ranges = [(1, graph.tmax)] + random_windows(rng, graph.tmax, count)
        return [index.ecs.active_window_arrays(ts, te) for ts, te in ranges]

    @staticmethod
    def raw_index(seed):
        """An index over raw timestamps 997 apart: slices far wider than they are long."""
        from repro.graph.temporal_graph import TemporalGraph

        dense = uniform_random_temporal(13, 150, tmax=22, seed=seed)
        u, v, t = dense.edge_columns()
        graph = TemporalGraph(
            zip(u.tolist(), v.tolist(), (t * 997).tolist()), normalize_time=False
        )
        return graph, CoreIndex(graph, 2)

    @staticmethod
    def raw_slices(seed):
        """The raw graph's full-span slice and random sub-range slices.

        Each spans more than ``2 * size + 64`` time units, so the
        counting walk runs over the ranks of the slice's times.
        """
        graph, index = TestCompiledWalk.raw_index(seed)
        rng = random.Random(7500 + seed)
        ranges = [(1, graph.tmax)] + random_windows(rng, graph.tmax, 4)
        slices = [index.ecs.active_window_arrays(ts, te) for ts, te in ranges]
        slices = [arrays for arrays in slices if len(arrays[0])]
        for _eids, _starts, ends, actives in slices:
            assert ends.max() - actives.min() >= 2 * len(ends) + 64
        return slices

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
        for arrays in self.slices(seed):
            got = RecordingSink()
            assert self.walk(arrays, got)
            for _t, *parts in got.batches:
                assert all(part.dtype == np.int64 for part in parts)
            assert emitted(got) == oracle_cores(arrays)

    @pytest.mark.parametrize("seed", range(3))
    def test_count_sink_counters_identical(self, seed):
        for arrays in self.slices(seed):
            got = CountSink()
            self.walk(arrays, got)
            assert counters([got]) == oracle_counters(oracle_cores(arrays), [(0, 1 << 62)])

    @pytest.mark.parametrize("seed", range(3))
    def test_counting_router_with_repeated_targets(self, seed):
        """1,200 targets, many repeated, several starting before the slice."""
        graph = uniform_random_temporal(13, 150, tmax=24, seed=seed)
        arrays = CoreIndex(graph, 2).ecs.active_window_arrays(1, graph.tmax)
        rng = random.Random(8100 + seed)
        targets = random_windows(rng, graph.tmax, 400) * 3
        rng.shuffle(targets)
        got, got_sinks = router_counters(targets)
        assert got.counting_targets() is not None
        self.walk(arrays, got)
        cores = oracle_cores(arrays)
        assert counters(got_sinks) == oracle_counters(cores, targets)
        assert counters([got]) == oracle_counters(cores, [(1, graph.tmax)])
        assert got._batches == visits(cores) > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_counting_over_raw_times(self, seed):
        """Count sinks and router targets between, before and after raw times count alike."""
        graph, index = self.raw_index(seed)
        for arrays in self.raw_slices(seed):
            cores = oracle_cores(arrays)
            got = CountSink()
            self.walk(arrays, got)
            assert counters([got]) == oracle_counters(cores, [(1, graph.tmax)])
            _eids, starts, ends, actives = arrays
            first_end = int(ends[starts == starts.min()].min())
            last_visit = int(starts.max())
            rng = random.Random(8200 + seed)
            targets = random_windows(rng, graph.tmax, 60) + [
                (int(actives.min()), first_end - 1),  # ends before the first e0
                (1, int(actives.min()) - 1),  # ends before the slice
                (last_visit + 1, graph.tmax),  # starts after the last visit
                (int(starts.min()), int(ends.max())),  # the whole slice
            ]
            got, got_sinks = router_counters(targets)
            self.walk(arrays, got)
            assert counters(got_sinks) == oracle_counters(cores, targets)
            assert counters(got_sinks)[-1][:2] == (got.num_results, got.total_edges)
            assert counters(got_sinks)[-3:-1] == [(0, 0, True)] * 2
            assert got._batches == visits(cores)

    def test_router_metrics_count_identically(self):
        graph = uniform_random_temporal(13, 150, tmax=24, seed=5)
        arrays = CoreIndex(graph, 2).ecs.active_window_arrays(1, graph.tmax)
        targets = random_windows(random.Random(5), graph.tmax, 30)
        registry = get_registry()
        names = ("repro_router_batches_total", "repro_router_targets_total")
        before = [registry.get(name).value for name in names]
        self.walk(arrays, router_counters(targets)[0])
        moved = [registry.get(n).value - b for n, b in zip(names, before)]
        assert moved == [visits(oracle_cores(arrays)), len(targets)]

    def test_mixed_count_and_flat_targets(self):
        graph = uniform_random_temporal(13, 150, tmax=24, seed=2)
        arrays = CoreIndex(graph, 2).ecs.active_window_arrays(1, graph.tmax)
        targets = random_windows(random.Random(9), graph.tmax, 12)
        sinks = [FlatArraySink() if i % 3 == 0 else CountSink() for i in range(len(targets))]
        router = _SliceRouter([(ts, te, s) for (ts, te), s in zip(targets, sinks)])
        assert router.counting_targets() is None
        self.walk(arrays, router)
        cores = oracle_cores(arrays)
        assert counters(sinks) == oracle_counters(cores, targets)
        for (lo, hi), sink in zip(targets, sinks):
            if isinstance(sink, FlatArraySink):
                assert [
                    (ts, te, frozenset(run.tolist())) for ts, te, run in sink.iter_cores()
                ] == [(ts, te, edges) for ts, te, edges in cores if lo <= ts and te <= hi]

    def test_empty_slice(self):
        empty = np.empty(0, dtype=np.int64)
        arrays = (empty, empty, empty, empty)
        for sink in (CountSink(), RecordingSink(), router_counters([(1, 5)])[0]):
            assert self.walk(arrays, sink)
            assert (sink.num_results, sink.total_edges, sink.completed) == (0, 0, True)

    @pytest.mark.parametrize("seed", range(3))
    def test_width_one_windows(self, seed):
        graph = uniform_random_temporal(12, 160, tmax=10, seed=seed)
        index = CoreIndex(graph, 1)
        for t in range(1, graph.tmax + 1):
            arrays = index.ecs.active_window_arrays(t, t)
            cores = oracle_cores(arrays)
            got = RecordingSink()
            self.walk(arrays, got)
            assert emitted(got) == cores
            count = CountSink()
            self.walk(arrays, count)
            assert counters([count]) == oracle_counters(cores, [(t, t)])

    @pytest.mark.parametrize("polls", [0, 1, 2, 3, 7, 30])
    def test_abort_leaves_identical_partial_counters(self, polls):
        """An abort keeps the oracle's cores of every visit finished before it."""
        graph = uniform_random_temporal(13, 150, tmax=18, seed=11)
        arrays = CoreIndex(graph, 2).ecs.active_window_arrays(1, graph.tmax)
        cores = oracle_cores(arrays)
        finished = sorted({ts for ts, _te, _edges in cores})[:polls]
        done = polls >= visits(cores)  # 30 polls outlast the walk
        kept = [core for core in cores if core[0] in finished]
        targets = random_windows(random.Random(polls), graph.tmax, 40)
        count, recording = CountSink(), RecordingSink()
        router, router_sinks = router_counters(targets)
        flags = [
            self.walk(arrays, sink, ExpiresAfter(polls)) for sink in (count, recording, router)
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
        """Spans sorted by the packed key and spans that overflow it walk like the oracle."""
        rng = np.random.default_rng(seed)
        size = 60
        times = np.sort(rng.integers(0, span, size=(size, 3)), axis=1)
        actives, starts, ends = (np.ascontiguousarray(times[:, i]) for i in range(3))
        arrays = (rng.permutation(size).astype(np.int64), starts, ends, actives)
        visit_times = np.unique(starts)
        splice = np.lexsort((actives, ends, np.searchsorted(visit_times, actives)))
        got_visits, got_splice = columnar._schedule(starts, ends, actives)
        assert np.array_equal(got_visits, visit_times)
        assert np.array_equal(got_splice, splice)
        targets = [tuple(sorted(pair)) for pair in rng.integers(0, span, (20, 2)).tolist()]
        cores = oracle_cores(arrays)
        recording = RecordingSink()
        router, router_sinks = router_counters(targets)
        for sink in (recording, router):
            self.walk(arrays, sink)
        assert emitted(recording) == cores
        assert counters([router, *router_sinks]) == oracle_counters(
            cores, [(0, span)] + targets
        )

    def test_counting_walk_refuses_windows_out_of_order(self):
        eids, starts, ends, actives = (part.copy() for part in self.slices(0)[0])
        actives[0] = starts[0] + 1
        with pytest.raises(ValueError):
            run_columnar_walk((eids, starts, ends, actives), CountSink())

    def test_non_int64_slice_is_refused(self):
        arrays = self.slices(0)[0]
        narrowed = tuple(part.astype(np.int32) for part in arrays)
        with pytest.raises(TypeError):
            run_columnar_walk(narrowed, CountSink())
