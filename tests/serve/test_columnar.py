"""Columnar enumeration core vs the seed linked-list oracle.

The property contract: over randomised graphs, ``k`` values and query
windows, the columnar walk must report exactly the oracle's cores —
same count, same TTI set, same edge *set* per TTI, same ``|R|``.
(Intra-core edge order may differ inside equal-end-time groups; the
identity of a core is its edge set.)

Every oracle case runs on both walks: the compiled step and the numpy
loop.  The compiled walk is also held to the numpy walk directly —
entry-identical emissions at every step, identical counters (slice
routers included) after completion and after an abort.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import native
from repro.core.enumerate import enumerate_temporal_kcores
from repro.core.enumerate_ref import enumerate_temporal_kcores_ref
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


@pytest.mark.usefixtures("numpy_fixpoint")
class TestOracleIdentityNumpy(TestOracleIdentity):
    """Every oracle case again on the numpy walk."""


@pytest.mark.usefixtures("numpy_fixpoint")
class TestDeadlineNumpy(TestDeadline):
    """Every deadline case again on the numpy walk."""


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
    """A recording sink's batches as plain lists."""
    return [(t, *(part.tolist() for part in parts)) for t, *parts in sink.batches]


@pytest.mark.skipif(native.library() is None, reason="no working C compiler")
class TestCompiledWalk:
    """The compiled walk against the numpy walk it replaces."""

    @staticmethod
    def walk(monkeypatch, compiled, arrays, sink, deadline=None):
        """One walk on the chosen path, finished like the executor does."""
        with monkeypatch.context() as patch:
            if not compiled:
                patch.setattr(native, "library", lambda: None)
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

    @pytest.mark.parametrize("seed", range(4))
    def test_emissions_entry_identical_at_every_step(self, monkeypatch, seed):
        """Compared after the walk: no emitted array was mutated later."""
        for arrays in self.slices(seed):
            got, want = RecordingSink(), RecordingSink()
            assert self.walk(monkeypatch, True, arrays, got)
            assert self.walk(monkeypatch, False, arrays, want)
            assert len(got.batches) == len(want.batches)
            for (t, *parts), (t_ref, *ref_parts) in zip(got.batches, want.batches):
                assert t == t_ref
                for part, ref in zip(parts, ref_parts):
                    assert part.dtype == ref.dtype == np.int64
                    assert np.array_equal(part, ref), t

    @pytest.mark.parametrize("seed", range(3))
    def test_count_sink_counters_identical(self, monkeypatch, seed):
        for arrays in self.slices(seed):
            got, want = CountSink(), CountSink()
            self.walk(monkeypatch, True, arrays, got)
            self.walk(monkeypatch, False, arrays, want)
            assert counters([got]) == counters([want])

    @pytest.mark.parametrize("seed", range(3))
    def test_counting_router_with_repeated_targets(self, monkeypatch, seed):
        """1,200 targets, many repeated, several starting before the slice."""
        graph = uniform_random_temporal(13, 150, tmax=24, seed=seed)
        arrays = CoreIndex(graph, 2).ecs.active_window_arrays(1, graph.tmax)
        rng = random.Random(8100 + seed)
        targets = random_windows(rng, graph.tmax, 400) * 3
        rng.shuffle(targets)
        (got, got_sinks), (want, want_sinks) = (
            router_counters(targets), router_counters(targets))
        assert got.counting_targets() is not None
        self.walk(monkeypatch, True, arrays, got)
        self.walk(monkeypatch, False, arrays, want)
        assert counters(got_sinks) == counters(want_sinks)
        assert (got.num_results, got.total_edges) == (want.num_results, want.total_edges)
        assert got._batches == want._batches > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_counting_over_raw_times(self, monkeypatch, seed):
        """Count sinks and router targets between, before and after raw times count alike."""
        graph, index = self.raw_index(seed)
        for arrays in self.raw_slices(seed):
            got, want = CountSink(), CountSink()
            self.walk(monkeypatch, True, arrays, got)
            self.walk(monkeypatch, False, arrays, want)
            assert counters([got]) == counters([want])
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
            (got, got_sinks), (want, want_sinks) = (
                router_counters(targets), router_counters(targets))
            self.walk(monkeypatch, True, arrays, got)
            self.walk(monkeypatch, False, arrays, want)
            assert counters(got_sinks) == counters(want_sinks)
            assert counters(got_sinks)[-1][:2] == (got.num_results, got.total_edges)
            assert counters(got_sinks)[-3:-1] == [(0, 0, True)] * 2
            assert got._batches == want._batches

    def test_router_metrics_count_identically(self, monkeypatch):
        graph = uniform_random_temporal(13, 150, tmax=24, seed=5)
        arrays = CoreIndex(graph, 2).ecs.active_window_arrays(1, graph.tmax)
        targets = random_windows(random.Random(5), graph.tmax, 30)
        registry = get_registry()
        names = ("repro_router_batches_total", "repro_router_targets_total")
        moved = []
        for compiled in (True, False):
            before = [registry.get(name).value for name in names]
            self.walk(monkeypatch, compiled, arrays, router_counters(targets)[0])
            moved.append([registry.get(n).value - b for n, b in zip(names, before)])
        assert moved[0] == moved[1]
        assert moved[0][1] == len(targets)

    def test_mixed_count_and_flat_targets(self, monkeypatch):
        graph = uniform_random_temporal(13, 150, tmax=24, seed=2)
        arrays = CoreIndex(graph, 2).ecs.active_window_arrays(1, graph.tmax)
        targets = random_windows(random.Random(9), graph.tmax, 12)
        outputs = []
        for compiled in (True, False):
            sinks = [FlatArraySink() if i % 3 == 0 else CountSink()
                     for i in range(len(targets))]
            router = _SliceRouter([(ts, te, s) for (ts, te), s in zip(targets, sinks)])
            assert router.counting_targets() is None
            self.walk(monkeypatch, compiled, arrays, router)
            outputs.append((
                counters(sinks),
                [[(ts, te, run.tolist()) for ts, te, run in s.iter_cores()]
                 for s in sinks if isinstance(s, FlatArraySink)],
            ))
        assert outputs[0] == outputs[1]

    def test_empty_slice(self, monkeypatch):
        empty = np.empty(0, dtype=np.int64)
        arrays = (empty, empty, empty, empty)
        for sink in (CountSink(), RecordingSink(), router_counters([(1, 5)])[0]):
            assert self.walk(monkeypatch, True, arrays, sink)
            assert (sink.num_results, sink.total_edges, sink.completed) == (0, 0, True)

    @pytest.mark.parametrize("seed", range(3))
    def test_width_one_windows(self, monkeypatch, seed):
        graph = uniform_random_temporal(12, 160, tmax=10, seed=seed)
        index = CoreIndex(graph, 1)
        for t in range(1, graph.tmax + 1):
            arrays = index.ecs.active_window_arrays(t, t)
            got, want = RecordingSink(), RecordingSink()
            self.walk(monkeypatch, True, arrays, got)
            self.walk(monkeypatch, False, arrays, want)
            assert emitted(got) == emitted(want)
            count = CountSink()
            self.walk(monkeypatch, True, arrays, count)
            assert (count.num_results, count.total_edges) == (
                want.num_results, want.total_edges)

    @pytest.mark.parametrize("polls", [0, 1, 2, 3, 7, 30])
    def test_abort_leaves_identical_partial_counters(self, monkeypatch, polls):
        graph = uniform_random_temporal(13, 150, tmax=18, seed=11)
        arrays = CoreIndex(graph, 2).ecs.active_window_arrays(1, graph.tmax)
        visits = len(np.unique(arrays[1]))
        targets = random_windows(random.Random(polls), graph.tmax, 40)
        runs = []
        for compiled in (True, False):
            count, recording = CountSink(), RecordingSink()
            router, router_sinks = router_counters(targets)
            flags = [
                self.walk(monkeypatch, compiled, arrays, sink, ExpiresAfter(polls))
                for sink in (count, recording, router)
            ]
            runs.append((
                flags,
                counters([count, recording, router, *router_sinks]),
                len(recording.batches),
                router._batches,
            ))
        assert runs[0] == runs[1]
        assert runs[0][0] == [polls >= visits] * 3  # 30 polls outlast the walk
        assert runs[0][2] == runs[0][3] == min(polls, visits)

    @pytest.mark.parametrize("span", [12, 5_000, 1 << 40])
    @pytest.mark.parametrize("seed", range(3))
    def test_synthetic_slices_of_every_time_span(self, monkeypatch, span, seed):
        """Spans sorted by the packed key and spans that overflow it walk identically."""
        rng = np.random.default_rng(seed)
        size = 60
        times = np.sort(rng.integers(0, span, size=(size, 3)), axis=1)
        actives, starts, ends = (np.ascontiguousarray(times[:, i]) for i in range(3))
        arrays = (rng.permutation(size).astype(np.int64), starts, ends, actives)
        visits = np.unique(starts)
        splice = np.lexsort((actives, ends, np.searchsorted(visits, actives)))
        got_visits, got_splice = columnar._schedule(starts, ends, actives)
        assert np.array_equal(got_visits, visits)
        assert np.array_equal(got_splice, splice)
        targets = [tuple(sorted(pair)) for pair in rng.integers(0, span, (20, 2)).tolist()]
        outputs = []
        for compiled in (True, False):
            recording = RecordingSink()
            router, router_sinks = router_counters(targets)
            for sink in (recording, router):
                self.walk(monkeypatch, compiled, arrays, sink)
            outputs.append((emitted(recording), counters([router, *router_sinks])))
        assert outputs[0] == outputs[1]

    def test_counting_walk_refuses_windows_out_of_order(self):
        eids, starts, ends, actives = (part.copy() for part in self.slices(0)[0])
        actives[0] = starts[0] + 1
        with pytest.raises(ValueError):
            run_columnar_walk((eids, starts, ends, actives), CountSink())

    def test_non_int64_slice_is_refused(self, monkeypatch):
        arrays = self.slices(0)[0]
        narrowed = tuple(part.astype(np.int32) for part in arrays)
        with pytest.raises(TypeError):
            run_columnar_walk(narrowed, CountSink())
