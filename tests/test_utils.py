"""Utility module tests: ordering primitives, timers, deadlines."""

from __future__ import annotations

import pytest

from repro.utils.order import (
    counting_sort_by,
    interval_contains,
    kth_smallest,
    merge_intervals,
)
from repro.obs.timing import Deadline, Stopwatch, time_call


class TestTimerShim:
    """``repro.utils`` re-exports the timing primitives of ``repro.obs.timing``."""

    def test_shim_reexports_same_objects(self):
        import repro.utils as utils

        assert utils.Deadline is Deadline
        assert utils.Stopwatch is Stopwatch
        assert utils.time_call is time_call


class TestKthSmallest:
    def test_small_cases(self):
        values = [5, 1, 4, 2, 3]
        assert kth_smallest(values, 1) == 1
        assert kth_smallest(values, 3) == 3
        assert kth_smallest(values, 5) == 5

    def test_duplicates(self):
        assert kth_smallest([2, 2, 1, 2], 3) == 2

    def test_large_list_heap_path(self):
        values = list(range(1000, 0, -1))
        assert kth_smallest(values, 7) == 7

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            kth_smallest([1], 0)
        with pytest.raises(ValueError):
            kth_smallest([1], 2)


class TestCountingSort:
    def test_sorted_by_key(self):
        items = [(3, "c"), (1, "a"), (2, "b"), (1, "a2")]
        ordered = counting_sort_by(items, key=lambda x: x[0], lo=1, hi=3)
        assert [x[0] for x in ordered] == [1, 1, 2, 3]

    def test_stability(self):
        items = [(1, "first"), (1, "second")]
        ordered = counting_sort_by(items, key=lambda x: x[0], lo=1, hi=1)
        assert ordered == items

    def test_key_outside_range(self):
        with pytest.raises(ValueError):
            counting_sort_by([(5,)], key=lambda x: x[0], lo=1, hi=3)

    def test_empty_key_range(self):
        with pytest.raises(ValueError):
            counting_sort_by([], key=lambda x: x, lo=3, hi=2)


class TestIntervals:
    def test_merge_overlapping(self):
        assert merge_intervals([(1, 3), (2, 5), (7, 8)]) == [(1, 5), (7, 8)]

    def test_merge_adjacent(self):
        assert merge_intervals([(1, 2), (3, 4)]) == [(1, 4)]

    def test_merge_empty(self):
        assert merge_intervals([]) == []

    def test_merge_rejects_inverted(self):
        with pytest.raises(ValueError):
            merge_intervals([(3, 1)])

    def test_contains(self):
        intervals = [(1, 3), (7, 9)]
        assert interval_contains(intervals, 2)
        assert interval_contains(intervals, 7)
        assert not interval_contains(intervals, 5)
        assert not interval_contains(intervals, 10)
        assert not interval_contains([], 1)


class TestTimers:
    def test_stopwatch_accumulates(self):
        sw = Stopwatch()
        sw.start()
        sw.lap("early")
        total = sw.stop()
        assert total >= sw.laps["early"] >= 0
        sw.reset()
        assert sw.elapsed == 0.0

    def test_stopwatch_misuse(self):
        sw = Stopwatch()
        with pytest.raises(RuntimeError):
            sw.stop()
        sw.start()
        with pytest.raises(RuntimeError):
            sw.start()

    def test_time_call(self):
        result, seconds = time_call(sum, range(100))
        assert result == 4950
        assert seconds >= 0

    def test_deadline(self):
        assert not Deadline(None).expired()
        assert Deadline(None).remaining is None
        expired = Deadline(0.0)
        assert expired.expired()
        assert expired.remaining == 0.0
        assert not Deadline(60.0).expired()


class TestCountingSortSparseFallback:
    """Both code paths of counting_sort_by: dense buckets vs timsort."""

    def test_sparse_span_falls_back_and_sorts(self):
        # Span far wider than the item count triggers the timsort path.
        items = [(1_000_000, "z"), (5, "a"), (700_000, "m"), (5, "b")]
        ordered = counting_sort_by(items, key=lambda x: x[0], lo=1, hi=1_000_000)
        assert [x[1] for x in ordered] == ["a", "b", "m", "z"]

    def test_sparse_path_is_stable(self):
        items = [(9, i) for i in range(20)]
        ordered = counting_sort_by(items, key=lambda x: x[0], lo=1, hi=10_000)
        assert ordered == items

    def test_sparse_path_validates_keys(self):
        with pytest.raises(ValueError):
            counting_sort_by([(0, "bad")], key=lambda x: x[0], lo=1, hi=1_000_000)

    def test_dense_and_sparse_agree(self):
        import random

        rng = random.Random(7)
        items = [(rng.randint(1, 40), i) for i in range(60)]
        dense = counting_sort_by(items, key=lambda x: x[0], lo=1, hi=40)
        # Widening the declared span flips to the sparse path; the order
        # must not change.
        sparse = counting_sort_by(items, key=lambda x: x[0], lo=1, hi=100_000)
        assert dense == sparse

    def test_generator_input_materialised_once(self):
        ordered = counting_sort_by(
            ((value, value) for value in [3, 1, 2]), key=lambda x: x[0], lo=1, hi=64
        )
        assert [x[0] for x in ordered] == [1, 2, 3]
