"""Metrics registry tests: instruments, labels, snapshots, concurrency."""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import InvalidParameterError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    next_instance,
    set_timing_enabled,
    timing_enabled,
)


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("c_total", "help", ())
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = Counter("c_total", "", ())
        with pytest.raises(InvalidParameterError):
            counter.inc(-1)

    def test_labels_positional_and_by_name_bind_the_same_child(self):
        counter = Counter("c_total", "", ("a", "b"))
        child = counter.labels("x", "y")
        assert counter.labels(b="y", a="x") is child
        child.inc()
        assert counter.labels("x", "y").value == 1

    def test_label_cardinality_errors(self):
        counter = Counter("c_total", "", ("a", "b"))
        with pytest.raises(InvalidParameterError):
            counter.labels("x")  # too few
        with pytest.raises(InvalidParameterError):
            counter.labels("x", "y", "z")  # too many
        with pytest.raises(InvalidParameterError):
            counter.labels("x", b="y")  # mixed
        with pytest.raises(InvalidParameterError):
            counter.labels(a="x", c="y")  # wrong names
        with pytest.raises(InvalidParameterError):
            counter.inc()  # unlabeled use of a labelled instrument

    def test_label_values_coerced_to_strings(self):
        counter = Counter("c_total", "", ("k",))
        counter.labels(3).inc()
        assert counter.labels("3").value == 1

    def test_total_sums_children(self):
        counter = Counter("c_total", "", ("k",))
        counter.labels("2").inc(3)
        counter.labels("5").inc(4)
        assert counter.total() == 7


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g", "", ())
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7


class TestHistogram:
    def test_boundary_value_lands_in_its_bucket(self):
        # Prometheus `le` semantics: an observation exactly on a bucket
        # boundary counts toward that bucket, not the next.
        hist = Histogram("h_seconds", "", (), buckets=(1.0, 2.0, 4.0))
        hist.observe(2.0)
        child = hist.labels()
        assert child.cumulative() == [0, 1, 1, 1]

    def test_overflow_goes_to_inf_bucket(self):
        hist = Histogram("h_seconds", "", (), buckets=(1.0,))
        hist.observe(100.0)
        assert hist.labels().cumulative() == [0, 1]

    def test_cumulative_counts_and_sum(self):
        hist = Histogram("h_seconds", "", (), buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 1.5, 5.0):
            hist.observe(value)
        child = hist.labels()
        assert child.count == 4
        assert child.sum == pytest.approx(8.5)
        assert child.cumulative() == [1, 3, 4]

    def test_quantile_is_bucket_upper_bound(self):
        hist = Histogram("h_seconds", "", (), buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 0.5, 1.5, 3.0):
            hist.observe(value)
        child = hist.labels()
        assert child.quantile(0.5) == 1.0
        assert child.quantile(0.95) == 4.0
        assert Histogram("e", "", (), buckets=(1.0,)).labels().quantile(0.5) == 0.0

    def test_invalid_buckets_rejected(self):
        for bad in ((), (2.0, 1.0), (1.0, 1.0)):
            with pytest.raises(InvalidParameterError):
                Histogram("h", "", (), buckets=bad)

    def test_trailing_inf_is_stripped(self):
        hist = Histogram("h", "", (), buckets=(1.0, float("inf")))
        assert hist.buckets == (1.0,)


class TestRegistry:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help", ("k",))
        assert registry.counter("x_total", "help", ("k",)) is first

    def test_conflicting_redeclaration_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(InvalidParameterError):
            registry.gauge("x_total")  # kind conflict
        registry.counter("y_total", labelnames=("a",))
        with pytest.raises(InvalidParameterError):
            registry.counter("y_total", labelnames=("b",))  # label conflict
        registry.histogram("h_seconds", buckets=(1.0, 2.0))
        with pytest.raises(InvalidParameterError):
            registry.histogram("h_seconds", buckets=(1.0, 3.0))  # buckets

    def test_get_and_names(self):
        registry = MetricsRegistry()
        counter = registry.counter("b_total")
        registry.gauge("a")
        assert registry.get("b_total") is counter
        assert registry.get("absent") is None
        assert registry.names() == ["a", "b_total"]

    def test_snapshot_shape_and_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "the help", ("k",)).labels("3").inc(2)
        registry.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        snap = json.loads(registry.render_json())
        assert snap["c_total"]["kind"] == "counter"
        assert snap["c_total"]["help"] == "the help"
        assert snap["c_total"]["values"] == [
            {"labels": {"k": "3"}, "value": 2.0}
        ]
        hist = snap["h_seconds"]
        assert hist["buckets"] == [1.0]
        assert hist["values"][0]["bucket_counts"] == [1, 1]

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "events", ("k",)).labels("3").inc(2)
        registry.histogram("h_seconds", "lat", buckets=(0.5,)).observe(0.1)
        text = registry.render_prometheus()
        assert "# HELP c_total events" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{k="3"} 2' in text
        assert 'h_seconds_bucket{le="0.5"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_sum 0.1" in text
        assert "h_seconds_count 1" in text

    def test_prometheus_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "", ("p",)).labels('a"b\\c').inc()
        assert 'c_total{p="a\\"b\\\\c"} 1' in registry.render_prometheus()


class TestConcurrency:
    def test_parallel_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "", ("t",))
        hist = registry.histogram("h_seconds", buckets=(0.5,))
        threads, per_thread = 8, 500

        def work(tid: int) -> None:
            child = counter.labels(str(tid % 2))
            for _ in range(per_thread):
                child.inc()
                hist.observe(0.25)

        workers = [
            threading.Thread(target=work, args=(tid,))
            for tid in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert counter.total() == threads * per_thread
        assert hist.count == threads * per_thread

    def test_snapshot_while_writing_is_internally_consistent(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", buckets=(0.5, 1.0))
        stop = threading.Event()

        def write() -> None:
            while not stop.is_set():
                hist.observe(0.25)
                hist.observe(2.0)

        writer = threading.Thread(target=write)
        writer.start()
        try:
            for _ in range(200):
                sample = registry.snapshot()["h_seconds"]["values"][0]
                # The +Inf cumulative bucket must always equal the
                # observation count, even mid-write.
                assert sample["bucket_counts"][-1] == sample["count"]
        finally:
            stop.set()
            writer.join()


class TestModuleState:
    def test_timing_switch_returns_previous(self):
        previous = set_timing_enabled(False)
        try:
            assert timing_enabled() is False
            assert set_timing_enabled(True) is False
        finally:
            set_timing_enabled(previous)
        assert timing_enabled() is previous

    def test_default_registry_is_a_singleton(self):
        assert get_registry() is get_registry()

    def test_next_instance_is_unique_per_prefix(self):
        first = next_instance("testprefix")
        second = next_instance("testprefix")
        assert first != second
        assert first.startswith("testprefix-")
        assert next_instance("otherprefix").startswith("otherprefix-")

    def test_default_buckets_are_strictly_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))
