"""A thread-safe, process-wide metrics registry.

The serving stack grew its telemetry organically: the index registry,
the store, the executor and the planner each kept ad-hoc dicts and
bare ints.  This module gives them one schema — named *instruments*
(:class:`Counter`, :class:`Gauge`, fixed-bucket :class:`Histogram`)
living in a :class:`MetricsRegistry`, addressed by dotted-free
Prometheus-style names and frozen label tuples:

* **Registration is idempotent** — ``registry.counter(name, ...)``
  returns the existing instrument on repeat calls (and raises when the
  name is re-declared with a different kind, label set or buckets), so
  any component can declare what it needs without coordination.
* **The hot path is O(1)** — a bound child (one label combination)
  increments a float in a dict slot under the instrument's lock; no
  string formatting, no allocation beyond the first bind.  Components
  bind their children once at construction and hold them.
* **Snapshots are plain data** — :meth:`MetricsRegistry.snapshot`
  returns a nested dict (JSON-safe), rendered by
  :meth:`~MetricsRegistry.render_json` or Prometheus text exposition
  by :meth:`~MetricsRegistry.render_prometheus`.  Each instrument is
  snapshotted under its own lock, so a snapshot taken mid-write is
  internally consistent per instrument (histogram bucket counts always
  sum to the observation count).

The process-wide default registry (:func:`get_registry`) is what the
library's built-in instrumentation writes to; the store, the WAL and
the index registry accept a ``metrics=`` constructor argument for
isolation.  Latency measurement
(the ``perf_counter`` calls around plan/execute/enumerate boundaries)
can be switched off process-wide with :func:`set_timing_enabled` — the
instrumented code then pays a single branch per boundary.
"""

from __future__ import annotations

import itertools
import json
import threading
from bisect import bisect_left
from collections.abc import Iterable, Sequence

from repro.errors import InvalidParameterError

#: Default latency buckets (seconds): 100 µs .. 30 s, roughly log-spaced.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

_INF = float("inf")

#: HTTP ``Content-Type`` of :meth:`MetricsRegistry.render_prometheus`
#: output — what a ``GET /metrics`` endpoint should answer with.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _frozen_labels(
    labelnames: Sequence[str], args: tuple, kwargs: dict
) -> tuple[str, ...]:
    """Validate and freeze a label-value tuple for a bind call."""
    if args and kwargs:
        raise InvalidParameterError(
            "pass label values either positionally or by name, not both"
        )
    if kwargs:
        if set(kwargs) != set(labelnames):
            raise InvalidParameterError(
                f"expected labels {tuple(labelnames)}, got {tuple(kwargs)}"
            )
        args = tuple(kwargs[name] for name in labelnames)
    if len(args) != len(labelnames):
        raise InvalidParameterError(
            f"expected {len(labelnames)} label value(s) "
            f"{tuple(labelnames)}, got {len(args)}"
        )
    return tuple(str(value) for value in args)


class _Instrument:
    """Shared machinery: name, labels, child binding, per-instrument lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str]):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}

    def signature(self) -> tuple:
        """What a re-registration must match to be considered the same."""
        return (self.kind, self.labelnames)

    def labels(self, *args, **kwargs):
        """The bound child for one label-value combination (created once)."""
        key = _frozen_labels(self.labelnames, args, kwargs)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child(key)
                self._children[key] = child
        return child

    def _unlabeled(self):
        if self.labelnames:
            raise InvalidParameterError(
                f"{self.name} declares labels {self.labelnames}; "
                "bind them with .labels(...) first"
            )
        return self.labels()

    def _make_child(self, key: tuple[str, ...]):  # pragma: no cover - abstract
        raise NotImplementedError

    def items(self) -> list[tuple[tuple[str, ...], object]]:
        """``(label_values, child)`` pairs, point-in-time."""
        with self._lock:
            return list(self._children.items())

    def snapshot_values(self) -> list[dict]:
        """Plain-data samples for every child.

        The child list is pinned under the instrument lock; each child
        then samples itself under that same lock (so a histogram's
        bucket counts always sum to its observation count even while
        writers are active).
        """
        with self._lock:
            children = sorted(self._children.items())
        return [
            dict(
                (("labels", dict(zip(self.labelnames, key))),),
                **child._sample(),  # type: ignore[attr-defined]
            )
            for key, child in children
        ]

    def snapshot(self) -> dict:
        out: dict = {
            "kind": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "values": self.snapshot_values(),
        }
        if isinstance(self, Histogram):
            out["buckets"] = list(self.buckets)
        return out


class _CounterChild:
    """One labelled counter series; ``inc`` is the O(1) hot path."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise InvalidParameterError(
                f"counters only go up; got inc({amount})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _sample(self) -> dict:
        return {"value": self._value}


class Counter(_Instrument):
    """A monotonically increasing count (events, items, bytes)."""

    kind = "counter"

    def _make_child(self, key):
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        self._unlabeled().inc(amount)

    @property
    def value(self) -> float:
        """Unlabeled value (labelled instruments: use ``.labels().value``)."""
        return self._unlabeled().value

    def total(self) -> float:
        """Sum over every child — the all-labels aggregate."""
        with self._lock:
            return sum(
                child._value for child in self._children.values()
            )


class _GaugeChild:
    """One labelled gauge series (set/inc/dec)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def _sample(self) -> dict:
        return {"value": self._value}


class Gauge(_Instrument):
    """A value that can go up and down (sizes, capacities, in-flight)."""

    kind = "gauge"

    def _make_child(self, key):
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self._unlabeled().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._unlabeled().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._unlabeled().dec(amount)

    @property
    def value(self) -> float:
        return self._unlabeled().value


class _HistogramChild:
    """One labelled histogram series: fixed buckets + sum + count."""

    __slots__ = ("_lock", "_buckets", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock, buckets: tuple[float, ...]):
        self._lock = lock
        self._buckets = buckets
        # One slot per finite bucket plus the +Inf overflow slot.
        self._counts = [0] * (len(buckets) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        # Prometheus `le` semantics: bucket i counts value <= buckets[i],
        # so a value landing exactly on a boundary belongs to that bucket.
        position = bisect_left(self._buckets, value)
        with self._lock:
            self._counts[position] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative(self) -> list[int]:
        """Cumulative bucket counts (Prometheus style), +Inf last."""
        with self._lock:
            counts = list(self._counts)
        out: list[int] = []
        running = 0
        for count in counts:
            running += count
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile.

        A bucket-resolution estimate (the exposition-format consumer's
        view); ``inf`` when the quantile falls in the overflow bucket,
        ``0.0`` on an empty series.
        """
        cumulative = self.cumulative()
        total = cumulative[-1]
        if not total:
            return 0.0
        threshold = q * total
        for upper, running in zip(self._buckets + (_INF,), cumulative):
            if running >= threshold:
                return upper
        return _INF  # pragma: no cover - the +Inf row always reaches total

    def _sample(self) -> dict:
        with self._lock:
            counts = list(self._counts)
            total, s = self._count, self._sum
        cumulative: list[int] = []
        running = 0
        for count in counts:
            running += count
            cumulative.append(running)
        return {"count": total, "sum": s, "bucket_counts": cumulative}


class Histogram(_Instrument):
    """Fixed-bucket latency/size distribution (cumulative on export)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        uppers = tuple(float(b) for b in buckets)
        if not uppers or list(uppers) != sorted(set(uppers)):
            raise InvalidParameterError(
                "histogram buckets must be non-empty, strictly ascending"
            )
        if uppers and uppers[-1] == _INF:
            uppers = uppers[:-1]  # +Inf is implicit
        self.buckets = uppers

    def signature(self) -> tuple:
        return (self.kind, self.labelnames, self.buckets)

    def _make_child(self, key):
        return _HistogramChild(self._lock, self.buckets)

    def observe(self, value: float) -> None:
        self._unlabeled().observe(value)

    @property
    def count(self) -> int:
        return self._unlabeled().count

    @property
    def sum(self) -> float:
        return self._unlabeled().sum


class MetricsRegistry:
    """A named collection of instruments with one consistent export.

    Thread-safe: instrument creation holds the registry lock, value
    updates hold the owning instrument's lock.  The registry itself is
    process-local.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def _register(self, cls, name: str, help: str, labelnames, **kwargs):
        candidate = cls(name, help, labelnames, **kwargs)
        with self._lock:
            existing = self._instruments.get(name)
            if existing is None:
                self._instruments[name] = candidate
                return candidate
        if existing.signature() != candidate.signature():
            raise InvalidParameterError(
                f"instrument {name!r} already registered as "
                f"{existing.signature()}, cannot re-register as "
                f"{candidate.signature()}"
            )
        return existing

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        """Get-or-create a counter (idempotent; kind/labels must match)."""
        return self._register(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        """Get-or-create a gauge (idempotent; kind/labels must match)."""
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get-or-create a histogram (kind/labels/buckets must match)."""
        return self._register(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def get(self, name: str) -> _Instrument | None:
        """The registered instrument called ``name``, if any."""
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Every instrument's current values as one plain nested dict.

        ``{name: {"kind", "help", "labelnames", "values": [...]}}`` with
        per-child samples (``value`` for counters/gauges; ``count`` /
        ``sum`` / cumulative ``bucket_counts`` for histograms, whose
        instrument entry also lists the finite bucket ``buckets``).
        JSON-safe throughout.  Each instrument is read under its own
        lock, so every sample is internally consistent even while
        writers are active.
        """
        with self._lock:
            instruments = sorted(self._instruments.items())
        return {name: inst.snapshot() for name, inst in instruments}

    def render_json(self, *, indent: int | None = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render_prometheus(self) -> str:
        """The snapshot in Prometheus text exposition format (v0.0.4)."""
        lines: list[str] = []
        snap = self.snapshot()
        for name, inst in snap.items():
            if inst["help"]:
                lines.append(f"# HELP {name} {_escape_help(inst['help'])}")
            lines.append(f"# TYPE {name} {inst['kind']}")
            for sample in inst["values"]:
                labels = sample["labels"]
                if inst["kind"] == "histogram":
                    uppers = [*inst["buckets"], "+Inf"]
                    for upper, cum in zip(uppers, sample["bucket_counts"]):
                        le = upper if isinstance(upper, str) else repr(upper)
                        lines.append(
                            f"{name}_bucket"
                            f"{_render_labels({**labels, 'le': le})} {cum}"
                        )
                    lines.append(
                        f"{name}_sum{_render_labels(labels)} {sample['sum']}"
                    )
                    lines.append(
                        f"{name}_count{_render_labels(labels)} {sample['count']}"
                    )
                else:
                    lines.append(
                        f"{name}{_render_labels(labels)} "
                        f"{_render_number(sample['value'])}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in labels.items()
    )
    return "{" + inner + "}"


def _render_number(value: float) -> str:
    return repr(int(value)) if float(value).is_integer() else repr(value)


# ----------------------------------------------------------------------
# Process-wide default registry and the timing switch
# ----------------------------------------------------------------------

_DEFAULT_REGISTRY = MetricsRegistry()

#: Whether latency instrumentation takes clock readings.  Counters stay
#: on either way (they replace pre-existing bookkeeping); this switch
#: only gates the ``now()`` calls and histogram observations around the
#: plan/execute/enumerate/sink boundaries, so the disabled hot path
#: pays one branch.
_TIMING_ENABLED = True


def get_registry() -> MetricsRegistry:
    """The process-wide default registry all built-in instruments use."""
    return _DEFAULT_REGISTRY


def timing_enabled() -> bool:
    """Whether latency histograms/spans currently take clock readings."""
    return _TIMING_ENABLED


def set_timing_enabled(enabled: bool) -> bool:
    """Switch latency measurement on or off; returns the previous state."""
    global _TIMING_ENABLED
    previous = _TIMING_ENABLED
    _TIMING_ENABLED = bool(enabled)
    return previous


_INSTANCE_COUNTERS: dict[str, "itertools.count[int]"] = {}
_INSTANCE_LOCK = threading.Lock()


def next_instance(prefix: str) -> str:
    """A process-unique instance label value, ``"<prefix>-<n>"``.

    Components that can exist several times per process (index
    registries, stores, pools) label their series with one of these so
    each instance's counters stay distinguishable in a shared registry
    — and so a component's legacy ``stats()`` dict can be a faithful
    view over exactly its own children.
    """
    with _INSTANCE_LOCK:
        counter = _INSTANCE_COUNTERS.get(prefix)
        if counter is None:
            counter = _INSTANCE_COUNTERS[prefix] = itertools.count(1)
        return f"{prefix}-{next(counter)}"
