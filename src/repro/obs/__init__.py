"""Unified observability: metrics registry, span tracing, timing.

Three small modules with one job each:

* :mod:`repro.obs.metrics` — the process-wide :class:`MetricsRegistry`
  (counters, gauges, fixed-bucket histograms; Prometheus-text and JSON
  export) that the registry/store/pool/planner/executor instruments
  write to.
* :mod:`repro.obs.trace` — per-query span trees (:class:`Trace`)
  threaded through ``plan → execute → sink``; :data:`NULL_TRACE` is
  the one-branch disabled default.
* :mod:`repro.obs.timing` — the monotonic clock (:func:`now`) plus
  :class:`Stopwatch` / :class:`Deadline` / :func:`time_call`.

``repro.obs.report()`` renders the default registry as a one-shot text
report.  See ``docs/OBSERVABILITY.md`` for the instrument catalogue
and label conventions.
"""

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
from repro.obs.report import report
from repro.obs.timing import Deadline, Stopwatch, now, time_call
from repro.obs.trace import NULL_TRACE, Span, Trace

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "next_instance",
    "set_timing_enabled",
    "timing_enabled",
    "report",
    "Deadline",
    "Stopwatch",
    "now",
    "time_call",
    "NULL_TRACE",
    "Span",
    "Trace",
]
