"""Monotonic-clock timing primitives for the observability layer.

Every duration the library measures — span tracing, latency
histograms, deadlines, benchmark laps — goes through :func:`now`, a
single process-wide monotonic clock (``time.perf_counter``: monotonic,
highest available resolution, immune to wall-clock steps).  Nothing in
the library times work against ``time.time``.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

#: The process-wide monotonic clock, in fractional seconds.  All
#: intervals in the library are differences of this clock.
now: Callable[[], float] = time.perf_counter


@dataclass
class Stopwatch:
    """A restartable monotonic stopwatch with named laps.

    >>> sw = Stopwatch()
    >>> sw.start()
    >>> _ = sum(range(1000))
    >>> sw.lap("sum")
    >>> sw.elapsed >= 0.0
    True
    """

    _started_at: float | None = None
    _accumulated: float = 0.0
    laps: dict[str, float] = field(default_factory=dict)

    def start(self) -> None:
        if self._started_at is not None:
            raise RuntimeError("stopwatch already running")
        self._started_at = now()

    def stop(self) -> float:
        if self._started_at is None:
            raise RuntimeError("stopwatch not running")
        self._accumulated += now() - self._started_at
        self._started_at = None
        return self._accumulated

    def lap(self, name: str) -> None:
        """Record the elapsed time so far under ``name`` without stopping."""
        self.laps[name] = self.elapsed

    @property
    def elapsed(self) -> float:
        total = self._accumulated
        if self._started_at is not None:
            total += now() - self._started_at
        return total

    def reset(self) -> None:
        self._started_at = None
        self._accumulated = 0.0
        self.laps.clear()


def time_call(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, float]:
    """Run ``fn(*args, **kwargs)`` and return ``(result, seconds)``."""
    t0 = now()
    result = fn(*args, **kwargs)
    return result, now() - t0


class Deadline:
    """A soft deadline used to emulate the paper's 6-hour time limit.

    Algorithms poll :meth:`expired` at coarse-grained checkpoints (once per
    start time, typically) and abort with a DNF marker instead of raising.

    ``cancelled`` optionally threads an external abort signal through the
    same machinery: a zero-argument callable polled by :meth:`expired`
    alongside the clock.  This is how the serving daemon turns a client
    disconnect into a prompt enumeration abort — the executor needs no
    second code path, it already polls the deadline per start time.  The
    callable must be cheap and thread-safe to *read* (a ``bool`` flag,
    an ``Event.is_set``); it is polled from whichever thread runs the
    walk.  Cancellation does not travel across process boundaries: a
    :class:`~repro.serve.parallel.WorkerPool` chunk carries only the
    remaining seconds.
    """

    def __init__(
        self,
        seconds: float | None,
        *,
        cancelled: Callable[[], bool] | None = None,
    ):
        self._seconds = seconds
        self._cancelled = cancelled
        self._t0 = now()

    def expired(self) -> bool:
        if self._cancelled is not None and self._cancelled():
            return True
        if self._seconds is None:
            return False
        return now() - self._t0 > self._seconds

    @property
    def remaining(self) -> float | None:
        if self._seconds is None:
            return None
        return max(0.0, self._seconds - (now() - self._t0))
