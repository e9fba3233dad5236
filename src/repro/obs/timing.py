"""Monotonic-clock timing primitives for the observability layer.

Every duration the library measures — span tracing, latency
histograms, deadlines — goes through :func:`now`, a
single process-wide monotonic clock (``time.perf_counter``: monotonic,
highest available resolution, immune to wall-clock steps).  Nothing in
the library times work against ``time.time``.
"""

from __future__ import annotations

import time
from collections.abc import Callable

#: The process-wide monotonic clock, in fractional seconds.  All
#: intervals in the library are differences of this clock.
now: Callable[[], float] = time.perf_counter


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
    walk.
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
