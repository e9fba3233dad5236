"""Lightweight per-query span tracing.

Where the :mod:`metrics <repro.obs.metrics>` registry answers "how is
the process doing in aggregate", a trace answers "where did *this*
batch spend its time": a tree of named, monotonic-clock-timed spans —
``query_batch`` wrapping ``plan`` and ``execute``, ``execute`` wrapping
one ``enumerate`` span per covering window and ``sink_flush`` around
router fan-out — threaded through the serving stack on the
:class:`~repro.serve.planner.QueryPlan`.

Design points:

* **A trace is opt-in and local.**  Callers pass ``trace=Trace()`` to
  :meth:`CoreIndex.query_batch <repro.core.index.CoreIndex.query_batch>`
  (or attach one to a plan); nothing is global, concurrent batches get
  independent trees.
* **The disabled path pays one branch.**  Instrumented code holds
  :data:`NULL_TRACE` by default — its :meth:`~Trace.span` returns a
  shared inert context manager whose enter/exit do nothing and read no
  clock.
* **Spans nest by enter order.**  ``Trace.span`` is a context manager;
  the enclosing span at ``__enter__`` time becomes the parent.  A
  per-trace stack tracks the open chain, so nesting needs no explicit
  parent plumbing.  (A trace belongs to one thread of execution.)
* **Export is NDJSON.**  One JSON object per finished span —
  ``name``, ``start``/``duration`` on the trace-relative monotonic
  clock, ``parent``/``depth``, free-form ``attrs`` — written by
  :meth:`Trace.write_ndjson`, consumable with ``jq`` or a line reader.
"""

from __future__ import annotations

import json
import threading
from typing import Any, TextIO

from repro.obs.timing import now


class Span:
    """One timed region of a :class:`Trace`.

    Use as a context manager (``with trace.span("plan"):``).  Spans are
    identified by a trace-unique integer id; ``parent`` is the id of
    the span open when this one started, or ``None`` at the root.
    """

    __slots__ = (
        "trace", "span_id", "name", "parent", "depth",
        "start", "duration", "attrs",
    )

    def __init__(
        self,
        trace: "Trace",
        span_id: int,
        name: str,
        parent: int | None,
        depth: int,
        attrs: dict[str, Any],
    ):
        self.trace = trace
        self.span_id = span_id
        self.name = name
        self.parent = parent
        self.depth = depth
        self.attrs = attrs
        self.start: float | None = None
        self.duration: float | None = None

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to an open span (counts, keys, outcomes)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.trace._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.trace._exit(self)

    def to_event(self) -> dict:
        """The span as a plain JSON-safe trace event."""
        event = {
            "span": self.span_id,
            "name": self.name,
            "parent": self.parent,
            "depth": self.depth,
            "start": self.start,
            "duration": self.duration,
        }
        if self.attrs:
            event["attrs"] = self.attrs
        return event


class _NullSpan:
    """The shared inert span: enter/exit do nothing, read no clock."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Trace:
    """A per-query tree of timed spans.

    Thread-safe for the bookkeeping (finished-span list, id counter),
    but the *open-span stack* models one thread of execution — share a
    trace across threads only for already-finished reads.

    >>> trace = Trace("demo")
    >>> with trace.span("outer"):
    ...     with trace.span("inner", k=3):
    ...         pass
    >>> [e["name"] for e in trace.to_events()]
    ['inner', 'outer']
    """

    enabled = True

    def __init__(self, name: str = "trace"):
        self.name = name
        self._t0 = now()
        self._lock = threading.Lock()
        self._next_id = 0
        self._stack: list[Span] = []
        self._finished: list[Span] = []

    def span(self, name: str, **attrs: Any) -> Span:
        """A new span; entering it makes the currently open span its parent."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return Span(self, span_id, name, parent=None, depth=0, attrs=attrs)

    # -- context-manager protocol used by Span ------------------------

    def _enter(self, span: Span) -> None:
        with self._lock:
            if self._stack:
                span.parent = self._stack[-1].span_id
                span.depth = self._stack[-1].depth + 1
            self._stack.append(span)
        span.start = now() - self._t0

    def _exit(self, span: Span) -> None:
        end = now() - self._t0
        span.duration = end - (span.start or 0.0)
        with self._lock:
            if self._stack and self._stack[-1] is span:
                self._stack.pop()
            elif span in self._stack:  # pragma: no cover - misnested exit
                self._stack.remove(span)
            self._finished.append(span)

    # -- reading ------------------------------------------------------

    def spans(self) -> list[Span]:
        """Finished spans in completion order (children before parents)."""
        with self._lock:
            return list(self._finished)

    def find(self, name: str) -> list[Span]:
        """Finished spans called ``name``."""
        return [span for span in self.spans() if span.name == name]

    def to_events(self) -> list[dict]:
        """Finished spans as plain JSON-safe event dicts."""
        return [span.to_event() for span in self.spans()]

    def write_ndjson(self, stream: TextIO) -> int:
        """Write one JSON object per finished span; returns the count."""
        events = self.to_events()
        for event in events:
            stream.write(json.dumps(event, sort_keys=True) + "\n")
        return len(events)

    def render(self) -> str:
        """A human-readable indented tree of the finished spans."""
        spans = self.spans()
        children: dict[int | None, list[Span]] = {}
        for span in spans:
            children.setdefault(span.parent, []).append(span)
        for siblings in children.values():
            siblings.sort(key=lambda s: s.start or 0.0)
        lines: list[str] = [f"trace {self.name}"]

        def walk(parent: int | None, indent: int) -> None:
            for span in children.get(parent, ()):
                attrs = (
                    " " + " ".join(
                        f"{k}={v}" for k, v in sorted(span.attrs.items())
                    )
                    if span.attrs
                    else ""
                )
                lines.append(
                    f"{'  ' * indent}{span.name:<12} "
                    f"{(span.duration or 0.0) * 1e3:9.3f} ms{attrs}"
                )
                walk(span.span_id, indent + 1)

        walk(None, 1)
        return "\n".join(lines)


class _NullTrace(Trace):
    """The disabled default: ``span()`` returns the shared inert span."""

    enabled = False

    def __init__(self) -> None:
        super().__init__("null")

    def span(self, name: str, **attrs: Any):  # type: ignore[override]
        return _NULL_SPAN


#: The process-wide no-op trace instrumented code defaults to.  Testing
#: ``trace.enabled`` (or just calling ``trace.span``) on this object is
#: the single branch the disabled hot path pays.
NULL_TRACE: Trace = _NullTrace()
