"""Lightweight tracing spans with monotonic clocks and a bounded ring buffer.

A :class:`Span` measures one named stretch of work (a drain, a scheduler
round, a wave, an LLM call) on the monotonic :func:`time.perf_counter` clock,
so durations are immune to wall-clock adjustments; each span also carries a
derived unix timestamp (tracer anchor + monotonic offset) so recorded traces
line up with external logs.

Spans nest: :meth:`Tracer.span` is a context manager that makes the new span
the *context-local* current span (``contextvars``, so worker threads and
nested scopes each see their own lineage) and records its parent's id.
Finished spans land in a bounded in-memory ring buffer — old spans fall off
the back instead of growing without bound — and
:meth:`Tracer.finished_spans` hands them out for analysis.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextvars import ContextVar

__all__ = ["Span", "Tracer", "current_span", "DEFAULT_RING_CAPACITY"]

#: Finished spans kept in memory before the oldest are dropped.
DEFAULT_RING_CAPACITY = 4096

_CURRENT_SPAN: ContextVar["Span | None"] = ContextVar(
    "repro_obs_current_span", default=None
)


def current_span() -> "Span | None":
    """The span currently open in this thread/context (or ``None``)."""
    return _CURRENT_SPAN.get()


class Span:
    """One timed, attributed unit of work."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attributes",
        "status",
        "start_unix",
        "_start",
        "_end",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        trace_id: int,
        parent_id: int | None,
        attributes: dict,
        start_unix: float,
        start_monotonic: float,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.attributes = attributes
        self.status = "ok"
        self.start_unix = start_unix
        self._start = start_monotonic
        self._end: float | None = None

    @property
    def ended(self) -> bool:
        return self._end is not None

    @property
    def duration_seconds(self) -> float:
        """Monotonic elapsed time (up to now for a still-open span)."""
        end = self._end if self._end is not None else time.perf_counter()
        return end - self._start

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value


class _SpanScope:
    """Context manager that opens a span on enter and files it on exit."""

    __slots__ = ("_tracer", "_name", "_attributes", "span", "_token")

    def __init__(self, tracer: "Tracer", name: str, attributes: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self.span: Span | None = None
        self._token = None

    def __enter__(self) -> Span:
        self.span = self._tracer._begin(self._name, self._attributes)
        self._token = _CURRENT_SPAN.set(self.span)
        return self.span

    def __exit__(self, exc_type, exc, _tb) -> bool:
        span = self.span
        span._end = time.perf_counter()
        if exc is not None:
            span.status = "error"
            span.attributes["error"] = f"{exc_type.__name__}: {exc}"
        _CURRENT_SPAN.reset(self._token)
        self._tracer._finish(span)
        return False


class Tracer:
    """Factory and ring buffer for spans."""

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("tracer ring capacity must be at least 1")
        self.capacity = capacity
        self._ring: deque[Span] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._next_id = 1
        # Anchor pair: spans time on the monotonic clock but report unix
        # timestamps derived from this one wall-clock reading.
        self._anchor_unix = time.time()
        self._anchor_monotonic = time.perf_counter()

    def span(self, name: str, **attributes: object) -> _SpanScope:
        """Open a child of the context-local current span.

        Usage::

            with tracer.span("pipeline.wave", project="Spider") as span:
                ...
                span.set_attribute("records", len(records))
        """
        return _SpanScope(self, name, dict(attributes))

    def current_span(self) -> Span | None:
        return current_span()

    def _begin(self, name: str, attributes: dict) -> Span:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = _CURRENT_SPAN.get()
        started = time.perf_counter()
        return Span(
            name=name,
            span_id=span_id,
            trace_id=parent.trace_id if parent is not None else span_id,
            parent_id=parent.span_id if parent is not None else None,
            attributes=attributes,
            start_unix=self._anchor_unix + (started - self._anchor_monotonic),
            start_monotonic=started,
        )

    def _finish(self, span: Span) -> None:
        with self._lock:
            self._ring.append(span)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def finished_spans(self) -> list[Span]:
        """Ring-buffer contents, oldest first."""
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
