"""Structured logging adapter that stamps records with span context.

Built on the stdlib ``logging`` module so existing handlers, levels and
propagation all keep working.  Two pieces:

* :class:`SpanContextFilter` — a ``logging.Filter`` that copies the current
  span's ids (and its ``project``/``job_id`` attributes, when set) onto every
  record, so *any* formatter can reference ``%(trace_id)s`` etc.;
* :class:`StructuredLogger` — an event-oriented front end
  (``log.event("job_quarantined", project="Spider", error_type=...)``) that
  renders ``event key=value`` messages with the span ids appended, keeping
  log lines grep-able and machine-parseable without a JSON dependency.
"""

from __future__ import annotations

import logging

from repro.obs.trace import current_span

__all__ = ["SpanContextFilter", "StructuredLogger"]

#: Record attributes stamped by :class:`SpanContextFilter`.
_SPAN_FIELDS = ("trace_id", "span_id", "project", "job_id")


def _span_context() -> dict[str, object]:
    """Span-derived fields for the log record (empty strings off-span)."""
    span = current_span()
    if span is None:
        return {field: "" for field in _SPAN_FIELDS}
    return {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "project": span.attributes.get("project", ""),
        "job_id": span.attributes.get("job_id", ""),
    }


class SpanContextFilter(logging.Filter):
    """Stamp every record with the current span's ids (or empty strings)."""

    def filter(self, record: logging.LogRecord) -> bool:
        for field, value in _span_context().items():
            if not hasattr(record, field):
                setattr(record, field, value)
        return True


class StructuredLogger:
    """Event-style logging with span context folded into each line."""

    def __init__(self, name: str = "repro", level: int = logging.INFO) -> None:
        self._logger = logging.getLogger(name)
        self._logger.setLevel(level)
        if not any(
            isinstance(existing, SpanContextFilter)
            for existing in self._logger.filters
        ):
            self._logger.addFilter(SpanContextFilter())

    @property
    def logger(self) -> logging.Logger:
        """The underlying stdlib logger (attach handlers here)."""
        return self._logger

    def event(self, event: str, level: int = logging.INFO, **fields: object) -> None:
        """Log one structured event: ``event key=value ...`` plus span ids."""
        if not self._logger.isEnabledFor(level):
            return
        context = _span_context()
        parts = [event]
        parts.extend(f"{key}={fields[key]}" for key in sorted(fields))
        parts.extend(
            f"{field}={context[field]}"
            for field in _SPAN_FIELDS
            if context[field] != "" and field not in fields
        )
        self._logger.log(level, " ".join(parts), extra=context)
