"""Observability: metrics registry, tracing spans, structured logging.

The package is dependency-free and import-light so every layer of the system
can hold a :class:`Telemetry` reference (defaulting to the no-op
:data:`NULL_TELEMETRY`) without pulling anything heavy onto its import path.
See ``README.md`` ("Observability") for the metric catalogue and span
taxonomy.
"""

from repro.obs.logging import SpanContextFilter, StructuredLogger
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry, Telemetry
from repro.obs.trace import DEFAULT_RING_CAPACITY, Span, Tracer, current_span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Span",
    "Tracer",
    "current_span",
    "DEFAULT_RING_CAPACITY",
    "SpanContextFilter",
    "StructuredLogger",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
]
