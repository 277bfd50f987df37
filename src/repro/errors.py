"""Exception hierarchy shared across the repro library.

All library-specific exceptions derive from :class:`ReproError` so callers can
catch everything raised by the library with a single ``except`` clause while
still being able to discriminate between subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


class SQLError(ReproError):
    """Base class for SQL front-end errors (lexing, parsing, analysis)."""


class LexError(SQLError):
    """Raised when the SQL lexer encounters an invalid character sequence."""

    def __init__(self, message: str, position: int = -1, line: int = -1) -> None:
        super().__init__(message)
        self.position = position
        self.line = line


class ParseError(SQLError):
    """Raised when the SQL parser cannot build an AST from a token stream."""

    def __init__(self, message: str, position: int = -1, token: str | None = None) -> None:
        super().__init__(message)
        self.position = position
        self.token = token


class AnalysisError(SQLError):
    """Raised when semantic analysis of a parsed query fails."""


class EngineError(ReproError):
    """Base class for execution-engine errors."""


class CatalogError(EngineError):
    """Raised for unknown tables/columns or duplicate definitions."""


class ExecutionError(EngineError):
    """Raised when query execution fails (type errors, bad references...)."""


class TypeMismatchError(ExecutionError):
    """Raised when an operation is applied to incompatible value types."""


class SchemaError(ReproError):
    """Raised for invalid schema definitions or profile requests."""


class RetrievalError(ReproError):
    """Raised by the retrieval / vector-store subsystem."""


class LLMError(ReproError):
    """Raised by the simulated LLM subsystem."""


class TransientLLMError(LLMError):
    """A retryable LLM failure (rate limit, flaky network, 5xx-style error).

    Retry machinery treats this class — and any exception with a truthy
    ``transient`` attribute — as safe to retry with backoff; everything else
    fails fast.
    """


class LLMTimeoutError(TransientLLMError):
    """An LLM call exceeded its per-call timeout budget."""


class DeadlineExceededError(ReproError):
    """An operation ran out of its deadline budget.

    Raised when a :class:`~repro.llm.resilience.Deadline` carried through a
    drain expires before (or during) an LLM call.  It is a deferral signal,
    not a backend failure: the work is still valid, there is just no time
    left for it in this drain.
    """


class PipelineError(ReproError):
    """Raised by the BenchPress annotation pipeline orchestration."""


class IngestionError(ReproError):
    """Raised when SQL logs or schema files cannot be ingested."""


class StudyError(ReproError):
    """Raised by the simulated user-study harness."""


class WorkloadError(ReproError):
    """Raised by synthetic workload generators."""


class MetricError(ReproError):
    """Raised when a metric cannot be computed on the provided inputs."""


class ExportError(ReproError):
    """Raised when exporting annotations to benchmark format fails."""


class JournalError(ReproError):
    """Raised by the durability event journal (I/O, format, replay errors)."""


class DiskFaultError(JournalError):
    """A journal write failed at the OS level (ENOSPC, EIO, failed fsync...).

    Subclass of :class:`JournalError` so every existing "durability errors
    are never swallowed" path still applies; the service additionally treats
    it as the trigger for *degraded mode* (journaled-read-only) instead of
    crashing mid-drain — a full disk should stop writes, not annotators.
    """

    def __init__(self, message: str, errno_value: int | None = None) -> None:
        super().__init__(message)
        self.errno = errno_value


class DegradedModeError(ReproError):
    """A mutating operation was rejected because the service is degraded.

    After a disk fault the service flips to journaled-read-only mode:
    existing annotations, exports and stats stay readable, but submits and
    drains raise this error until an operator recovers the service from its
    (healed) journal."""


class SnapshotError(ReproError):
    """Raised when a service snapshot cannot be written or restored."""
