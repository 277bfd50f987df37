"""Task configuration (paper step 3).

Users choose the annotation direction (currently SQL-to-NL), the language
model, and the pipeline features to enable.  The configuration object also
carries the ablation switches used by the E7 benchmarks (RAG on/off,
decomposition on/off, knowledge feedback on/off, candidate count).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from enum import Enum
from typing import TYPE_CHECKING

from repro.errors import PipelineError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (llm.base ← config)
    from typing import Callable

    from repro.llm.base import RetryPolicy
    from repro.llm.resilience import CircuitBreaker


class AnnotationTask(Enum):
    """Supported annotation directions."""

    SQL_TO_NL = "sql_to_nl"
    # The paper lists text-to-SQL validation as future work; the enum leaves
    # room for it so the configuration surface matches the system description.
    NL_TO_SQL = "nl_to_sql"


@dataclass
class TaskConfig:
    """Configuration of one annotation project.

    Attributes:
        task: Annotation direction (only SQL_TO_NL is fully supported).
        model_name: Simulated LLM profile to use for candidate generation.
        num_candidates: Candidates generated per query (the paper uses 4).
        top_k_examples: Retrieved prior annotations added to the prompt.
        rag_enabled: Include retrieved examples + relevant schema tables.
        decomposition_enabled: Decompose nested queries into CTE units.
        knowledge_feedback_enabled: Inject accumulated domain knowledge.
        auto_accept_into_examples: Store accepted annotations for future RAG.
        batch_size: Wave size used by the batched annotation scheduler —
            how many queries are retrieved and generated together before
            feedback is applied and accepted annotations are committed.
            1 degenerates to fully sequential annotation.
        max_pending_per_project: Admission-control limit on this project's
            queued (not yet drained) jobs in the annotation service.  A
            submit that would exceed it is rejected with
            :class:`~repro.errors.BackpressureError` instead of letting one
            hot tenant grow the queue without bound.  0 disables the limit.
        llm_max_attempts: Attempts per LLM call before a transient error is
            surfaced (1 disables retries).
        llm_retry_base_delay: Backoff before the first retry, in seconds;
            doubles per attempt up to ``llm_retry_max_delay``.
        llm_retry_max_delay: Ceiling on the exponential backoff delay.
        llm_retry_jitter: Fraction of each backoff delay that is randomised
            (0 = fixed delays, 1 = anywhere between 0 and the full delay).
        llm_call_timeout: Per-call wall-clock budget in seconds; ``None``
            disables timeout enforcement.  A timed-out call counts as a
            transient error and is retried.
        llm_retry_budget_s: Total elapsed-time cap (attempts + backoff
            sleeps) on one logical LLM call; ``None`` disables the cap.
            Bounds the worst-case sleep when ``llm_max_attempts`` is high.
        breaker_enabled: Guard this project's LLM calls with a per-pipeline
            circuit breaker.  While open, the service *defers* the project's
            waves (jobs are re-queued, not quarantined).
        breaker_window: Rolling outcome window the failure rate is computed
            over.
        breaker_failure_rate: Failure fraction within the window that trips
            the breaker open.
        breaker_min_calls: Outcomes required in the window before the rate
            is trusted (prevents one early failure from tripping).
        breaker_recovery_s: Seconds the breaker stays open before admitting
            half-open probe calls.
        breaker_probes: Consecutive probe successes required to close again.
    """

    task: AnnotationTask = AnnotationTask.SQL_TO_NL
    model_name: str = "gpt-4o"
    num_candidates: int = 4
    top_k_examples: int = 3
    rag_enabled: bool = True
    decomposition_enabled: bool = True
    knowledge_feedback_enabled: bool = True
    auto_accept_into_examples: bool = True
    batch_size: int = 16
    max_pending_per_project: int = 0
    llm_max_attempts: int = 3
    llm_retry_base_delay: float = 0.05
    llm_retry_max_delay: float = 2.0
    llm_retry_jitter: float = 0.5
    llm_call_timeout: float | None = None
    llm_retry_budget_s: float | None = None
    breaker_enabled: bool = False
    breaker_window: int = 16
    breaker_failure_rate: float = 0.5
    breaker_min_calls: int = 4
    breaker_recovery_s: float = 1.0
    breaker_probes: int = 1

    def validate(self) -> None:
        """Raise :class:`PipelineError` on inconsistent settings."""
        if self.num_candidates < 1:
            raise PipelineError("num_candidates must be at least 1")
        if self.top_k_examples < 0:
            raise PipelineError("top_k_examples cannot be negative")
        if self.batch_size < 1:
            raise PipelineError("batch_size must be at least 1")
        if self.max_pending_per_project < 0:
            raise PipelineError("max_pending_per_project cannot be negative")
        if self.llm_max_attempts < 1:
            raise PipelineError("llm_max_attempts must be at least 1")
        if self.llm_retry_base_delay < 0 or self.llm_retry_max_delay < 0:
            raise PipelineError("retry delays cannot be negative")
        if not 0.0 <= self.llm_retry_jitter <= 1.0:
            raise PipelineError("llm_retry_jitter must be within [0, 1]")
        if self.llm_call_timeout is not None and self.llm_call_timeout <= 0:
            raise PipelineError("llm_call_timeout must be positive when set")
        if self.llm_retry_budget_s is not None and self.llm_retry_budget_s <= 0:
            raise PipelineError("llm_retry_budget_s must be positive when set")
        if self.breaker_window < 1:
            raise PipelineError("breaker_window must be at least 1")
        if not 0.0 < self.breaker_failure_rate <= 1.0:
            raise PipelineError("breaker_failure_rate must be within (0, 1]")
        if self.breaker_min_calls < 1:
            raise PipelineError("breaker_min_calls must be at least 1")
        if self.breaker_recovery_s < 0:
            raise PipelineError("breaker_recovery_s cannot be negative")
        if self.breaker_probes < 1:
            raise PipelineError("breaker_probes must be at least 1")
        if self.task is AnnotationTask.NL_TO_SQL:
            raise PipelineError(
                "NL_TO_SQL annotation is future work in the paper and not supported yet"
            )

    def retry_policy(self) -> "RetryPolicy":
        """The :class:`~repro.llm.base.RetryPolicy` these knobs describe."""
        from repro.llm.base import RetryPolicy

        return RetryPolicy(
            max_attempts=self.llm_max_attempts,
            base_delay=self.llm_retry_base_delay,
            max_delay=self.llm_retry_max_delay,
            jitter=self.llm_retry_jitter,
            call_timeout=self.llm_call_timeout,
            retry_budget_s=self.llm_retry_budget_s,
        )

    def circuit_breaker(
        self, on_transition: "Callable[[str, str], None] | None" = None
    ) -> "CircuitBreaker | None":
        """A :class:`~repro.llm.resilience.CircuitBreaker` per these knobs,
        or ``None`` when breaking is disabled."""
        if not self.breaker_enabled:
            return None
        from repro.llm.resilience import CircuitBreaker

        return CircuitBreaker(
            window=self.breaker_window,
            failure_rate=self.breaker_failure_rate,
            min_calls=self.breaker_min_calls,
            recovery_timeout=self.breaker_recovery_s,
            probe_budget=self.breaker_probes,
            on_transition=on_transition,
        )

    def to_dict(self) -> dict:
        """JSON-safe representation (journal / snapshot serialisation)."""
        state = asdict(self)
        state["task"] = self.task.value
        return state

    @classmethod
    def from_dict(cls, state: dict) -> "TaskConfig":
        """Rebuild a configuration from :meth:`to_dict` output.

        Unknown keys are ignored so journals written by newer versions stay
        replayable by older code, and vice versa missing keys fall back to
        defaults.
        """
        known = {field.name for field in fields(cls)}
        kwargs = {key: value for key, value in state.items() if key in known}
        if "task" in kwargs:
            kwargs["task"] = AnnotationTask(kwargs["task"])
        return cls(**kwargs)

    def describe(self) -> str:
        """One-line summary used in logs and exports."""
        features = []
        if self.rag_enabled:
            features.append("rag")
        if self.decomposition_enabled:
            features.append("decomposition")
        if self.knowledge_feedback_enabled:
            features.append("knowledge")
        return (
            f"{self.task.value} with {self.model_name}, {self.num_candidates} candidates"
            f" [{', '.join(features) or 'no assistance'}]"
        )
