"""Task configuration (paper step 3).

Users choose the language model and the pipeline features to enable; the
annotation direction is always SQL-to-NL, the one the paper implements.  The
configuration object also carries the ablation switches used by the E7
benchmarks (RAG on/off, decomposition on/off, knowledge feedback on/off,
candidate count).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING

from repro.errors import PipelineError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (llm.base ← config)
    from repro.llm.base import RetryPolicy


@dataclass
class TaskConfig:
    """Configuration of one annotation project.

    Attributes:
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
    """

    model_name: str = "gpt-4o"
    num_candidates: int = 4
    top_k_examples: int = 3
    rag_enabled: bool = True
    decomposition_enabled: bool = True
    knowledge_feedback_enabled: bool = True
    auto_accept_into_examples: bool = True
    batch_size: int = 16
    llm_max_attempts: int = 3
    llm_retry_base_delay: float = 0.05
    llm_retry_max_delay: float = 2.0
    llm_retry_jitter: float = 0.5
    llm_call_timeout: float | None = None
    llm_retry_budget_s: float | None = None

    def validate(self) -> None:
        """Raise :class:`PipelineError` on inconsistent settings."""
        if self.num_candidates < 1:
            raise PipelineError("num_candidates must be at least 1")
        if self.top_k_examples < 0:
            raise PipelineError("top_k_examples cannot be negative")
        if self.batch_size < 1:
            raise PipelineError("batch_size must be at least 1")
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

    def to_dict(self) -> dict:
        """JSON-safe representation (journal / snapshot serialisation)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, state: dict) -> "TaskConfig":
        """Rebuild a configuration from :meth:`to_dict` output.

        Unknown keys are ignored so journals written by newer versions stay
        replayable by older code, and vice versa missing keys fall back to
        defaults.
        """
        known = {field.name for field in fields(cls)}
        return cls(**{key: value for key, value in state.items() if key in known})

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
            f"sql_to_nl with {self.model_name}, {self.num_candidates} candidates"
            f" [{', '.join(features) or 'no assistance'}]"
        )
