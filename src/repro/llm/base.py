"""LLM client abstraction.

BenchPress lets users choose a language model for candidate generation
(paper step 3: GPT-4o, GPT-3.5 Turbo, or DeepSeek).  The reproduction keeps
that seam: :class:`LLMClient` is the interface, and
:class:`repro.llm.simulated.SimulatedLLM` is the offline implementation whose
behaviour is parameterised per model profile.
"""

from __future__ import annotations

import abc
import hashlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    LLMTimeoutError,
    TransientLLMError,
)
from repro.llm.prompts import Prompt
from repro.llm.resilience import CircuitBreaker, Deadline
from repro.obs import NULL_TELEMETRY, Telemetry

_T = TypeVar("_T")


def is_transient_error(exc: BaseException) -> bool:
    """Classify an LLM-call failure as retryable or terminal.

    Transient: explicit :class:`~repro.errors.TransientLLMError` (and its
    timeout subclass), OS-level connection/timeout failures, and any exception
    carrying a truthy ``transient`` attribute (the escape hatch for backend
    SDK exception types the library does not know about).  Everything else —
    bad prompts, parse errors, programming bugs — fails fast.
    """
    if isinstance(exc, (TransientLLMError, ConnectionError, TimeoutError)):
        return True
    return bool(getattr(exc, "transient", False))


def _join_salt(prefix: str, base: str) -> str:
    """Combine a caller-supplied jitter salt (e.g. a project name) with the
    call-derived one."""
    return f"{prefix}|{base}" if prefix else base


def _stable_unit(*parts: object) -> float:
    """Deterministic pseudo-random number in [0, 1) derived from the inputs."""
    digest = hashlib.blake2b(
        "|".join(str(part) for part in parts).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered-exponential retry/backoff/timeout discipline for LLM calls.

    Attributes:
        max_attempts: Total attempts per call (1 disables retries).
        base_delay: Backoff before the first retry, in seconds.
        max_delay: Ceiling on the exponential backoff.
        jitter: Fraction of each delay randomised away (0..1).  Jitter is
            *deterministic* given (salt, attempt) so reruns of the same
            workload back off identically — the same reproducibility contract
            as the simulated LLM itself.
        call_timeout: Per-call wall-clock budget in seconds (``None`` = no
            limit).  Timeouts are enforced by running the call on a worker
            thread; an abandoned call may still run to completion in the
            background, but the caller regains control at the deadline.
        retry_budget_s: Total elapsed-time cap across *all* attempts and
            backoff sleeps of one logical call (``None`` = no cap).  With a
            high ``max_attempts`` the worst-case sleep of plain jittered
            backoff is unbounded in practice; the budget guarantees a call
            gives up (re-raising the last transient error) once it has spent
            its share of the caller's time, instead of sleeping past it.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    call_timeout: float | None = None
    retry_budget_s: float | None = None

    def delay(self, attempt: int, salt: str = "") -> float:
        """Backoff before retry ``attempt`` (0-based), jitter applied."""
        raw = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        if self.jitter <= 0.0 or raw <= 0.0:
            return raw
        return raw * (1.0 - self.jitter * _stable_unit("retry", salt, attempt))


@dataclass
class GenerationResult:
    """Candidates returned by an LLM call."""

    candidates: list[str]
    model_name: str
    prompt_tokens: int = 0
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def best(self) -> str:
        """The first (highest-ranked) candidate."""
        return self.candidates[0] if self.candidates else ""


@dataclass
class UsageStats:
    """Per-model accounting of generation traffic.

    ``requests`` counts API round trips, so a batched call that processes
    twenty prompts adds twenty to ``prompts`` but only one to ``requests`` —
    the ratio is exactly the amortisation a batch endpoint buys.

    Mutation is thread-safe: one LLM client (and therefore one tracker) may
    serve several projects whose waves are drained concurrently, so
    :meth:`record` and :meth:`merge` hold an internal lock while they bump
    the counters.  Reads are plain attribute access — individual fields are
    always internally consistent, and callers that need a consistent
    cross-field view should read while no drain is in flight.
    """

    model_name: str = ""
    requests: int = 0
    batches: int = 0
    prompts: int = 0
    prompt_tokens: int = 0
    candidates: int = 0
    latency_seconds: float = 0.0

    def __post_init__(self) -> None:
        # Not a dataclass field: locks are process-local and must never leak
        # into asdict()/serialised views of the stats.
        self._lock = threading.Lock()

    def record(
        self,
        prompts: int,
        prompt_tokens: int,
        candidates: int,
        latency_seconds: float,
        batched: bool = False,
    ) -> None:
        """Fold one generation call (single or batched) into the totals."""
        with self._lock:
            self.requests += 1
            self.prompts += prompts
            self.prompt_tokens += prompt_tokens
            self.candidates += candidates
            self.latency_seconds += latency_seconds
            if batched:
                self.batches += 1

    def merge(self, other: "UsageStats") -> None:
        """Accumulate another tracker's totals into this one."""
        with self._lock:
            self.requests += other.requests
            self.batches += other.batches
            self.prompts += other.prompts
            self.prompt_tokens += other.prompt_tokens
            self.candidates += other.candidates
            self.latency_seconds += other.latency_seconds

    def mark_batch(self) -> None:
        """Count one batch-shaped call without touching the request totals."""
        with self._lock:
            self.batches += 1

    @property
    def mean_batch_size(self) -> float:
        """Average prompts per request (1.0 for a purely sequential client)."""
        return self.prompts / self.requests if self.requests else 0.0

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view for reports and service stats."""
        return {
            "model_name": self.model_name,
            "requests": self.requests,
            "batches": self.batches,
            "prompts": self.prompts,
            "prompt_tokens": self.prompt_tokens,
            "candidates": self.candidates,
            "latency_seconds": self.latency_seconds,
        }


#: Guards lazy creation of per-client usage trackers under concurrent drains.
_USAGE_INIT_LOCK = threading.Lock()


class LLMClient(abc.ABC):
    """Interface every candidate-generation backend implements."""

    name: str = "llm"

    #: Observability sink for the retry/timeout/token accounting on the
    #: ``*_with_retry`` entry points.  A class-level no-op default means
    #: existing subclasses need no ``__init__`` changes; services overwrite
    #: it per instance when telemetry is enabled.
    telemetry: Telemetry = NULL_TELEMETRY

    #: Whether :meth:`generate` output depends on the *content* of the few-shot
    #: examples in the prompt (and not just on how many there are).  Batch
    #: schedulers use this to decide how strictly a speculatively-generated
    #: result must be re-validated after the example archive has grown: a
    #: ``False`` here lets them revalidate on example count alone.  Leave
    #: ``True`` unless the implementation provably ignores example text.
    example_content_sensitive: bool = True

    @property
    def usage(self) -> UsageStats:
        """Aggregated token/latency accounting for this client.

        Created lazily so existing subclasses need no ``__init__`` changes.
        The double-checked creation is guarded by a class-level lock so two
        threads racing the first access share one tracker.
        """
        stats = getattr(self, "_usage_stats", None)
        if stats is None:
            with _USAGE_INIT_LOCK:
                stats = getattr(self, "_usage_stats", None)
                if stats is None:
                    stats = UsageStats(model_name=self.name)
                    self._usage_stats = stats
        return stats

    @abc.abstractmethod
    def generate(self, prompt: Prompt) -> GenerationResult:
        """Generate ``prompt.num_candidates`` natural-language candidates."""

    def generate_batch(self, prompts: list[Prompt]) -> list[GenerationResult]:
        """Generate candidates for several prompts in one logical call.

        The default falls back to sequential :meth:`generate` calls so every
        backend supports the batch entry point; backends with a real batch
        API (or work worth amortising) should override it.  Results are
        positionally aligned with ``prompts``.

        Accounting convention: :meth:`generate` implementations record their
        own per-request usage, so the fallback leaves ``requests`` to them
        (a fallback "batch" of twenty prompts really is twenty round trips)
        and only marks that a batch-shaped call happened.
        """
        results = [self.generate(prompt) for prompt in prompts]
        self.usage.mark_batch()
        return results

    # ------------------------------------------------------------------
    # resilience wrappers
    # ------------------------------------------------------------------

    def generate_with_retry(
        self,
        prompt: Prompt,
        policy: RetryPolicy | None = None,
        salt: str = "",
        deadline: Deadline | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> GenerationResult:
        """:meth:`generate` hardened with retry/backoff/timeout.

        Transient failures (see :func:`is_transient_error`) are retried up to
        ``policy.max_attempts`` times with jittered exponential backoff;
        terminal errors and exhausted retries propagate.  With no policy this
        is exactly :meth:`generate`.

        ``salt`` namespaces the deterministic backoff jitter (callers pass
        their tenant/project name): when several tenants hit the same
        transient backend error on the same SQL at the same moment, distinct
        salts spread their retries apart instead of letting the whole fleet
        hammer the backend again in lockstep.

        ``deadline`` shrinks the per-call timeout so the attempt sequence
        cannot outlive the caller's drain budget; ``breaker`` fast-fails with
        :class:`~repro.errors.CircuitOpenError` while its backend is
        considered down.
        """
        result = self._resilient_call(
            lambda: self.generate(prompt),
            policy,
            salt=_join_salt(salt, prompt.sql),
            deadline=deadline,
            breaker=breaker,
        )
        tel = self.telemetry
        if tel.enabled:
            tel.count("llm_requests_total", model=self.name)
            tel.count(
                "llm_prompt_tokens_total", result.prompt_tokens, model=self.name
            )
        return result

    def generate_batch_with_retry(
        self,
        prompts: list[Prompt],
        policy: RetryPolicy | None = None,
        salt: str = "",
        deadline: Deadline | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> list[GenerationResult]:
        """:meth:`generate_batch` hardened with retry/backoff/timeout.

        ``salt`` de-synchronises backoff across tenants exactly as in
        :meth:`generate_with_retry`; ``deadline`` and ``breaker`` behave
        identically too.
        """
        base = prompts[0].sql if prompts else ""
        results = self._resilient_call(
            lambda: self.generate_batch(prompts),
            policy,
            salt=_join_salt(salt, f"batch:{len(prompts)}:{base}"),
            deadline=deadline,
            breaker=breaker,
        )
        tel = self.telemetry
        if tel.enabled:
            tel.count("llm_requests_total", model=self.name)
            tel.count(
                "llm_prompt_tokens_total",
                sum(result.prompt_tokens for result in results),
                model=self.name,
            )
        return results

    def _resilient_call(
        self,
        call: Callable[[], _T],
        policy: RetryPolicy | None,
        salt: str,
        deadline: Deadline | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> _T:
        tel = self.telemetry

        def breaker_gate() -> None:
            # Checked before *every* attempt, not just the first: a breaker
            # tripped by an earlier attempt in this very retry loop must stop
            # the remaining attempts (fast-fail into deferral) instead of
            # letting them burn the attempt budget into a terminal error.
            if breaker is not None and not breaker.allow():
                if tel.enabled:
                    tel.count("llm_breaker_fastfail_total", model=self.name)
                raise CircuitOpenError(
                    f"circuit breaker for {self.name!r} is open; call fast-failed"
                )

        breaker_gate()
        if policy is None and deadline is None and breaker is None:
            if not tel.enabled:
                return call()
            started = time.perf_counter()
            result = call()
            tel.observe(
                "llm_call_seconds", time.perf_counter() - started, model=self.name
            )
            return result

        attempts = policy.max_attempts if policy is not None else 1
        call_timeout = policy.call_timeout if policy is not None else None
        budget = (
            Deadline(policy.retry_budget_s)
            if policy is not None and policy.retry_budget_s is not None
            else None
        )
        started = time.perf_counter() if tel.enabled else 0.0
        for attempt in range(attempts):
            if attempt > 0:
                breaker_gate()
            timeout, clamped = self._effective_timeout(
                call_timeout, deadline, budget, tel
            )
            try:
                result = self._call_with_timeout(call, timeout)
            except Exception as exc:
                if isinstance(exc, LLMTimeoutError):
                    if tel.enabled:
                        tel.count("llm_timeouts_total", model=self.name)
                    if clamped:
                        # The timeout that cut this call was the *deadline's*,
                        # not the per-call policy's: the backend was given less
                        # than its usual budget, so don't blame it (no breaker
                        # failure) — report deadline exhaustion instead.
                        if tel.enabled:
                            tel.count("llm_deadline_exhausted_total", model=self.name)
                        raise DeadlineExceededError(
                            f"LLM call on {self.name!r} was cut at the caller's "
                            f"deadline ({timeout:.3f}s remaining)"
                        ) from exc
                if breaker is not None:
                    breaker.record_failure()
                if not is_transient_error(exc) or attempt + 1 >= attempts:
                    if tel.enabled:
                        tel.count(
                            "llm_errors_total",
                            model=self.name,
                            error_type=type(exc).__name__,
                        )
                    raise
                delay = policy.delay(attempt, salt)
                if not self._delay_fits(delay, deadline, budget):
                    if tel.enabled:
                        tel.count("llm_retry_budget_exhausted_total", model=self.name)
                    raise
                if tel.enabled:
                    tel.count("llm_retries_total", model=self.name)
                    tel.observe("llm_backoff_seconds", delay, model=self.name)
                if delay > 0:
                    time.sleep(delay)
            else:
                if breaker is not None:
                    breaker.record_success()
                if tel.enabled:
                    tel.observe(
                        "llm_call_seconds",
                        time.perf_counter() - started,
                        model=self.name,
                    )
                return result
        raise AssertionError("unreachable: retry loop returns or raises")

    def _effective_timeout(
        self,
        call_timeout: float | None,
        deadline: Deadline | None,
        budget: Deadline | None,
        tel: Telemetry,
    ) -> tuple[float | None, bool]:
        """Shrink the per-call timeout under the deadline/retry budget.

        Returns ``(timeout, clamped)`` where ``clamped`` records that the
        deadline (not the policy) is the binding constraint; raises
        :class:`DeadlineExceededError` when no time is left at all.
        """
        timeout = call_timeout
        clamped = False
        for bound in (deadline, budget):
            if bound is None:
                continue
            remaining = bound.remaining()
            if remaining <= 0:
                if tel.enabled:
                    tel.count("llm_deadline_exhausted_total", model=self.name)
                raise DeadlineExceededError(
                    f"no time remaining to call {self.name!r} "
                    f"(deadline budget exhausted)"
                )
            if timeout is None or remaining < timeout:
                timeout = remaining
                clamped = True
        return timeout, clamped

    @staticmethod
    def _delay_fits(
        delay: float, deadline: Deadline | None, budget: Deadline | None
    ) -> bool:
        """Whether a backoff sleep still fits inside every active budget."""
        for bound in (deadline, budget):
            if bound is not None and delay >= bound.remaining():
                return False
        return True

    # -- timed execution ----------------------------------------------

    def _call_with_timeout(self, call: Callable[[], _T], timeout: float | None) -> _T:
        if timeout is None:
            return call()
        executor = self._executor()
        future = executor.submit(call)
        try:
            return future.result(timeout)
        except _FutureTimeout:
            future.cancel()
            raise LLMTimeoutError(
                f"LLM call on {self.name!r} exceeded its {timeout:.3f}s budget"
            ) from None

    def _executor(self) -> ThreadPoolExecutor:
        """Lazily-created worker pool for timed calls."""
        executor = getattr(self, "_timeout_executor", None)
        if executor is None:
            executor = ThreadPoolExecutor(
                max_workers=2, thread_name_prefix=f"{self.name}-llm-timeout"
            )
            self._timeout_executor = executor
        return executor

    @abc.abstractmethod
    def backtranslate(self, description: str, schema_text: str = "") -> str | None:
        """Regenerate SQL from an NL description (vanilla, no examples).

        Returns ``None`` when no SQL can be produced at all.
        """


@dataclass(frozen=True)
class ModelProfile:
    """Behavioural parameters of one simulated model.

    Attributes:
        name: Model identifier shown in task configuration.
        base_fidelity: Baseline probability that a query fact survives into a
            generated description when no context is provided.
        context_boost: Additional fidelity when relevant schema tables are in
            the prompt.
        example_boost: Additional fidelity (at full few-shot budget) from
            retrieved prior annotations.
        knowledge_boost: Maximum additional fidelity from injected domain
            knowledge (scaled by knowledge coverage of the query).
        complexity_sensitivity: How strongly query complexity erodes fidelity.
        backtranslation_skill: Entity-disambiguation skill used when acting as
            the backtranslation model.
    """

    name: str
    base_fidelity: float = 0.72
    context_boost: float = 0.14
    example_boost: float = 0.08
    knowledge_boost: float = 0.12
    complexity_sensitivity: float = 1.0
    backtranslation_skill: float = 0.8


#: Profiles for the models the paper's task-configuration step offers.
MODEL_PROFILES: dict[str, ModelProfile] = {
    "gpt-4o": ModelProfile(
        name="gpt-4o",
        base_fidelity=0.78,
        context_boost=0.16,
        example_boost=0.09,
        knowledge_boost=0.14,
        complexity_sensitivity=0.9,
        backtranslation_skill=0.9,
    ),
    "gpt-3.5-turbo": ModelProfile(
        name="gpt-3.5-turbo",
        base_fidelity=0.66,
        context_boost=0.13,
        example_boost=0.07,
        knowledge_boost=0.10,
        complexity_sensitivity=1.15,
        backtranslation_skill=0.7,
    ),
    "deepseek": ModelProfile(
        name="deepseek",
        base_fidelity=0.74,
        context_boost=0.15,
        example_boost=0.08,
        knowledge_boost=0.12,
        complexity_sensitivity=1.0,
        backtranslation_skill=0.85,
    ),
}


def get_profile(name: str) -> ModelProfile:
    """Look up a model profile, falling back to a generic mid-tier profile."""
    return MODEL_PROFILES.get(name.lower(), ModelProfile(name=name))
