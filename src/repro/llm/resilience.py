"""Fault-domain hardening primitives for the LLM tier.

Two cooperating pieces, both deterministic and clock-injectable so the
chaos/resilience suites can drive them without real time passing:

* :class:`Deadline` — a monotonic-clock budget carried from
  ``AnnotationService.drain(deadline=...)`` through scheduler rounds into
  every LLM call, shrinking per-call timeouts so a drain never overshoots
  the time it was given.
* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine over a rolling failure-rate window.  While open, calls fast-fail
  with :class:`~repro.errors.CircuitOpenError` instead of burning the retry
  budget against a backend that is known to be down; after a recovery
  period a bounded *probe budget* of trial calls decides whether to close
  again.

The degradation ladder the service builds out of these: retry (transient
error, backoff) → breaker-open defer (dead backend, re-queue the project's
jobs) → journaled-read-only degraded mode (dead disk, stop mutating but
keep serving reads).
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.errors import PipelineError

__all__ = ["CircuitBreaker", "Deadline"]

#: Breaker state names (also the label values telemetry exposes).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class Deadline:
    """A fixed point in monotonic time that work must finish by.

    Cheap, immutable-after-construction and safe to share across the worker
    threads of a concurrent drain: every reader just compares against the
    clock.  ``clock`` is injectable so tests can step virtual time.
    """

    __slots__ = ("_expires_at", "_clock", "budget")

    def __init__(
        self, seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if seconds < 0:
            raise PipelineError("deadline budget cannot be negative")
        self._clock = clock
        self.budget = float(seconds)
        self._expires_at = clock() + seconds

    @classmethod
    def coerce(
        cls, value: "Deadline | float | int | None"
    ) -> "Deadline | None":
        """Accept ``None``, a seconds budget, or an existing deadline."""
        if value is None or isinstance(value, Deadline):
            return value
        return cls(float(value))

    def remaining(self) -> float:
        """Seconds left before expiry (never negative)."""
        return max(0.0, self._expires_at - self._clock())

    @property
    def expired(self) -> bool:
        """Whether the deadline has passed."""
        return self._clock() >= self._expires_at

    def clamp(self, timeout: float | None) -> float:
        """Shrink a per-call timeout so it cannot outlive the deadline."""
        remaining = self.remaining()
        if timeout is None:
            return remaining
        return min(timeout, remaining)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining():.3f}s of {self.budget:.3f}s)"


class CircuitBreaker:
    """Per-backend closed → open → half-open breaker with a rate window.

    * **closed** — calls flow; the last ``window`` outcomes are kept and the
      breaker trips open once at least ``min_calls`` of them exist and the
      failure fraction reaches ``failure_rate``.
    * **open** — calls are refused (:meth:`allow` is ``False``) until
      ``recovery_timeout`` seconds have passed since the trip.
    * **half-open** — up to ``probe_budget`` trial calls are admitted; that
      many consecutive successes close the breaker (window cleared), any
      failure re-opens it and restarts the recovery clock.

    All transitions run under an internal lock, so one breaker may guard a
    client shared by several drain workers.  ``on_transition(old, new)`` is
    invoked (outside the hot path but inside the lock) for telemetry.
    """

    def __init__(
        self,
        window: int = 16,
        failure_rate: float = 0.5,
        min_calls: int = 4,
        recovery_timeout: float = 1.0,
        probe_budget: int = 1,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[[str, str], None] | None = None,
    ) -> None:
        if window < 1:
            raise PipelineError("breaker window must be at least 1")
        if not 0.0 < failure_rate <= 1.0:
            raise PipelineError("breaker failure_rate must be within (0, 1]")
        if min_calls < 1:
            raise PipelineError("breaker min_calls must be at least 1")
        if recovery_timeout < 0:
            raise PipelineError("breaker recovery_timeout cannot be negative")
        if probe_budget < 1:
            raise PipelineError("breaker probe_budget must be at least 1")
        self.window = window
        self.failure_rate = failure_rate
        self.min_calls = min_calls
        self.recovery_timeout = recovery_timeout
        self.probe_budget = probe_budget
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CLOSED
        self._outcomes: list[bool] = []  # True = failure, bounded by window
        self._opened_at = 0.0
        self._probes_issued = 0
        self._probe_successes = 0
        #: Lifetime transition/outcome accounting (reads are unlocked).
        self.opens = 0
        self.fast_fails = 0

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state name, advancing open → half-open when due."""
        with self._lock:
            self._maybe_enter_half_open()
            return self._state

    def would_allow(self) -> bool:
        """Whether :meth:`allow` would admit a call — without consuming a
        half-open probe slot.  The service uses this to decide up front
        whether a project's waves should even be scheduled."""
        with self._lock:
            self._maybe_enter_half_open()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN:
                return self._probes_issued < self.probe_budget
            return False

    def allow(self) -> bool:
        """Admit or refuse one call (refusals bump ``fast_fails``)."""
        with self._lock:
            self._maybe_enter_half_open()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and self._probes_issued < self.probe_budget:
                self._probes_issued += 1
                return True
            self.fast_fails += 1
            return False

    def record_success(self) -> None:
        """Fold a successful call outcome into the breaker."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.probe_budget:
                    self._outcomes.clear()
                    self._transition(CLOSED)
            elif self._state == CLOSED:
                self._push_outcome(False)

    def record_failure(self) -> None:
        """Fold a failed call outcome into the breaker (may trip it)."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._trip()
            elif self._state == CLOSED:
                self._push_outcome(True)
                failures = sum(self._outcomes)
                if (
                    len(self._outcomes) >= self.min_calls
                    and failures / len(self._outcomes) >= self.failure_rate
                ):
                    self._trip()

    # ------------------------------------------------------------------
    # internals (all called with the lock held)
    # ------------------------------------------------------------------

    def _push_outcome(self, failed: bool) -> None:
        self._outcomes.append(failed)
        if len(self._outcomes) > self.window:
            del self._outcomes[0]

    def _trip(self) -> None:
        self._opened_at = self._clock()
        self.opens += 1
        self._transition(OPEN)

    def _maybe_enter_half_open(self) -> None:
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.recovery_timeout
        ):
            self._probes_issued = 0
            self._probe_successes = 0
            self._transition(HALF_OPEN)

    def _transition(self, new_state: str) -> None:
        old_state = self._state
        if old_state == new_state:
            return
        self._state = new_state
        if self._on_transition is not None:
            self._on_transition(old_state, new_state)

