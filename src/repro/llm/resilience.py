"""The drain deadline for the LLM tier.

:class:`Deadline` is a monotonic-clock budget carried from
``AnnotationService.drain(deadline=...)`` through scheduler rounds into
every LLM call, shrinking per-call timeouts so a drain never overshoots the
time it was given.  It is clock-injectable so the resilience suite can step
virtual time.

The bounds on an LLM call are retries with backoff (``RetryPolicy``), the
per-call timeout and this deadline; work the deadline cuts is deferred, not
failed.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.errors import PipelineError

__all__ = ["Deadline"]


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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining():.3f}s of {self.budget:.3f}s)"
