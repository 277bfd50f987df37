"""Round-based wave scheduler: the one drain path of the annotation service.

Every :meth:`~repro.core.service.AnnotationService.drain` hands its
projects' :class:`~repro.core.pipeline.WaveRun` steppers to a
:class:`WaveScheduler`, which advances *every* project with pending work one
wave per round.  With one worker (or a single active project) the rounds run
inline on the calling thread; with more, each round's waves go through a
bounded thread pool so the slow part of a wave — the batched LLM call —
overlaps across tenants, while each tenant's own waves still run strictly in
order on a single thread at a time.  Both modes share the same round
barrier, so deadline and wave accounting are identical at every
concurrency.

Correctness argument, in brief:

* Per-project pipeline state (retriever, example store, embedding model,
  default LLM client) is thread-confined — a project's
  :class:`~repro.core.pipeline.WaveRun` is only ever advanced by one worker
  at a time, and never before its previous wave returned.  Each project
  therefore sees exactly the wave sequence of a sequential
  ``annotate_many`` run, which is what makes per-project results
  bit-identical however the drain is scheduled.
* Shared mutable state is limited to the event journal (appends serialized
  by its internal lock, so the CRC-framed record stream interleaves only at
  whole-record boundaries) and :class:`~repro.llm.base.UsageStats` when one
  LLM client backs several projects (its counters are lock-guarded).
* The round barrier gives fairness: no tenant can get more than one wave
  ahead of another, so a hot tenant with a deep queue cannot starve the
  rest of pool slots.
* The round barrier is also the one place scheduling decisions are made:
  no round starts after the drain deadline expired.  Retired and unfinished
  runs keep their settled outcomes for the caller to settle.

Failure semantics: a run isolates its own failing statements (see
:meth:`~repro.core.pipeline.WaveRun.run_next_wave`), so a wave raises only a
deferral signal or a fatal error.  The deferral signal
(:class:`~repro.errors.DeadlineExceededError`) retires only that project;
anything else — :class:`~repro.errors.JournalError`, ``BaseException`` such
as injected crashes — is fatal and re-raised, in the pool only after every
wave of the current round has settled, so no worker thread is left running
against a half-torn-down service.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from typing import Callable

from repro.core.pipeline import WaveRun
from repro.errors import DeadlineExceededError, PipelineError
from repro.llm.resilience import Deadline
from repro.obs import NULL_TELEMETRY, Telemetry

__all__ = ["WaveScheduler"]


class WaveScheduler:
    """Drive many projects' :class:`WaveRun` steppers fairly, round by round.

    ``max_workers`` bounds how many waves are in flight simultaneously; with
    more active projects than workers, the pool queues the excess within the
    round (the barrier still holds).  ``max_workers == 1`` runs every round
    inline, without a pool.
    """

    def __init__(
        self, max_workers: int = 4, telemetry: Telemetry | None = None
    ) -> None:
        if max_workers < 1:
            raise PipelineError("scheduler max_workers must be at least 1")
        self.max_workers = max_workers
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Rounds executed by the most recent :meth:`run_all` call.
        self.rounds = 0

    def run_all(self, runs: dict[str, WaveRun], deadline: Deadline | None = None) -> None:
        """Advance every run to completion, or until it has to be deferred.

        Each round advances every still-active project by one
        ``run_next_wave`` and waits for all of them before starting the next
        round.  The rounds run inline on the calling thread when there is
        one worker or only one active run, and through a thread pool
        otherwise.  A project whose wave raises a deferral signal is retired
        (its settled outcomes are untouched); any other error is fatal and
        re-raised.

        With a ``deadline``, no new round starts once the budget has expired
        (checked at every round barrier, before the first wave and between
        waves); the unfinished runs are left for the caller to defer (each
        run's committed prefix is intact).  The deadline also rides inside
        every wave (via :attr:`WaveRun.deadline`), shrinking per-call LLM
        timeouts, so the in-flight round itself cannot overshoot by more than
        the budget's remaining slice.
        """
        self.rounds = 0
        active = {project: run for project, run in runs.items() if not run.done}
        if self.max_workers == 1 or len(active) <= 1:
            executor = nullcontext(_InlineExecutor())
        else:
            executor = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="wave"
            )
        tel = self.telemetry
        with executor as pool:
            while active:
                if deadline is not None and deadline.expired:
                    if tel.enabled:
                        tel.count("scheduler_deadline_stops_total")
                        tel.event(
                            "scheduler_deadline_stop",
                            unfinished_projects=len(active),
                        )
                    break
                self.rounds += 1
                if tel.enabled:
                    tel.count("scheduler_rounds_total")
                    tel.observe_size("scheduler_round_active_projects", len(active))
                futures = [
                    (project, pool.submit(active[project].run_next_wave))
                    for project in list(active)
                ]
                fatal: BaseException | None = None
                for project, future in futures:
                    try:
                        future.result()
                    except DeadlineExceededError:
                        del active[project]
                    except BaseException as exc:  # journal errors, injected crashes
                        fatal = fatal if fatal is not None else exc
                        del active[project]
                    else:
                        if active[project].done:
                            del active[project]
                if fatal is not None:
                    raise fatal


class _InlineExecutor:
    """Runs each submitted wave at once on the calling thread.

    The deferral signal is parked in the returned future, as a pool would;
    fatal errors propagate immediately, since on one thread no other wave is
    in flight that would have to settle first.
    """

    def submit(self, fn: Callable[[], object]) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn())
        except DeadlineExceededError as exc:
            future.set_exception(exc)
        return future
