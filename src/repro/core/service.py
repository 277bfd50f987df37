"""Queue-style annotation service over the batched pipeline.

The :class:`AnnotationService` is the throughput-oriented facade of the
reproduction: callers *submit* SQL statements (for one or several projects)
and later *drain* the queue, which schedules everything through each
project's :class:`~repro.core.pipeline.AnnotationPipeline` wave scheduler —
vectorized retrieval, one batched LLM call per wave, and per-query commits so
the growing-archive effect is preserved.  It models the server side of
BenchPress under heavy multi-user load, where annotation requests arrive
faster than they are processed.

One drain path.  Every drain hands one
:class:`~repro.core.pipeline.WaveRun` per project to a
:class:`~repro.core.scheduler.WaveScheduler`, which advances every project
one wave per round; the sequential drain is simply that scheduler with one
inline worker, as is any single-project drain.  With ``max_concurrency > 1`` (or ``drain(concurrency=...)``)
the rounds run through a bounded worker pool, so independent projects'
batched LLM calls overlap instead of queueing behind each other.  The
deadline check happens at the round barrier, and every project is settled
the same way afterwards, so per-project records, the returned jobs, the
drain report and the wave accounting are identical at every concurrency.
There is one queue: every submit is admitted in order, and
:meth:`AnnotationService.pending_jobs` gives one project's view of it.
:class:`ServiceStats` keeps a lock-guarded per-tenant breakdown.

Durability.  The service can run on top of an append-only
:class:`~repro.core.journal.EventJournal`: every state change (project
registered, job submitted, annotation committed, job failed) is journaled at
its commit point, and :meth:`AnnotationService.recover` rebuilds the exact
in-memory state by replaying the journal — optionally warm-starting from the
newest :class:`~repro.core.snapshot.SnapshotManager` checkpoint and replaying
only the journal suffix.  Jobs follow at-least-once semantics: a job stays
pending until its ``annotation_committed`` (or ``job_failed``) event is on
disk, so a crash mid-drain re-queues exactly the jobs whose commits were
lost.

Fault isolation.  One failing job does not poison a drain.  Each
project's :class:`~repro.core.pipeline.WaveRun` isolates its own failures:
when a wave raises, the commits it made stand, the rest of the run goes one
statement per wave (a size-1 wave commits exactly what the batched wave
would have), and a statement that fails in one of those isolation waves is
parked.
The drain settles each job from its run's outcome: a parked failure is
quarantined as a failed :class:`CompletedJob` with its error — journaled,
counted in :attr:`ServiceStats.failed`, never silently dropped.
"""

from __future__ import annotations

import threading
import time
import traceback as traceback_module
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.core.config import TaskConfig
from repro.core.journal import (
    ANNOTATION_COMMITTED,
    DRAIN_STATS,
    FEEDBACK_APPLIED,
    JOB_FAILED,
    JOB_SUBMITTED,
    PROJECT_REGISTERED,
    EventJournal,
    JournalEvent,
)
from repro.core.pipeline import (
    AnnotationPipeline,
    AnnotationRecord,
    WaveRun,
    WaveStats,
)
from repro.core.snapshot import (
    SnapshotManager,
    capture_pipeline_state,
    restore_pipeline_state,
    schema_from_state,
    schema_to_state,
)
from repro.core.feedback import Feedback
from repro.core.scheduler import WaveScheduler
from repro.errors import (
    DegradedModeError,
    DiskFaultError,
    JournalError,
    PipelineError,
    SnapshotError,
)
from repro.llm.base import LLMClient, UsageStats
from repro.llm.resilience import Deadline
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.retrieval.example_store import is_stale_skeleton
from repro.schema.model import DatabaseSchema

#: Optional factory recreating custom LLM clients during recovery, keyed by
#: project name; return ``None`` to use the default simulated client.
LLMFactory = Callable[[str], "LLMClient | None"]

#: Quarantined tracebacks are truncated to this many characters (keeping the
#: tail, where the raise site is) before being stored and journaled.
MAX_TRACEBACK_CHARS = 2000


def format_quarantine_traceback(exc: BaseException) -> str:
    """Render ``exc``'s traceback, truncated to :data:`MAX_TRACEBACK_CHARS`."""
    rendered = "".join(
        traceback_module.format_exception(type(exc), exc, exc.__traceback__)
    )
    if len(rendered) > MAX_TRACEBACK_CHARS:
        rendered = "... (truncated)\n" + rendered[-MAX_TRACEBACK_CHARS:]
    return rendered


@dataclass
class AnnotationJob:
    """One queued annotation request."""

    job_id: int
    project: str
    sql: str
    query_id: str | None = None

    @classmethod
    def from_state(cls, state: dict) -> "AnnotationJob":
        """Rebuild a job from its journaled or snapshotted fields.

        Other keys are ignored: older builds also wrote a ``priority``.
        """
        return cls(
            job_id=state["job_id"],
            project=state["project"],
            sql=state["sql"],
            query_id=state["query_id"],
        )


@dataclass
class CompletedJob:
    """A drained job together with the record it produced.

    ``record`` is ``None`` — and ``error`` holds the reason — when the job
    failed and was quarantined instead of annotated.
    """

    job: AnnotationJob
    record: AnnotationRecord | None
    error: str = ""
    #: Exception class name for failed jobs (``""`` on success) — lets the
    #: quarantine counters break failures down by cause.
    error_type: str = ""
    #: Truncated traceback of the failure (``""`` on success).
    traceback: str = ""

    @property
    def failed(self) -> bool:
        """Whether this job ended in quarantine rather than an annotation."""
        return self.record is None


def _failed_job(job: AnnotationJob, exc: Exception) -> CompletedJob:
    """The quarantine entry for a job whose statement raised ``exc``."""
    return CompletedJob(
        job=job,
        record=None,
        error=f"{type(exc).__name__}: {exc}",
        error_type=type(exc).__name__,
        traceback=format_quarantine_traceback(exc),
    )


def _job_outcomes(
    by_project: dict[str, list[AnnotationJob]], runs: dict[str, WaveRun]
) -> Iterator[tuple[AnnotationJob, AnnotationRecord | Exception | None]]:
    """Each drained job with its run's outcome (``None`` while unsettled).

    Projects come in first-submission order, jobs in submission order within
    each, so job and outcome pair by position.
    """
    for project, jobs in by_project.items():
        outcomes = runs[project].outcomes
        for index, job in enumerate(jobs):
            yield job, outcomes[index] if index < len(outcomes) else None


def _failure_payload(failed: CompletedJob) -> dict:
    """The journaled ``job_failed`` event of one quarantined job."""
    job = failed.job
    return {
        "job_id": job.job_id,
        "project": job.project,
        "sql": job.sql,
        "query_id": job.query_id,
        "error": failed.error,
        "error_type": failed.error_type,
        "traceback": failed.traceback,
    }


@dataclass
class ProjectStats:
    """Per-tenant slice of the service accounting.

    ``deferred`` counts deferral *events* (a job deferred twice counts
    twice); deferred jobs stay pending, so it does not enter the
    :attr:`pending` arithmetic.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    deferred: int = 0

    @property
    def pending(self) -> int:
        """This tenant's jobs submitted but not yet drained (or quarantined)."""
        return self.submitted - self.completed - self.failed


@dataclass
class DrainReport:
    """Degradation-aware summary of one :meth:`AnnotationService.drain` call.

    Stored as :attr:`AnnotationService.last_drain_report` after every drain.
    ``deferred`` jobs were re-queued (deadline expired, or a disk fault
    mid-drain) — not failed; a later drain will pick them up.
    """

    completed: int = 0
    failed: int = 0
    deferred: int = 0
    deadline_expired: bool = False
    degraded: bool = False
    duration_seconds: float = 0.0


@dataclass
class ServiceStats:
    """Aggregate accounting across every drain.

    Counter mutations go through the ``note_*`` methods, which serialize
    updates under an internal lock and keep the per-tenant breakdown in
    :attr:`per_project` consistent with the global totals — safe to read
    from monitoring threads while a concurrent drain is in flight.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    #: Deferral events across drains (deadline / disk-fault re-queues).  An
    #: operational counter: snapshots carry it, but journal replay does not
    #: reconstruct it (deferred jobs are simply still queued).
    deferred: int = 0
    waves: int = 0
    batched_queries: int = 0
    regenerated_queries: int = 0
    #: LLM round trips observed across drains (journaled per drain, so the
    #: counter survives crash/recover like the other drain accounting).
    llm_requests: int = 0
    usage_by_model: dict[str, UsageStats] = field(default_factory=dict)
    per_project: dict[str, ProjectStats] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Not a dataclass field so serialisation helpers never see it.
        self._lock = threading.Lock()

    @property
    def pending(self) -> int:
        """Jobs submitted but not yet drained (or quarantined)."""
        return self.submitted - self.completed - self.failed

    def project(self, name: str) -> ProjectStats:
        """The (created-on-demand) per-tenant counters for one project."""
        with self._lock:
            return self.per_project.setdefault(name, ProjectStats())

    def note_submitted(self, project: str, count: int = 1) -> None:
        """Count newly enqueued jobs for one tenant."""
        with self._lock:
            self.submitted += count
            self.per_project.setdefault(project, ProjectStats()).submitted += count

    def note_completed(self, project: str, count: int = 1) -> None:
        """Count successfully annotated jobs for one tenant."""
        with self._lock:
            self.completed += count
            self.per_project.setdefault(project, ProjectStats()).completed += count

    def note_failed(self, project: str, count: int = 1) -> None:
        """Count quarantined jobs for one tenant."""
        with self._lock:
            self.failed += count
            self.per_project.setdefault(project, ProjectStats()).failed += count

    def note_deferred(self, project: str, count: int = 1) -> None:
        """Count re-queued (deferred, not failed) jobs for one tenant."""
        with self._lock:
            self.deferred += count
            self.per_project.setdefault(project, ProjectStats()).deferred += count

    def note_drain(
        self, waves: int, batched: int, regenerated: int, llm_requests: int = 0
    ) -> None:
        """Fold one drain's wave accounting into the totals."""
        with self._lock:
            self.waves += waves
            self.batched_queries += batched
            self.regenerated_queries += regenerated
            self.llm_requests += llm_requests


class AnnotationService:
    """Multi-project submit/drain facade over batched annotation pipelines.

    ``max_concurrency`` sets the default worker count of the
    :class:`~repro.core.scheduler.WaveScheduler` behind :meth:`drain`: 1 (the
    default) runs every round inline on the calling thread, larger values
    overlap independent projects' waves on the LLM boundary.  Results and
    accounting are identical either way.
    """

    def __init__(
        self,
        default_project: str = "default",
        max_concurrency: int = 1,
        telemetry: Telemetry | None = None,
    ) -> None:
        if max_concurrency < 1:
            raise PipelineError("max_concurrency must be at least 1")
        self._default_project = default_project
        self.max_concurrency = max_concurrency
        #: Injected observability sink; the no-op default keeps every
        #: instrumented path bit-identical and effectively free.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._pipelines: dict[str, AnnotationPipeline] = {}
        self._queue: list[AnnotationJob] = []
        self._next_job_id = 1
        self.stats = ServiceStats()
        #: Jobs that failed annotation and were isolated from the queue.
        self.quarantine: list[CompletedJob] = []
        self._journal: EventJournal | None = None
        self._snapshots: SnapshotManager | None = None
        self._snapshot_every = 0
        self._last_snapshot_offset = 0
        self._degraded = False
        #: Degradation-aware summary of the most recent :meth:`drain`.
        self.last_drain_report: DrainReport | None = None

    def __enter__(self) -> "AnnotationService":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    @property
    def degraded(self) -> bool:
        """Whether the service is in journaled-read-only degraded mode.

        Entered when the journal hits a disk fault (ENOSPC, EIO, failed
        fsync): reads — annotations, exports, stats — keep working, but
        :meth:`submit` and :meth:`drain` raise :class:`DegradedModeError`
        until an operator recovers a fresh service from the journal.
        """
        return self._degraded

    # ------------------------------------------------------------------
    # project management
    # ------------------------------------------------------------------

    def register_project(
        self,
        name: str,
        schema: DatabaseSchema,
        config: TaskConfig | None = None,
        llm: LLMClient | None = None,
    ) -> AnnotationPipeline:
        """Create (and return) the annotation pipeline for one project."""
        if not name.strip():
            raise PipelineError("project name must be non-empty")
        if name in self._pipelines:
            raise PipelineError(f"project {name!r} is already registered")
        pipeline = AnnotationPipeline(
            schema=schema, config=config, llm=llm, dataset_name=name
        )
        pipeline.attach_telemetry(self.telemetry)
        self._pipelines[name] = pipeline
        if self._journal is not None:
            self._journal.append(
                PROJECT_REGISTERED,
                {
                    "project": name,
                    "schema": schema_to_state(schema),
                    "config": pipeline.config.to_dict(),
                },
            )
            pipeline.attach_journal(self._journal, project=name)
        return pipeline

    def pipeline(self, project: str | None = None) -> AnnotationPipeline:
        """The pipeline backing a project."""
        name = project or self._default_project
        if name not in self._pipelines:
            raise PipelineError(f"project {name!r} is not registered")
        return self._pipelines[name]

    @property
    def project_names(self) -> list[str]:
        """All registered projects, in registration order."""
        return list(self._pipelines.keys())

    # ------------------------------------------------------------------
    # queue
    # ------------------------------------------------------------------

    def submit(
        self,
        sql: str,
        project: str | None = None,
        query_id: str | None = None,
    ) -> int:
        """Enqueue one statement; returns its job id.

        In degraded mode every submit raises :class:`DegradedModeError`.
        """
        if self._degraded:
            raise DegradedModeError(
                "service is in journaled-read-only degraded mode after a disk "
                "fault; recover it from its journal before submitting"
            )
        name = project or self._default_project
        if name not in self._pipelines:
            raise PipelineError(f"project {name!r} is not registered")
        if not sql.strip().rstrip(";"):
            raise PipelineError("cannot enqueue an empty SQL string")
        job = AnnotationJob(
            job_id=self._next_job_id,
            project=name,
            sql=sql,
            query_id=query_id,
        )
        if self._journal is not None:
            try:
                self._journal.append(
                    JOB_SUBMITTED,
                    {
                        "job_id": job.job_id,
                        "project": job.project,
                        "sql": job.sql,
                        "query_id": job.query_id,
                    },
                )
            except DiskFaultError as exc:
                # Nothing was enqueued; flip read-only instead of crashing.
                self._enter_degraded_mode(exc)
                raise DegradedModeError(
                    f"submit rejected: journal hit a disk fault ({exc}); "
                    "service is now in degraded mode"
                ) from exc
        self._next_job_id += 1
        self._queue.append(job)
        self.stats.note_submitted(name)
        tel = self.telemetry
        if tel.enabled:
            tel.count("service_jobs_submitted_total", project=name)
            tel.gauge("service_pending_jobs", len(self._queue))
        return job.job_id

    def submit_many(
        self, statements: list[str], project: str | None = None
    ) -> list[int]:
        """Enqueue several statements; returns their job ids."""
        return [self.submit(sql, project=project) for sql in statements]

    @property
    def pending_count(self) -> int:
        """Jobs waiting in the queue."""
        return len(self._queue)

    def pending_jobs(self, project: str | None = None) -> list[AnnotationJob]:
        """Queued jobs, optionally restricted to one project."""
        if project is None:
            return list(self._queue)
        return [job for job in self._queue if job.project == project]

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------

    def drain(
        self,
        max_jobs: int | None = None,
        concurrency: int | None = None,
        deadline: "Deadline | float | None" = None,
    ) -> list[CompletedJob]:
        """Process queued jobs through the batched wave scheduler.

        Jobs are grouped per project (preserving submission order within a
        project) into one :class:`WaveRun` each, and a :class:`WaveScheduler`
        advances every run one wave per round.  Returns the completed jobs
        ordered by project (projects in first-submission order, jobs in
        submission order within each) — including failed ones, whose
        ``record`` is ``None`` (see :attr:`CompletedJob.failed`).

        ``concurrency`` (defaulting to the service's :attr:`max_concurrency`)
        sets how many projects' waves may be in flight at once: 1 runs the
        rounds inline, above 1 through a bounded worker pool so batched LLM
        calls overlap.  Each project still runs its own waves strictly in
        order, so records, the returned list, :attr:`last_drain_report` and
        the wave accounting in :attr:`stats` do not depend on it.

        ``deadline`` (seconds or a :class:`Deadline`) bounds the drain's wall
        clock: it is carried through scheduler rounds into every LLM call
        (shrinking per-call timeouts), and jobs that don't fit the budget are
        *deferred* — re-queued at the front, counted in
        :attr:`ServiceStats.deferred` and :attr:`last_drain_report`, never
        quarantined.

        Failure isolation happens inside each project's run, within the
        scheduler's rounds (so under the same deadline and wave accounting):
        when a wave raises, its commits stand and the rest of the run goes
        one statement per wave, so a single poisoned statement is
        quarantined instead of sinking its whole wave.  Its
        ``job_failed`` event is journaled here, when the drain settles.
        Journal errors are never swallowed — losing durability is fatal, not
        isolable — with one exception: an OS-level disk fault
        (:class:`DiskFaultError`) flips the service into journaled-read-only
        degraded mode, salvages the journaled commits and returns them
        instead of crashing mid-drain.
        """
        if self._degraded:
            raise DegradedModeError(
                "service is in journaled-read-only degraded mode after a disk "
                "fault; recover it from its journal before draining"
            )
        if max_jobs is not None and max_jobs < 0:
            raise PipelineError("max_jobs cannot be negative")
        workers = self.max_concurrency if concurrency is None else concurrency
        if workers < 1:
            raise PipelineError("drain concurrency must be at least 1")
        deadline = Deadline.coerce(deadline)
        drain_started = time.perf_counter()
        taken = self._queue if max_jobs is None else self._queue[:max_jobs]
        self._queue = [] if max_jobs is None else self._queue[len(taken):]
        if not taken:
            self.last_drain_report = DrainReport(
                deadline_expired=deadline is not None and deadline.expired,
                duration_seconds=time.perf_counter() - drain_started,
            )
            return []

        by_project: dict[str, list[AnnotationJob]] = {}
        for job in taken:
            by_project.setdefault(job.project, []).append(job)
        runs = {
            project: self._pipelines[project].wave_run(
                [job.sql for job in jobs],
                query_ids=[job.query_id for job in jobs],
                commit_tags=[job.job_id for job in jobs],
                deadline=deadline,
            )
            for project, jobs in by_project.items()
        }

        tel = self.telemetry
        try:
            with tel.span(
                "service.drain",
                jobs=len(taken),
                projects=len(by_project),
                concurrency=workers,
            ):
                WaveScheduler(max_workers=workers, telemetry=tel).run_all(
                    runs, deadline=deadline
                )
                wave_stats = WaveStats()
                for run in runs.values():
                    # Retired runs too: their waves and LLM calls really happened.
                    run.finish()
                    wave_stats.waves += run.stats.waves
                    wave_stats.batched_queries += run.stats.batched_queries
                    wave_stats.regenerated_queries += run.stats.regenerated_queries
                    wave_stats.llm_requests += run.stats.llm_requests
                completed: list[CompletedJob] = []
                deferred: list[AnnotationJob] = []
                for job, outcome in _job_outcomes(by_project, runs):
                    if outcome is None:
                        deferred.append(job)
                    elif isinstance(outcome, AnnotationRecord):
                        completed.append(CompletedJob(job=job, record=outcome))
                    else:
                        completed.append(_failed_job(job, outcome))
                # Journal first, then change memory: a disk fault on the way
                # leaves nothing half-settled for the salvage path.
                if self._journal is not None:
                    for item in completed:
                        if item.failed:
                            self._journal.append(JOB_FAILED, _failure_payload(item))
                    self._journal.append(
                        DRAIN_STATS,
                        {
                            "waves": wave_stats.waves,
                            "batched_queries": wave_stats.batched_queries,
                            "regenerated_queries": wave_stats.regenerated_queries,
                            "llm_requests": wave_stats.llm_requests,
                        },
                    )
                    self._journal.commit()  # group-commit point for "batch" fsync
                for item in completed:
                    if item.failed:
                        self._quarantine(item)
                    else:
                        self.stats.note_completed(item.job.project)
                self._requeue_deferred(deferred)
                self.stats.note_drain(
                    wave_stats.waves,
                    wave_stats.batched_queries,
                    wave_stats.regenerated_queries,
                    wave_stats.llm_requests,
                )
                self._refresh_usage()
                self.maybe_snapshot()
        except DiskFaultError as exc:
            return self._salvage_disk_fault(by_project, runs, exc, drain_started)
        self.last_drain_report = DrainReport(
            completed=sum(1 for item in completed if not item.failed),
            failed=sum(1 for item in completed if item.failed),
            deferred=len(deferred),
            deadline_expired=deadline is not None and deadline.expired,
            duration_seconds=time.perf_counter() - drain_started,
        )
        if tel.enabled:
            tel.observe(
                "service_drain_seconds", time.perf_counter() - drain_started
            )
            for item in completed:
                if not item.failed:
                    tel.count(
                        "service_jobs_completed_total", project=item.job.project
                    )
            tel.gauge("service_pending_jobs", len(self._queue))
        return completed

    def _requeue_deferred(self, jobs: list[AnnotationJob]) -> None:
        """Push deferred jobs back to the *front* of the queue, in order.

        Deferred jobs keep their ids and relative order, so the next drain
        picks them up first and per-project commit order is preserved —
        deferral never reorders a project's record stream.
        """
        if not jobs:
            return
        self._queue[:0] = jobs
        tel = self.telemetry
        counts: dict[str, int] = {}
        for job in jobs:
            counts[job.project] = counts.get(job.project, 0) + 1
        for project, count in counts.items():
            self.stats.note_deferred(project, count)
            if tel.enabled:
                tel.count("service_jobs_deferred_total", count, project=project)
                tel.event("jobs_deferred", project=project, count=count)

    def _salvage_disk_fault(
        self,
        by_project: dict[str, list[AnnotationJob]],
        runs: dict[str, WaveRun],
        exc: DiskFaultError,
        drain_started: float,
    ) -> list[CompletedJob]:
        """Settle a drain interrupted by a disk fault and go degraded.

        Every annotation whose journal append succeeded before the fault is
        returned as completed; everything else — parked failures included,
        since their ``job_failed`` events can no longer be journaled — is
        re-queued (deferred).  The service then flips to
        journaled-read-only degraded mode — the right trade for a full disk:
        existing work stays readable, new mutations are refused until an
        operator recovers from the (intact) journal prefix.  Note the
        in-memory view and the journal may differ by the appends around the
        fault (the record whose append failed, ``job_failed`` events written
        before it); recovery replays journal truth.
        """
        completed: list[CompletedJob] = []
        deferred: list[AnnotationJob] = []
        for job, outcome in _job_outcomes(by_project, runs):
            if isinstance(outcome, AnnotationRecord):
                completed.append(CompletedJob(job=job, record=outcome))
                self.stats.note_completed(job.project)
            else:
                deferred.append(job)
        self._requeue_deferred(deferred)
        self._refresh_usage()
        self._enter_degraded_mode(exc)
        self.last_drain_report = DrainReport(
            completed=len(completed),
            deferred=len(deferred),
            degraded=True,
            duration_seconds=time.perf_counter() - drain_started,
        )
        return completed

    def _enter_degraded_mode(self, exc: DiskFaultError) -> None:
        """Flip to journaled-read-only mode after an OS-level disk fault.

        Journaling stops (the handle is released best-effort), pipelines are
        detached so no further appends are attempted, and subsequent
        :meth:`submit`/:meth:`drain` calls raise :class:`DegradedModeError`.
        In-memory reads keep working.
        """
        self._degraded = True
        tel = self.telemetry
        if tel.enabled:
            tel.count("service_degraded_transitions_total")
            tel.event(
                "service_degraded",
                error=str(exc),
                errno=exc.errno if exc.errno is not None else "",
            )
        journal = self._journal
        self._journal = None
        self._snapshots = None
        for pipeline in self._pipelines.values():
            pipeline.attach_journal(None)
        if journal is not None:
            try:
                journal.close()
            except JournalError:
                pass  # the disk is already known-bad; nothing left to save

    def _quarantine(self, failed: CompletedJob) -> None:
        """Isolate one failed job from the queue (counted, not journaled).

        The caller journals the ``job_failed`` event first.  Its failure
        detail — exception class and a truncated traceback, not just the
        message — is kept on the :class:`CompletedJob` and in that event, so
        quarantine counters broken down by ``error_type`` point at an
        actionable cause.
        """
        job = failed.job
        self.quarantine.append(failed)
        self.stats.note_failed(job.project)
        tel = self.telemetry
        if tel.enabled:
            tel.count(
                "service_jobs_quarantined_total",
                project=job.project,
                error_type=failed.error_type,
            )
            tel.event(
                "job_quarantined",
                project=job.project,
                job_id=job.job_id,
                error_type=failed.error_type,
            )

    def _refresh_usage(self) -> None:
        """Rebuild the per-model usage view from every pipeline's accounting.

        Pipelines with the same model name (e.g. two projects both on
        ``gpt-4o``) aggregate into one row; per-LLM usage is cumulative, so
        rebuilding from scratch keeps the totals exact.
        """
        totals: dict[str, UsageStats] = {}
        seen: set[int] = set()
        for pipeline in self._pipelines.values():
            usage = pipeline.llm.usage
            if id(usage) in seen:  # one LLM client shared across projects
                continue
            seen.add(id(usage))
            model = usage.model_name or pipeline.llm.name
            aggregate = totals.setdefault(model, UsageStats(model_name=model))
            aggregate.merge(usage)
        self.stats.usage_by_model = totals

    # ------------------------------------------------------------------
    # durability: journaling, snapshots, recovery
    # ------------------------------------------------------------------

    @property
    def journal(self) -> EventJournal | None:
        """The attached event journal, if the service is running durably."""
        return self._journal

    def attach_journal(
        self,
        journal: EventJournal,
        snapshots: SnapshotManager | None = None,
        snapshot_every: int = 0,
    ) -> None:
        """Start journaling every commit of this service (and its pipelines).

        ``snapshot_every`` > 0 additionally writes a snapshot once that many
        new journal records have accumulated since the last one (checked at
        drain boundaries).  Attach only to a service whose current state is
        already represented by the journal (fresh, or just recovered from
        it) — otherwise replay would diverge.
        """
        self._journal = journal
        self._snapshots = snapshots
        self._snapshot_every = snapshot_every
        journal.telemetry = self.telemetry
        salvage = journal.recovery.salvage  # set exactly when a torn tail was dropped
        if salvage is not None and self.telemetry.enabled:
            self.telemetry.count("journal_salvage_total", kind=salvage.kind)
            self.telemetry.event(
                "journal_salvaged",
                kind=salvage.kind,
                reason=salvage.reason,
                valid_records=salvage.valid_records,
                dropped_bytes=salvage.dropped_bytes,
                resynced_records=salvage.resynced_records,
            )
        if snapshots is not None:
            snapshots.telemetry = self.telemetry
            covered = [
                offset for offset in snapshots.offsets()
                if offset <= journal.record_count
            ]
            self._last_snapshot_offset = max(covered, default=0)
        else:
            self._last_snapshot_offset = 0
        for name, pipeline in self._pipelines.items():
            pipeline.attach_journal(journal, project=name)

    def snapshot(self) -> Path | None:
        """Write a snapshot now (journal + snapshot store required)."""
        return self.maybe_snapshot(force=True)

    def maybe_snapshot(self, force: bool = False) -> Path | None:
        """Write a snapshot when the cadence (or ``force``) says so.

        Snapshots are an optimisation (warm start), not the source of truth —
        a snapshot that cannot be written is logged and skipped rather than
        failing the drain, since the journal already holds everything.
        """
        if self._journal is None or self._snapshots is None:
            return None
        offset = self._journal.record_count
        due = (
            self._snapshot_every > 0
            and offset - self._last_snapshot_offset >= self._snapshot_every
        )
        if not (force or due):
            return None
        self._journal.commit()  # the snapshot must not lead the journal
        try:
            path = self._snapshots.save(offset, self.capture_state())
        except SnapshotError as exc:
            tel = self.telemetry
            if tel.enabled:
                tel.count("snapshot_write_failures_total")
                tel.event("snapshot_write_failed", error=str(exc), offset=offset)
            return None
        self._last_snapshot_offset = offset
        return path

    def close(self) -> None:
        """Flush and release the journal (idempotent; service stays usable
        in-memory, but stops journaling)."""
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        for pipeline in self._pipelines.values():
            pipeline.attach_journal(None)

    def capture_state(self, include_accounting: bool = True) -> dict:
        """JSON-safe semantic state of the whole service.

        With ``include_accounting=False`` the process-local counters (wave
        stats, per-model usage) are excluded — that is the state that must be
        bit-identical across crash/recover cycles, since a crashed process
        cannot reproduce accounting for work whose drain never completed.
        """
        state = {
            "default_project": self._default_project,
            "next_job_id": self._next_job_id,
            "queue": [asdict(job) for job in self._queue],
            "quarantine": [
                {
                    "job": asdict(item.job),
                    "error": item.error,
                    "error_type": item.error_type,
                    "traceback": item.traceback,
                }
                for item in self.quarantine
            ],
            "projects": {
                name: capture_pipeline_state(pipeline)
                for name, pipeline in self._pipelines.items()
            },
        }
        if include_accounting:
            state["stats"] = {
                "submitted": self.stats.submitted,
                "completed": self.stats.completed,
                "failed": self.stats.failed,
                "deferred": self.stats.deferred,
                "waves": self.stats.waves,
                "batched_queries": self.stats.batched_queries,
                "regenerated_queries": self.stats.regenerated_queries,
                "llm_requests": self.stats.llm_requests,
                "per_project": {
                    name: asdict(project_stats)
                    for name, project_stats in self.stats.per_project.items()
                },
            }
        return state

    def restore_state(self, state: dict, llm_factory: LLMFactory | None = None) -> None:
        """Replace this service's state with a snapshot's (warm start)."""
        self._default_project = state["default_project"]
        self._next_job_id = int(state["next_job_id"])
        self._queue = [AnnotationJob.from_state(job) for job in state["queue"]]
        self.quarantine = [
            CompletedJob(
                job=AnnotationJob.from_state(item["job"]),
                record=None,
                error=item["error"],
                error_type=item.get("error_type", ""),
                traceback=item.get("traceback", ""),
            )
            for item in state["quarantine"]
        ]
        self._pipelines = {}
        for name, pipeline_state in state["projects"].items():
            llm = llm_factory(name) if llm_factory is not None else None
            pipeline = restore_pipeline_state(name, pipeline_state, llm=llm)
            pipeline.attach_telemetry(self.telemetry)
            self._pipelines[name] = pipeline
        self.stats = ServiceStats()
        stats = state.get("stats")
        if stats:
            self.stats.submitted = int(stats["submitted"])
            self.stats.completed = int(stats["completed"])
            self.stats.failed = int(stats["failed"])
            self.stats.deferred = int(stats.get("deferred", 0))
            self.stats.waves = int(stats["waves"])
            self.stats.batched_queries = int(stats["batched_queries"])
            self.stats.regenerated_queries = int(stats["regenerated_queries"])
            self.stats.llm_requests = int(stats.get("llm_requests", 0))
            for name, entry in stats.get("per_project", {}).items():
                self.stats.per_project[name] = ProjectStats(
                    submitted=int(entry["submitted"]),
                    completed=int(entry["completed"]),
                    failed=int(entry["failed"]),
                    deferred=int(entry.get("deferred", 0)),
                )

    @classmethod
    def recover(
        cls,
        journal_path: str | Path,
        snapshots: SnapshotManager | None = None,
        default_project: str = "default",
        fsync: str = "batch",
        snapshot_every: int = 0,
        llm_factory: LLMFactory | None = None,
        max_concurrency: int = 1,
        telemetry: Telemetry | None = None,
    ) -> "AnnotationService":
        """Rebuild a service from its journal (and snapshots) and go live.

        Opening the journal heals any torn tail first; when a snapshot store
        is supplied, the newest intact snapshot at or below the journal's
        valid prefix warm-starts the state and only the journal *suffix* is
        replayed.  The returned service has the journal attached and is ready
        for new submits/drains.  Works on a fresh (empty or absent) journal
        too, so it doubles as the "open durable service" entry point.
        """
        journal = EventJournal(journal_path, fsync=fsync)
        service = cls(
            default_project=default_project,
            max_concurrency=max_concurrency,
            telemetry=telemetry,
        )
        start = 0
        if snapshots is not None:
            # Attach telemetry first, so snapshots skipped here are counted.
            snapshots.telemetry = service.telemetry
            loaded = snapshots.latest(max_offset=journal.record_count)
            if loaded is not None:
                start, snapshot_state = loaded
                service.restore_state(snapshot_state, llm_factory=llm_factory)
        for event in journal.events(start):
            service._replay_event(event, llm_factory=llm_factory)
        service.attach_journal(journal, snapshots=snapshots, snapshot_every=snapshot_every)
        return service

    @classmethod
    def open_durable(
        cls,
        directory: str | Path,
        default_project: str = "default",
        fsync: str = "batch",
        snapshot_every: int = 0,
        llm_factory: LLMFactory | None = None,
        max_concurrency: int = 1,
        telemetry: Telemetry | None = None,
    ) -> "AnnotationService":
        """Open (creating or recovering) a durable service rooted at a directory.

        Layout: ``<directory>/journal.bin`` plus ``<directory>/snapshots/``.
        """
        directory = Path(directory)
        snapshots = SnapshotManager(directory / "snapshots")
        return cls.recover(
            directory / "journal.bin",
            snapshots=snapshots,
            default_project=default_project,
            fsync=fsync,
            snapshot_every=snapshot_every,
            llm_factory=llm_factory,
            max_concurrency=max_concurrency,
            telemetry=telemetry,
        )

    def _replay_event(
        self, event: JournalEvent, llm_factory: LLMFactory | None = None
    ) -> None:
        """Re-apply one journaled event to the in-memory state.

        Replay never calls the LLM.  An ``annotation_committed`` event
        carries the record, the feedback and, when the record entered the
        archive, the archived example's id, skeleton and feature profile;
        the example's SQL and NL are the record's, so they are written once,
        in the record.  The dataset, tables and quality that journals of
        earlier builds also give the example are not read.  A record whose
        SQL is byte-equal to its job's leaves it out, and replay takes it
        from the job, which it settles first.  The profile spares the
        embedding model from tokenising and counting the archived text, and
        its journaled hashes from hashing the features new to the archive;
        an event without one (an older journal, or a profile its compact
        form cannot hold) has the model compute it, and a profile without
        hashes (an older journal) has it hash them.  Re-applying the events in
        journal order reproduces the live state bit-for-bit (same example
        ids, same embedding statistics, same feedback history/revision).
        """
        payload = event.payload
        if event.type == PROJECT_REGISTERED:
            name = payload["project"]
            if name in self._pipelines:  # covered by the snapshot already
                return
            llm = llm_factory(name) if llm_factory is not None else None
            pipeline = AnnotationPipeline(
                schema=schema_from_state(payload["schema"]),
                config=TaskConfig.from_dict(payload["config"]),
                llm=llm,
                dataset_name=name,
            )
            pipeline.attach_telemetry(self.telemetry)
            self._pipelines[name] = pipeline
        elif event.type == JOB_SUBMITTED:
            job = AnnotationJob.from_state(payload)
            self._queue.append(job)
            self._next_job_id = max(self._next_job_id, job.job_id + 1)
            self.stats.note_submitted(job.project)
        elif event.type == ANNOTATION_COMMITTED:
            pipeline = self._require_pipeline(payload["project"], event)
            record_state = payload["record"]
            if payload["job_id"] is not None:
                job = self._settle_job(payload["job_id"])
                if "sql" not in record_state:
                    if job is None:
                        raise JournalError(
                            f"journal offset {event.offset} commits job "
                            f"{payload['job_id']} without its SQL, but the job "
                            "is not queued; the journal prefix is incomplete"
                        )
                    record_state["sql"] = job.sql
                self.stats.note_completed(payload["project"])
            # Reproduce the session-state mutation exactly as the live
            # commit did: history, knowledge, priorities, revision.
            pipeline.feedback_loop.apply(
                list(record_state["candidates"]), Feedback.from_state(payload["feedback"])
            )
            pipeline._counter += 1
            pipeline.annotations.append(AnnotationRecord(**record_state))
            example = payload["example"]
            if example is not None:
                # Journals written before skeletons were journaled lack the
                # field, and ones written before skeletons kept identifier
                # quotes hold a stale one for SQL with a quoted identifier;
                # add() computes the skeleton in both cases.
                skeleton = example.get("skeleton")
                if skeleton is not None and is_stale_skeleton(
                    record_state["sql"], skeleton
                ):
                    skeleton = None
                # The live commit archived the record's SQL and NL, and add()
                # strips both; the copies older journals keep are ignored.
                pipeline.retriever.example_store.add(
                    record_state["sql"],
                    record_state["nl"],
                    skeleton=skeleton,
                    profile=example.get("profile"),
                )
        elif event.type == FEEDBACK_APPLIED:
            pipeline = self._require_pipeline(payload["project"], event)
            pipeline.feedback_loop.apply(
                list(payload["candidates"]), Feedback.from_state(payload["feedback"])
            )
        elif event.type == JOB_FAILED:
            job = self._settle_job(payload["job_id"]) or AnnotationJob.from_state(
                payload
            )
            self.quarantine.append(
                CompletedJob(
                    job=job,
                    record=None,
                    error=payload["error"],
                    # Old journals predate the detail fields; tolerate both.
                    error_type=payload.get("error_type", ""),
                    traceback=payload.get("traceback", ""),
                )
            )
            self.stats.note_failed(payload["project"])
        elif event.type == DRAIN_STATS:
            self.stats.note_drain(
                payload["waves"],
                payload["batched_queries"],
                payload["regenerated_queries"],
                payload.get("llm_requests", 0),
            )
        else:
            raise JournalError(
                f"cannot replay unknown event type {event.type!r} "
                f"at journal offset {event.offset}"
            )

    def _require_pipeline(self, name: str, event: JournalEvent) -> AnnotationPipeline:
        if name not in self._pipelines:
            raise JournalError(
                f"journal offset {event.offset} references unregistered "
                f"project {name!r}; the journal prefix is incomplete"
            )
        return self._pipelines[name]

    def _settle_job(self, job_id: int) -> AnnotationJob | None:
        """Drop a journal-settled job from the pending queue (idempotent).

        Returns the dropped job, or ``None`` when it was not queued.
        """
        for index, job in enumerate(self._queue):
            if job.job_id == job_id:
                del self._queue[index]
                return job
        return None
