"""Deterministic chaos harness: seeded fault schedules over the durable service.

One :class:`ChaosSchedule` — derived entirely from an integer seed — decides
every fault in a scenario up front:

* **LLM failures** (:class:`ChaosLLM`): transient errors injected per call
  from a finite budget.  The schedule never fails two consecutive calls, so
  a retry policy with ``max_attempts >= 2`` always heals within one logical
  call — chaos exercises the retry and deferral paths without ever pushing
  a job into quarantine (which would legitimately change the final
  state and void the bit-identical invariant).
* **Journal faults** (:class:`ChaosJournal`): at chosen global append
  indices, either a simulated process crash (optionally tearing a prefix of
  the record's bytes onto disk first) or an OS-level disk fault
  (:class:`~repro.errors.DiskFaultError`, e.g. ENOSPC) that flips the
  service into degraded mode.
* **Expired-deadline drains**: a few drain iterations run with an
  already-expired deadline, forcing the whole round to defer — the
  deterministic extreme of the deadline-budget path.

:func:`run_chaos_scenario` drives a fixed two-project workload through the
schedule — drain, crash, recover, resubmit lost submits, drain again — until
every job completes, checking three invariants along the way:

1. **No committed record is ever lost**: the journal's valid event prefix
   only grows across incarnations.
2. **Deferred jobs eventually drain**: the scenario terminates with an empty
   queue, zero quarantined jobs, and every expected annotation present.
3. **Results are bit-identical to a fault-free run**: per-project
   ``(sql, nl, accepted, candidates)`` sequences match the reference
   exactly, regardless of how often waves were deferred, crashed or retried.
"""

from __future__ import annotations

import errno as errno_module
import random
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import AnnotationService, TaskConfig
from repro.core.journal import EventJournal
from repro.errors import DegradedModeError, DiskFaultError, TransientLLMError
from repro.llm.base import GenerationResult, LLMClient
from repro.llm.prompts import Prompt
from repro.llm.simulated import SimulatedLLM

from tests.faults import InjectedCrash, encode_record
from tests.test_recovery import QUERIES, make_schema

PROJECTS = ("alpha", "beta")

#: Fault-injection ceilings per scenario.  All finite, so every schedule is
#: guaranteed to run out of faults and let the workload converge.
MAX_JOURNAL_FAULTS = 4
LLM_FAILURE_BUDGET = 10
MAX_EXPIRED_DEADLINE_DRAINS = 3

#: Convergence bounds for the drive loop (far above what any schedule needs).
MAX_INCARNATIONS = 12
MAX_DRAINS_PER_INCARNATION = 30


def chaos_config() -> TaskConfig:
    """The project configuration every chaos scenario runs under.

    ``max_attempts=2`` + the schedule's no-two-consecutive-failures rule mean
    retries always heal; deferral is exercised by the expired-deadline
    drains and the disk faults.
    """
    return TaskConfig(batch_size=4, llm_max_attempts=2, llm_retry_base_delay=0.0)


class ChaosSchedule:
    """Every fault decision for one scenario, pre-derived from a seed."""

    def __init__(self, seed: int, journal_faults: bool = True) -> None:
        self.seed = seed
        rng = random.Random(seed)
        #: global append index -> ("crash", torn_bytes|None) | ("disk", None)
        self.journal_faults: dict[int, tuple[str, int | None]] = {}
        if journal_faults:
            count = rng.randint(1, MAX_JOURNAL_FAULTS)
            for point in rng.sample(range(3, 40), count):
                kind = rng.choice(["crash", "torn", "disk"])
                torn = rng.randint(1, 24) if kind == "torn" else None
                self.journal_faults[point] = (
                    ("disk", None) if kind == "disk" else ("crash", torn)
                )
        self.append_counter = 0
        #: Drain iteration indices forced to run with an expired deadline.
        self.expired_deadline_drains = set(
            rng.sample(range(1, 12), rng.randint(0, MAX_EXPIRED_DEADLINE_DRAINS))
        )
        self._llm_rng = random.Random(seed + 0x5EED)
        self.llm_failures_left = LLM_FAILURE_BUDGET
        self.llm_calls = 0
        self.llm_failures_injected = 0
        self._last_call_failed = False

    def llm_should_fail(self) -> bool:
        """Deterministic per-call failure decision (never twice in a row)."""
        self.llm_calls += 1
        if self._last_call_failed or self.llm_failures_left <= 0:
            self._last_call_failed = False
            self._llm_rng.random()  # keep the draw sequence aligned
            return False
        if self._llm_rng.random() < 0.3:
            self.llm_failures_left -= 1
            self.llm_failures_injected += 1
            self._last_call_failed = True
            return True
        self._last_call_failed = False
        return False

    def next_journal_fault(self) -> tuple[str, int | None] | None:
        """The fault (if any) scheduled for the next global append."""
        self.append_counter += 1
        return self.journal_faults.pop(self.append_counter, None)


class ChaosLLM(LLMClient):
    """Client wrapper that fails calls when the shared schedule says so."""

    def __init__(self, inner: LLMClient, schedule: ChaosSchedule) -> None:
        self.inner = inner
        self.name = inner.name
        self.schedule = schedule

    @property
    def example_content_sensitive(self) -> bool:  # type: ignore[override]
        return self.inner.example_content_sensitive

    def _maybe_fail(self) -> None:
        if self.schedule.llm_should_fail():
            raise TransientLLMError(
                f"chaos: injected LLM failure (call #{self.schedule.llm_calls})"
            )

    def generate(self, prompt: Prompt) -> GenerationResult:
        self._maybe_fail()
        return self.inner.generate(prompt)

    def generate_batch(self, prompts: list[Prompt]) -> list[GenerationResult]:
        self._maybe_fail()
        return self.inner.generate_batch(prompts)

    def backtranslate(self, description: str, schema_text: str = "") -> str | None:
        return self.inner.backtranslate(description, schema_text)


class ChaosJournal(EventJournal):
    """Journal that consults the schedule before every append.

    The schedule's append counter is *global across incarnations* — a
    recovered service keeps consuming the same fault sequence, so one seed
    fully determines where every crash and disk fault lands in the scenario.
    Surviving appends are flushed through to the OS, pinning the richest
    durable prefix recovery can face (matching
    :class:`tests.faults.CrashingJournal`).
    """

    def __init__(self, path: str | Path, schedule: ChaosSchedule) -> None:
        super().__init__(path)
        self.schedule = schedule

    def append(self, event_type: str, payload: dict) -> int:
        with self._lock:
            fault = self.schedule.next_journal_fault()
            if fault is not None:
                kind, torn_bytes = fault
                if kind == "disk":
                    raise DiskFaultError(
                        "chaos: injected disk fault (ENOSPC) at append "
                        f"#{self.schedule.append_counter}",
                        errno_value=errno_module.ENOSPC,
                    )
                if torn_bytes is not None:
                    record = encode_record(event_type, payload)
                    self._handle.write(record[: min(torn_bytes, len(record) - 1)])
                    self._handle.flush()
                raise InjectedCrash(
                    f"chaos: injected crash at append #{self.schedule.append_counter} "
                    f"({event_type}, torn_bytes={torn_bytes})"
                )
            offset = super().append(event_type, payload)
            self._handle.flush()
            return offset


@dataclass
class ChaosResult:
    """What one scenario went through on its way to convergence."""

    seed: int
    incarnations: int = 1
    drains: int = 0
    crashes: int = 0
    disk_faults: int = 0
    llm_failures: int = 0
    deferrals: int = 0
    #: Final per-project annotation fingerprints, for reference comparison.
    records: dict[str, list[tuple]] = field(default_factory=dict)


def expected_workload() -> dict[str, list[str]]:
    """The fixed two-project workload every scenario (and reference) runs."""
    return {project: list(QUERIES) for project in PROJECTS}


def record_fingerprints(service: AnnotationService) -> dict[str, list[tuple]]:
    """Per-project ``(sql, nl, accepted, candidates)`` — the bit-identity key."""
    return {
        project: [
            (record.sql, record.nl, record.accepted, tuple(record.candidates))
            for record in service.pipeline(project).annotations
        ]
        for project in service.project_names
    }


def _journal_event_keys(path: Path) -> list[tuple[str, str]]:
    """Stable identity of every committed journal record (for invariant 1)."""
    import json

    return [
        (event.type, json.dumps(event.payload, sort_keys=True))
        for event in EventJournal.read_events(path)
    ]


def _make_service(journal: ChaosJournal, schedule: ChaosSchedule) -> AnnotationService:
    """Recover (or freshly start) a chaos service over an existing journal.

    Mirrors :meth:`AnnotationService.recover`, but keeps the chaos journal
    and wraps every project's client in :class:`ChaosLLM` so the fault
    schedule continues across incarnations.
    """

    def llm_factory(name: str) -> LLMClient:
        return ChaosLLM(
            SimulatedLLM(chaos_config().model_name, schema=make_schema()), schedule
        )

    service = AnnotationService()
    for event in journal.events(0):
        service._replay_event(event, llm_factory=llm_factory)
    service.attach_journal(journal)
    return service


def _resubmit_missing(
    service: AnnotationService, workload: dict[str, list[str]]
) -> None:
    """Re-register / re-submit whatever the journal never saw.

    Submits happen strictly in workload order, so anything missing from the
    journal is a per-project *suffix* — resubmitting in order preserves each
    project's commit order (deferred/pending jobs sit ahead in the queue).
    """
    for project, statements in workload.items():
        if project not in service.project_names:
            service.register_project(
                project,
                make_schema(),
                config=chaos_config(),
                llm=ChaosLLM(
                    SimulatedLLM(chaos_config().model_name, schema=make_schema()),
                    service.journal.schedule,  # type: ignore[union-attr]
                ),
            )
        known = {job.sql for job in service.pending_jobs(project)} | {
            record.sql for record in service.pipeline(project).annotations
        }
        for sql in statements:
            if sql not in known:
                service.submit(sql, project=project)


def run_reference(root: Path) -> dict[str, list[tuple]]:
    """The fault-free run every chaos scenario must reproduce bit-for-bit."""
    schedule = ChaosSchedule(seed=0, journal_faults=False)
    schedule.llm_failures_left = 0  # no LLM faults either
    journal = ChaosJournal(root / "journal.bin", schedule)
    service = _make_service(journal, schedule)
    _resubmit_missing(service, expected_workload())
    service.drain()
    assert service.pending_count == 0 and not service.quarantine
    fingerprints = record_fingerprints(service)
    service.close()
    return fingerprints


def run_chaos_scenario(seed: int, root: Path) -> ChaosResult:
    """Drive the workload through one seeded fault schedule to convergence.

    Raises ``AssertionError`` as soon as any invariant breaks; returns the
    scenario's fault/recovery accounting otherwise.
    """
    schedule = ChaosSchedule(seed)
    workload = expected_workload()
    journal_path = root / "journal.bin"
    result = ChaosResult(seed=seed)
    committed_prefix: list[tuple[str, str]] = []

    def check_journal_monotonic() -> None:
        nonlocal committed_prefix
        events = _journal_event_keys(journal_path)
        assert events[: len(committed_prefix)] == committed_prefix, (
            f"seed {seed}: committed journal records were lost or rewritten"
        )
        committed_prefix = events

    service = _make_service(ChaosJournal(journal_path, schedule), schedule)
    for incarnation in range(MAX_INCARNATIONS):
        alive = True
        try:
            _resubmit_missing(service, workload)
            for drain_index in range(MAX_DRAINS_PER_INCARNATION):
                if service.pending_count == 0:
                    break
                deadline = (
                    0.0 if result.drains in schedule.expired_deadline_drains else None
                )
                result.drains += 1
                service.drain(deadline=deadline)
                report = service.last_drain_report
                assert report is not None
                result.deferrals += report.deferred
                if service.degraded:
                    result.disk_faults += 1
                    alive = False
                    break
            else:
                raise AssertionError(
                    f"seed {seed}: drain loop failed to converge in "
                    f"{MAX_DRAINS_PER_INCARNATION} drains"
                )
        except InjectedCrash:
            result.crashes += 1
            alive = False
        except DegradedModeError:
            result.disk_faults += 1
            alive = False

        if alive and service.pending_count == 0:
            break
        # The incarnation died (crash or degraded): verify nothing committed
        # was lost, then recover a fresh service from the journal.
        check_journal_monotonic()
        result.incarnations += 1
        service = _make_service(ChaosJournal(journal_path, schedule), schedule)
    else:
        raise AssertionError(
            f"seed {seed}: scenario failed to converge in "
            f"{MAX_INCARNATIONS} incarnations"
        )

    # Invariant 2: everything drained, nothing quarantined.
    assert service.pending_count == 0, f"seed {seed}: queue did not empty"
    assert not service.quarantine and service.stats.failed == 0, (
        f"seed {seed}: chaos pushed jobs into quarantine"
    )
    for project, statements in workload.items():
        count = len(service.pipeline(project).annotations)
        assert count == len(statements), (
            f"seed {seed}: project {project!r} completed {count}"
            f"/{len(statements)} jobs"
        )
    # Invariant 1, final edition: the journal still holds every committed
    # record, and a cold recovery agrees with the live service.
    service.close()
    check_journal_monotonic()
    recovered = AnnotationService.recover(journal_path)
    result.records = record_fingerprints(recovered)
    assert result.records == record_fingerprints_from_live(service), (
        f"seed {seed}: cold replay disagrees with the live final state"
    )
    recovered.close()
    result.llm_failures = schedule.llm_failures_injected
    return result


def record_fingerprints_from_live(service: AnnotationService) -> dict[str, list[tuple]]:
    """Fingerprints of a (possibly closed) live service — same key as above."""
    return record_fingerprints(service)
