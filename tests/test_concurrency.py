"""Tests for the concurrent multi-tenant drain: sequential/concurrent parity,
the round-based wave scheduler, per-tenant accounting, retry-jitter salting,
thread stress under flaky clients, wave accounting when a drain's deadline
cuts a project part-way through, and crash recovery mid-concurrent-drain."""

from __future__ import annotations

import threading

import pytest

from repro.core import (
    AnnotationPipeline,
    AnnotationService,
    DrainReport,
    TaskConfig,
    WaveScheduler,
)
from repro.errors import DeadlineExceededError, PipelineError
from repro.llm import SimulatedLLM
from repro.llm.base import RetryPolicy, _join_salt
from repro.schema import ColumnSchema, DatabaseSchema, ForeignKey, TableSchema

from tests.faults import CrashingJournal, FlakyLLM, InjectedCrash

QUERIES = [
    "SELECT name, salary FROM employees WHERE salary > 50000",
    "SELECT dept_name, budget FROM departments ORDER BY budget DESC",
    "SELECT e.name FROM employees e JOIN departments d ON e.dept_id = d.dept_id "
    "WHERE d.dept_name = 'Sales'",
    "SELECT name FROM employees WHERE dept_id IN "
    "(SELECT dept_id FROM departments WHERE budget > 100000)",
    "SELECT COUNT(*), dept_id FROM employees GROUP BY dept_id",
    "SELECT name FROM employees WHERE hire_date > '2020-01-01'",
    "SELECT AVG(salary) FROM employees",
    "SELECT dept_name FROM departments WHERE budget < 50000",
]

PROJECTS = ["alpha", "beta", "gamma", "delta"]


def make_schema() -> DatabaseSchema:
    return DatabaseSchema(
        name="hr",
        tables=[
            TableSchema(
                name="employees",
                columns=[
                    ColumnSchema("emp_id", "INT", primary_key=True, nullable=False),
                    ColumnSchema("name", "TEXT"),
                    ColumnSchema("salary", "REAL"),
                    ColumnSchema("dept_id", "INT"),
                    ColumnSchema("hire_date", "DATE"),
                ],
                foreign_keys=[ForeignKey("dept_id", "departments", "dept_id")],
            ),
            TableSchema(
                name="departments",
                columns=[
                    ColumnSchema("dept_id", "INT", primary_key=True, nullable=False),
                    ColumnSchema("dept_name", "TEXT"),
                    ColumnSchema("budget", "REAL"),
                ],
            ),
        ],
    )


def record_key(record):
    return (record.query_id, record.nl, record.accepted, tuple(record.candidates))


def completed_keys(completed):
    """Order-sensitive fingerprint of one drain's result list."""
    return [
        (
            item.job.project,
            item.job.job_id,
            None if item.record is None else record_key(item.record),
            item.error,
        )
        for item in completed
    ]


def build_service(
    max_concurrency: int = 1,
    projects: list[str] = PROJECTS,
    config: TaskConfig | None = None,
    llm_factory=None,
) -> AnnotationService:
    service = AnnotationService(max_concurrency=max_concurrency)
    for name in projects:
        llm = llm_factory(name) if llm_factory is not None else None
        service.register_project(
            name, make_schema(), config=config or TaskConfig(batch_size=3), llm=llm
        )
    return service


def submit_mix(service: AnnotationService, projects: list[str] = PROJECTS) -> None:
    """Interleaved submissions with unequal per-project queue depths."""
    for index, sql in enumerate(QUERIES):
        for project in projects[: 1 + index % len(projects)]:
            service.submit(sql, project=project)


class TestConcurrentParity:
    @pytest.mark.parametrize("concurrency", [2, 4, 8])
    def test_concurrent_drain_matches_sequential(self, concurrency):
        sequential = build_service(max_concurrency=1)
        submit_mix(sequential)
        expected = sequential.drain()

        concurrent = build_service(max_concurrency=concurrency)
        submit_mix(concurrent)
        actual = concurrent.drain()

        assert completed_keys(actual) == completed_keys(expected)
        assert concurrent.stats.completed == sequential.stats.completed
        assert concurrent.stats.waves == sequential.stats.waves
        assert concurrent.stats.batched_queries == sequential.stats.batched_queries
        for name in PROJECTS:
            assert (
                concurrent.pipeline(name).example_count
                == sequential.pipeline(name).example_count
            )
            assert [
                record_key(r) for r in concurrent.pipeline(name).annotations
            ] == [record_key(r) for r in sequential.pipeline(name).annotations]

    def test_drain_concurrency_override(self):
        service = build_service(max_concurrency=1)
        submit_mix(service)
        expected = build_service(max_concurrency=1)
        submit_mix(expected)
        assert completed_keys(service.drain(concurrency=4)) == completed_keys(
            expected.drain()
        )

    def test_single_project_concurrent_drain(self):
        # With one tenant there is nothing to overlap; the concurrent path
        # degenerates to the classic sequential drain.
        service = build_service(max_concurrency=4, projects=["solo"])
        for sql in QUERIES:
            service.submit(sql, project="solo")
        reference = build_service(max_concurrency=1, projects=["solo"])
        for sql in QUERIES:
            reference.submit(sql, project="solo")
        assert completed_keys(service.drain()) == completed_keys(reference.drain())

    def test_repeated_partial_drains_match(self):
        sequential = build_service(max_concurrency=1)
        concurrent = build_service(max_concurrency=4)
        for service in (sequential, concurrent):
            submit_mix(service)
        while sequential.pending_count:
            expected = sequential.drain(max_jobs=5)
            actual = concurrent.drain(max_jobs=5)
            assert completed_keys(actual) == completed_keys(expected)
        assert concurrent.pending_count == 0

    @pytest.mark.parametrize(
        "workers, projects, inline",
        [(1, PROJECTS, True), (4, PROJECTS[:1], True), (4, PROJECTS, False)],
    )
    def test_scheduler_runs_inline_for_one_worker_or_one_run(
        self, workers, projects, inline
    ):
        service = build_service(projects=projects)
        threads = set()
        runs = {}
        for name in projects:
            run = service.pipeline(name).wave_run(QUERIES)
            advance = run.run_next_wave

            def traced(advance=advance):
                threads.add(threading.get_ident())
                return advance()

            run.run_next_wave = traced
            runs[name] = run
        WaveScheduler(max_workers=workers).run_all(runs)
        assert all(run.done for run in runs.values())
        assert (threads == {threading.get_ident()}) == inline

    def test_invalid_concurrency_rejected(self):
        service = build_service()
        with pytest.raises(PipelineError):
            service.drain(concurrency=0)
        with pytest.raises(PipelineError):
            AnnotationService(max_concurrency=0)
        with pytest.raises(PipelineError):
            WaveScheduler(max_workers=0)


class TestFaultIsolationConcurrent:
    def test_poisoned_project_does_not_sink_others(self):
        def run(concurrency):
            service = build_service(max_concurrency=concurrency)
            submit_mix(service)
            service.submit("SELECT FROM", project="beta")  # unparseable
            service.submit(QUERIES[0], project="beta")
            return service

        sequential = run(1)
        concurrent = run(4)
        expected = sequential.drain()
        actual = concurrent.drain()
        assert completed_keys(actual) == completed_keys(expected)
        assert len(concurrent.quarantine) == len(sequential.quarantine) == 1
        assert concurrent.quarantine[0].job.project == "beta"
        assert concurrent.stats.failed == 1
        assert concurrent.stats.per_project["beta"].failed == 1

    def test_flaky_llm_thread_stress(self):
        # Repeated concurrent drains with transient failures injected into
        # every tenant's client: the retry discipline must absorb them and
        # the records must match an uninjected sequential run exactly.
        retry_config = TaskConfig(
            batch_size=3, llm_retry_base_delay=0.001, llm_retry_max_delay=0.002
        )

        def flaky_factory(name):
            return FlakyLLM(
                SimulatedLLM("gpt-4o", schema=make_schema()), fail_times=2
            )

        reference = build_service(max_concurrency=1, config=retry_config)
        stressed = build_service(
            max_concurrency=4, config=retry_config, llm_factory=flaky_factory
        )
        for round_index in range(3):
            for service in (reference, stressed):
                submit_mix(service)
            expected = reference.drain()
            actual = stressed.drain()
            assert completed_keys(actual) == completed_keys(expected)
        assert stressed.stats.failed == 0
        assert stressed.stats.completed == reference.stats.completed


class DeadlineCutLLM(SimulatedLLM):
    """Simulated client whose ``cut_on``-th batched round trip is cut at the
    caller's deadline (0 never cuts)."""

    def __init__(self, cut_on: int = 0) -> None:
        super().__init__("gpt-4o", schema=make_schema())
        self.cut_on = cut_on
        self.batches = 0

    def generate_batch(self, prompts):
        self.batches += 1
        if self.batches == self.cut_on:
            raise DeadlineExceededError("injected: cut at the deadline")
        return super().generate_batch(prompts)


class TestDrainAccountingParity:
    """A deadline cut mid-drain is settled and counted the same way at every
    concurrency: each project's outcome and wave accounting equal what its
    own run does in isolation."""

    CUT_ON = {"alpha": 0, "beta": 3}

    def _statements(self):
        return {name: QUERIES + QUERIES[::-1] for name in self.CUT_ON}

    def _isolated_run(self, project, statements):
        pipeline = AnnotationPipeline(
            make_schema(),
            config=TaskConfig(batch_size=3),
            llm=DeadlineCutLLM(self.CUT_ON[project]),
            dataset_name=project,
        )
        run = pipeline.wave_run(statements)
        try:
            while not run.done:
                run.run_next_wave()
        except DeadlineExceededError:
            pass
        run.finish()
        return [record_key(record) for record in pipeline.annotations], run.stats

    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_deadline_cut_accounting_is_concurrency_independent(self, concurrency):
        statements = self._statements()
        service = build_service(
            projects=list(self.CUT_ON),
            llm_factory=lambda name: DeadlineCutLLM(self.CUT_ON[name]),
        )
        for index in range(len(QUERIES) * 2):
            for name, sqls in statements.items():
                service.submit(sqls[index], project=name)
        jobs = {name: service.pending_jobs(name) for name in statements}

        completed = service.drain(concurrency=concurrency)

        expected_keys = []
        expected_counters = [0, 0, 0, 0]
        committed_total = 0
        for name, sqls in statements.items():
            records, stats = self._isolated_run(name, sqls)
            expected_keys += [
                (name, job.job_id, key, "") for job, key in zip(jobs[name], records)
            ]
            committed_total += len(records)
            expected_counters[0] += stats.waves
            expected_counters[1] += stats.batched_queries
            expected_counters[2] += stats.regenerated_queries
            expected_counters[3] += stats.llm_requests
        deferred = len(statements) * len(QUERIES) * 2 - committed_total
        assert 0 < deferred < len(QUERIES) * 2  # beta was cut part-way through

        assert completed_keys(completed) == expected_keys
        report = service.last_drain_report
        report.duration_seconds = 0.0
        assert report == DrainReport(completed=committed_total, deferred=deferred)
        stats = service.stats
        assert [
            stats.waves,
            stats.batched_queries,
            stats.regenerated_queries,
            stats.llm_requests,
        ] == expected_counters
        assert stats.deferred == deferred and service.pending_count == deferred


class TestPerTenantStats:
    def test_per_project_breakdown(self):
        service = build_service(max_concurrency=4)
        submit_mix(service)
        per_project_submitted = {
            name: len(service.pending_jobs(name)) for name in PROJECTS
        }
        service.drain()
        for name in PROJECTS:
            slice_ = service.stats.per_project[name]
            assert slice_.submitted == per_project_submitted[name]
            assert slice_.completed == per_project_submitted[name]
            assert slice_.failed == 0
            assert slice_.pending == 0
        assert service.stats.submitted == sum(per_project_submitted.values())
        assert service.stats.completed == service.stats.submitted

    def test_per_project_stats_survive_snapshot_roundtrip(self):
        service = build_service(max_concurrency=4)
        submit_mix(service)
        service.drain()
        clone = AnnotationService()
        clone.restore_state(service.capture_state())
        assert clone.stats.per_project == service.stats.per_project
        assert clone.stats.completed == service.stats.completed


class TestRetrySalting:
    def test_join_salt_composes(self):
        assert _join_salt("", "base") == "base"
        assert _join_salt("alpha", "base") == "alpha|base"

    def test_projects_get_distinct_backoff_schedules(self):
        # Same transient error, same attempt, different tenants: the salted
        # jitter must spread their retries instead of a thundering herd.
        policy = RetryPolicy(base_delay=0.5, max_delay=8.0, jitter=0.5)
        delays_alpha = [
            policy.delay(attempt, salt=_join_salt("alpha", "SELECT 1"))
            for attempt in range(3)
        ]
        delays_beta = [
            policy.delay(attempt, salt=_join_salt("beta", "SELECT 1"))
            for attempt in range(3)
        ]
        assert delays_alpha != delays_beta
        # Determinism: the same tenant re-running the same workload backs
        # off identically.
        assert delays_alpha == [
            policy.delay(attempt, salt=_join_salt("alpha", "SELECT 1"))
            for attempt in range(3)
        ]

    def test_pipeline_salts_with_project_name(self):
        service = build_service(projects=["alpha", "beta"])
        assert service.pipeline("alpha")._retry_salt == "alpha"
        assert service.pipeline("beta")._retry_salt == "beta"


class TestCrashRecoveryConcurrent:
    def _build_durable(self, journal, max_concurrency=1):
        """A journaled two-tenant service with the standard crash workload."""
        service = AnnotationService(max_concurrency=max_concurrency)
        service.attach_journal(journal)
        for name in PROJECTS[:2]:
            service.register_project(
                name, make_schema(), config=TaskConfig(batch_size=3)
            )
        for project in PROJECTS[:2]:
            for sql in QUERIES[:4]:
                service.submit(sql, project=project)
        return service

    def _run_to_completion_sequential(self, tmp_path):
        """Reference: the same workload journaled by an uncrashed run."""
        service = self._build_durable(CrashingJournal(tmp_path / "reference.bin"))
        service.drain()
        return service.capture_state(include_accounting=False)

    @pytest.mark.parametrize("crash_after", [12, 15, 18])
    @pytest.mark.parametrize("torn_bytes", [None, 7])
    def test_crash_mid_concurrent_drain_converges(
        self, tmp_path, crash_after, torn_bytes
    ):
        # 2 PROJECT_REGISTERED + 8 JOB_SUBMITTED events precede the drain, so
        # the chosen crash points all land inside the concurrent drain's
        # ANNOTATION_COMMITTED stream.
        reference_state = self._run_to_completion_sequential(tmp_path)

        path = tmp_path / "crashed.bin"
        journal = CrashingJournal(path, crash_after=crash_after, torn_bytes=torn_bytes)
        service = self._build_durable(journal, max_concurrency=4)
        with pytest.raises(InjectedCrash):
            service.drain()

        recovered = AnnotationService.recover(path)
        # The journaled prefix replays to a strict subset of the work; the
        # lost jobs are still pending and re-draining them (sequentially)
        # must converge on exactly the uncrashed run's state.
        assert recovered.pending_count > 0
        recovered.drain()
        assert recovered.pending_count == 0
        assert (
            recovered.capture_state(include_accounting=False) == reference_state
        )

    def test_crash_then_concurrent_redrain_converges(self, tmp_path):
        reference_state = self._run_to_completion_sequential(tmp_path)
        path = tmp_path / "crashed.bin"
        journal = CrashingJournal(path, crash_after=14)
        service = self._build_durable(journal, max_concurrency=4)
        with pytest.raises(InjectedCrash):
            service.drain()
        recovered = AnnotationService.recover(path, max_concurrency=4)
        recovered.drain()
        assert (
            recovered.capture_state(include_accounting=False) == reference_state
        )
