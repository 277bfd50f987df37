"""Resilience tests: LLM retry/backoff/timeout discipline and the service's
drain fault isolation (quarantine instead of poisoned waves)."""

from __future__ import annotations

import inspect
import threading
import time

import pytest

from repro.core import AnnotationService, TaskConfig
from repro.core.pipeline import AnnotationPipeline
from repro.errors import (
    DeadlineExceededError,
    DegradedModeError,
    JournalError,
    LLMTimeoutError,
    PipelineError,
    TransientLLMError,
)
from repro.llm import RetryPolicy, SimulatedLLM, is_transient_error
from repro.llm.base import LLMClient
from repro.llm.resilience import Deadline
from repro.obs import Telemetry

from tests.faults import DiskFaultJournal, FlakyLLM, SlowLLM
from tests.test_recovery import QUERIES, make_schema, semantic_state


def make_pipeline(llm=None, config=None) -> AnnotationPipeline:
    return AnnotationPipeline(
        schema=make_schema(), config=config, llm=llm, dataset_name="hr"
    )


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------

class TestRetryPolicy:
    def test_delays_are_exponential_capped_and_deterministic(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, max_delay=0.5, jitter=0.0)
        assert [policy.delay(n) for n in range(4)] == [0.1, 0.2, 0.4, 0.5]
        jittered = RetryPolicy(base_delay=0.1, max_delay=0.5, jitter=0.5)
        for attempt in range(4):
            first = jittered.delay(attempt, salt="query-1")
            assert first == jittered.delay(attempt, salt="query-1")  # deterministic
            raw = min(0.5, 0.1 * 2**attempt)
            assert raw * 0.5 <= first <= raw  # jitter only shaves, never inflates

    def test_transient_classification(self):
        assert is_transient_error(TransientLLMError("overloaded"))
        assert is_transient_error(LLMTimeoutError("deadline"))
        assert is_transient_error(ConnectionError("reset"))
        assert is_transient_error(TimeoutError("socket"))
        tagged = ValueError("rate limited")
        tagged.transient = True
        assert is_transient_error(tagged)
        assert not is_transient_error(ValueError("bad prompt"))

    def test_config_knobs_validate_and_round_trip(self):
        config = TaskConfig(
            llm_max_attempts=4,
            llm_retry_base_delay=0.01,
            llm_retry_max_delay=0.1,
            llm_retry_jitter=0.25,
            llm_call_timeout=1.5,
        )
        config.validate()
        policy = config.retry_policy()
        assert policy == RetryPolicy(
            max_attempts=4, base_delay=0.01, max_delay=0.1, jitter=0.25, call_timeout=1.5
        )
        assert TaskConfig.from_dict(config.to_dict()) == config
        for bad in (
            TaskConfig(llm_max_attempts=0),
            TaskConfig(llm_retry_base_delay=-1),
            TaskConfig(llm_retry_jitter=1.5),
            TaskConfig(llm_call_timeout=0),
        ):
            with pytest.raises(PipelineError):
                bad.validate()


# ----------------------------------------------------------------------
# client-level retries
# ----------------------------------------------------------------------

class TestClientRetries:
    def test_transient_failures_are_retried_to_success(self):
        llm = FlakyLLM(SimulatedLLM("gpt-4o", schema=make_schema()), fail_times=2)
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        pipeline = make_pipeline()  # only for a realistic prompt
        prompt = pipeline.generate_candidates(QUERIES[0]).prompt
        (result,) = llm.generate_batch_with_retry([prompt], policy)
        assert result.candidates
        assert llm.calls == 3 and llm.failures_injected == 2

    def test_exhausted_retries_surface_the_transient_error(self):
        llm = FlakyLLM(SimulatedLLM("gpt-4o", schema=make_schema()), fail_times=5)
        prompt = make_pipeline().generate_candidates(QUERIES[0]).prompt
        with pytest.raises(TransientLLMError):
            llm.generate_batch_with_retry([prompt], RetryPolicy(max_attempts=3, base_delay=0.0))
        assert llm.calls == 3  # stopped at the attempt budget

    def test_terminal_errors_fail_fast(self):
        llm = FlakyLLM(
            SimulatedLLM("gpt-4o", schema=make_schema()),
            fail_times=5,
            error_factory=lambda n: ValueError(f"bad prompt #{n}"),
        )
        prompt = make_pipeline().generate_candidates(QUERIES[0]).prompt
        with pytest.raises(ValueError):
            llm.generate_batch_with_retry([prompt], RetryPolicy(max_attempts=3, base_delay=0.0))
        assert llm.calls == 1  # no retry on terminal errors

    def test_no_policy_means_plain_call(self):
        llm = FlakyLLM(SimulatedLLM("gpt-4o", schema=make_schema()), fail_times=1)
        prompt = make_pipeline().generate_candidates(QUERIES[0]).prompt
        with pytest.raises(TransientLLMError):
            llm.generate_batch_with_retry([prompt], None)
        assert llm.calls == 1

    def test_call_timeout_raises_and_is_transient(self):
        llm = SlowLLM(SimulatedLLM("gpt-4o", schema=make_schema()), delay_seconds=0.4)
        prompt = make_pipeline().generate_candidates(QUERIES[0]).prompt
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, call_timeout=0.05)
        started = time.monotonic()
        with pytest.raises(LLMTimeoutError):
            llm.generate_batch_with_retry([prompt], policy)
        # Two attempts, each cut at ~0.05s — nowhere near 2 × 0.4s of sleeping.
        assert time.monotonic() - started < 0.6

    def test_batch_retry_covers_generate_batch(self):
        llm = FlakyLLM(SimulatedLLM("gpt-4o", schema=make_schema()), fail_times=1)
        pipeline = make_pipeline()
        prompts = [pipeline.generate_candidates(sql).prompt for sql in QUERIES[:2]]
        results = llm.generate_batch_with_retry(
            prompts, RetryPolicy(max_attempts=2, base_delay=0.0)
        )
        assert len(results) == 2 and llm.failures_injected == 1


# ----------------------------------------------------------------------
# timed calls and the retry-budget check
# ----------------------------------------------------------------------

class TestTimedCalls:
    def test_untimed_call_runs_on_the_calling_thread(self):
        llm = SimulatedLLM("gpt-4o", schema=make_schema())
        caller = threading.current_thread()
        ran_on = llm._call_with_timeout(threading.current_thread, None)
        assert ran_on is caller
        assert getattr(llm, "_timeout_executor", None) is None  # no pool made

    def test_timed_calls_share_one_lazily_made_pool(self):
        llm = SimulatedLLM("gpt-4o", schema=make_schema())
        first = llm._call_with_timeout(threading.current_thread, 5.0)
        pool = llm._timeout_executor
        second = llm._call_with_timeout(threading.current_thread, 5.0)
        assert llm._timeout_executor is pool
        for worker in (first, second):
            assert worker is not threading.current_thread()
            assert worker.name.startswith("gpt-4o-llm-timeout")

    def test_timed_call_propagates_the_callee_error_unwrapped(self):
        llm = SimulatedLLM("gpt-4o", schema=make_schema())

        def broken():
            raise KeyError("inside the call")

        with pytest.raises(KeyError):
            llm._call_with_timeout(broken, 5.0)

    def test_timed_result_matches_an_untimed_one(self):
        prompt = make_pipeline().generate_candidates(QUERIES[0]).prompt
        plain = SimulatedLLM("gpt-4o", schema=make_schema()).generate_batch_with_retry(
            [prompt]
        )
        timed = SimulatedLLM("gpt-4o", schema=make_schema()).generate_batch_with_retry(
            [prompt], RetryPolicy(max_attempts=1, call_timeout=5.0)
        )
        assert timed == plain

    def test_batch_call_timeout_raises(self):
        llm = SlowLLM(SimulatedLLM("gpt-4o", schema=make_schema()), delay_seconds=0.3)
        pipeline = make_pipeline()
        prompts = [pipeline.generate_candidates(sql).prompt for sql in QUERIES[:2]]
        with pytest.raises(LLMTimeoutError):
            llm.generate_batch_with_retry(
                prompts, RetryPolicy(max_attempts=1, call_timeout=0.05)
            )

    def test_timed_transient_failures_are_retried_to_success(self):
        llm = FlakyLLM(SimulatedLLM("gpt-4o", schema=make_schema()), fail_times=1)
        prompt = make_pipeline().generate_candidates(QUERIES[0]).prompt
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, call_timeout=5.0)
        assert llm.generate_batch_with_retry([prompt], policy)[0].candidates
        assert llm.calls == 2 and llm.failures_injected == 1

    def test_timeouts_are_counted(self):
        telemetry = Telemetry()
        llm = SlowLLM(SimulatedLLM("gpt-4o", schema=make_schema()), delay_seconds=0.3)
        llm.telemetry = telemetry
        prompt = make_pipeline().generate_candidates(QUERIES[0]).prompt
        with pytest.raises(LLMTimeoutError):
            llm.generate_batch_with_retry([prompt], RetryPolicy(max_attempts=1, call_timeout=0.05))
        assert "llm_timeouts_total" in telemetry.metrics_dict()

    def test_effective_timeout_takes_the_tightest_bound(self):
        clock = FakeClock()
        llm = SimulatedLLM("gpt-4o", schema=make_schema())
        tel = Telemetry()
        assert llm._effective_timeout(2.0, None, None, tel) == (2.0, False)
        assert llm._effective_timeout(None, None, None, tel) == (None, False)
        deadline = Deadline(0.5, clock=clock)
        assert llm._effective_timeout(2.0, deadline, None, tel) == (0.5, True)
        assert llm._effective_timeout(0.2, deadline, None, tel) == (0.2, False)
        budget = Deadline(0.3, clock=clock)
        assert llm._effective_timeout(None, deadline, budget, tel) == (0.3, True)
        clock.advance(1.0)
        with pytest.raises(DeadlineExceededError):
            llm._effective_timeout(2.0, deadline, None, tel)

    def test_delay_fits_checks_every_active_bound(self):
        clock = FakeClock()
        fits = LLMClient._delay_fits
        assert fits(10.0, None, None)
        roomy, tight = Deadline(1.0, clock=clock), Deadline(0.1, clock=clock)
        assert fits(0.05, roomy, tight)
        assert not fits(0.5, roomy, tight)  # the budget binds
        assert not fits(0.5, tight, roomy)  # the deadline binds
        assert not fits(0.1, tight, None)  # a sleep to the edge does not fit

    def test_entry_points_take_no_hedge_option(self):
        for method in (
            LLMClient.generate_batch_with_retry,
            LLMClient._resilient_call,
        ):
            assert "hedge" not in inspect.signature(method).parameters


# ----------------------------------------------------------------------
# pipeline-level retries
# ----------------------------------------------------------------------

class TestPipelineRetries:
    def test_pipeline_survives_transient_flake(self):
        config = TaskConfig(llm_max_attempts=3, llm_retry_base_delay=0.0)
        llm = FlakyLLM(SimulatedLLM("gpt-4o", schema=make_schema()), fail_times=2)
        pipeline = make_pipeline(llm=llm, config=config)
        record = pipeline.annotate(QUERIES[0])
        assert record.accepted

    def test_pipeline_without_retries_propagates(self):
        config = TaskConfig(llm_max_attempts=1)
        llm = FlakyLLM(SimulatedLLM("gpt-4o", schema=make_schema()), fail_times=1)
        pipeline = make_pipeline(llm=llm, config=config)
        with pytest.raises(TransientLLMError):
            pipeline.annotate(QUERIES[0])

    def test_retried_run_is_bit_identical_to_smooth_run(self):
        config = TaskConfig(llm_max_attempts=3, llm_retry_base_delay=0.0)
        smooth = make_pipeline(config=config)
        flaky = make_pipeline(
            llm=FlakyLLM(SimulatedLLM("gpt-4o", schema=make_schema()), fail_times=2),
            config=config,
        )
        smooth_records = smooth.annotate_many(QUERIES)
        flaky_records = flaky.annotate_many(QUERIES)
        assert flaky_records == smooth_records


# ----------------------------------------------------------------------
# drain fault isolation
# ----------------------------------------------------------------------

class TestDrainIsolation:
    POISON = "SELEC name FRM employees"  # parses at submit, dies at annotate

    def test_poisoned_job_is_quarantined_not_fatal(self):
        service = AnnotationService()
        service.register_project("hr", make_schema())
        service.submit(QUERIES[0], project="hr")
        service.submit(self.POISON, project="hr")
        service.submit(QUERIES[1], project="hr")
        completed = service.drain()

        assert len(completed) == 3
        failures = [item for item in completed if item.failed]
        assert len(failures) == 1
        assert failures[0].job.sql == self.POISON
        assert failures[0].record is None and failures[0].error
        assert service.quarantine == failures
        assert service.stats.failed == 1
        assert service.stats.completed == 2
        assert service.stats.pending == 0
        # the healthy jobs produced real annotations
        healthy = [item for item in completed if not item.failed]
        assert all(item.record.accepted for item in healthy)
        assert service.pipeline("hr").example_count == 2

    def test_isolated_records_match_a_poison_free_run(self):
        poisoned = AnnotationService()
        poisoned.register_project("hr", make_schema())
        for sql in (QUERIES[0], self.POISON, QUERIES[1], QUERIES[2]):
            poisoned.submit(sql, project="hr")
        poisoned_records = [
            item.record for item in poisoned.drain() if not item.failed
        ]

        clean = AnnotationService()
        clean.register_project("hr", make_schema())
        for sql in (QUERIES[0], QUERIES[1], QUERIES[2]):
            clean.submit(sql, project="hr")
        clean_records = [item.record for item in clean.drain()]

        # Same annotations (ignoring auto query-id numbering, which counts
        # every produced record): SQL, NL and acceptance all line up.
        assert [(r.sql, r.nl, r.accepted) for r in poisoned_records] == [
            (r.sql, r.nl, r.accepted) for r in clean_records
        ]

    def test_quarantine_survives_recovery(self, tmp_path):
        service = AnnotationService.open_durable(tmp_path / "svc")
        service.register_project("hr", make_schema())
        service.submit(QUERIES[0], project="hr")
        service.submit(self.POISON, project="hr")
        service.drain()
        assert service.stats.failed == 1
        live = semantic_state(service)
        assert live["quarantine"]
        service.close()

        recovered = AnnotationService.open_durable(tmp_path / "svc")
        assert semantic_state(recovered) == live
        assert recovered.stats.failed == 1
        assert recovered.stats.pending == 0
        recovered.close()

    def _poisoned(self, llm=None) -> AnnotationService:
        """One project holding the poison first, then all five healthy jobs."""
        service = AnnotationService()
        service.register_project("hr", make_schema(), llm=llm)
        service.submit(self.POISON, project="hr")
        service.submit_many(QUERIES, project="hr")
        return service

    def test_isolation_waves_run_under_the_drain_deadline(self):
        llm = SlowLLM(SimulatedLLM("gpt-4o", schema=make_schema()), delay_seconds=0.05)
        service = self._poisoned(llm=llm)
        service.drain(deadline=0.1)
        report = service.last_drain_report
        assert report.failed == 1
        assert report.deferred > 0
        assert report.completed + report.deferred == len(QUERIES)
        assert service.pending_count == report.deferred

    def test_isolation_waves_count_their_llm_requests(self):
        service = self._poisoned()
        usage = service.pipeline("hr").llm.usage
        before = usage.requests
        service.drain()
        assert service.stats.completed == len(QUERIES)
        assert service.stats.llm_requests == usage.requests - before > 0

    def test_isolation_waves_count_every_completed_job_once(self):
        service = self._poisoned()
        service.drain()
        stats = service.stats
        assert stats.completed == len(QUERIES)
        assert stats.batched_queries + stats.regenerated_queries == stats.completed
        assert stats.waves > 0

    def test_a_failed_size_one_wave_retries_its_statement_in_isolation(self):
        # The cold archive makes the first wave hold one statement; its one
        # LLM attempt fails, and the isolation wave after it succeeds.
        llm = FlakyLLM(SimulatedLLM("gpt-4o", schema=make_schema()), fail_times=1)
        service = AnnotationService()
        service.register_project("hr", make_schema(), llm=llm,
                                 config=TaskConfig(llm_max_attempts=1))
        service.submit_many(QUERIES[:2], project="hr")
        completed = service.drain()
        assert [item.job.sql for item in completed] == QUERIES[:2]
        assert not service.quarantine
        assert llm.calls == 3

    def test_a_one_job_run_parks_its_failure_at_once(self):
        llm = FlakyLLM(SimulatedLLM("gpt-4o", schema=make_schema()), fail_times=1)
        service = AnnotationService()
        service.register_project("hr", make_schema(), llm=llm,
                                 config=TaskConfig(llm_max_attempts=1))
        service.submit(QUERIES[0], project="hr")
        service.drain()
        assert [item.job.sql for item in service.quarantine] == [QUERIES[0]]
        assert llm.calls == 1

    def test_disk_fault_after_a_parked_failure_defers_it(self, tmp_path):
        # Appends: register=1, submits=2..6; the first two healthy commits
        # land (7, 8) and the third one's append faults.
        journal = DiskFaultJournal(tmp_path / "journal.bin", fail_at=9)
        service = AnnotationService()
        service.attach_journal(journal)
        service.register_project("hr", make_schema())
        statements = [QUERIES[0], self.POISON, *QUERIES[1:4]]
        for sql in statements:
            service.submit(sql, project="hr")

        completed = service.drain()
        assert service.degraded
        assert [item.job.sql for item in completed] == QUERIES[:2]
        assert all(item.record.sql == item.job.sql for item in completed)
        assert not service.quarantine and service.stats.failed == 0
        assert [job.sql for job in service.pending_jobs()] == [
            self.POISON, *QUERIES[2:4]
        ]
        assert service.last_drain_report.deferred == 3

    def test_flaky_batch_call_heals_within_the_drain(self):
        config = TaskConfig(llm_max_attempts=3, llm_retry_base_delay=0.0)
        llm = FlakyLLM(SimulatedLLM("gpt-4o", schema=make_schema()), fail_times=2)
        service = AnnotationService()
        service.register_project("hr", make_schema(), config=config, llm=llm)
        service.submit_many(QUERIES, project="hr")
        completed = service.drain()
        assert len(completed) == len(QUERIES)
        assert not any(item.failed for item in completed)
        assert service.stats.failed == 0

    def test_journal_errors_are_never_swallowed(self, tmp_path):
        service = AnnotationService.open_durable(tmp_path / "svc")
        service.register_project("hr", make_schema())
        service.submit(QUERIES[0], project="hr")
        service.journal.close()  # durability lost mid-flight
        with pytest.raises(JournalError):
            service.drain()


# ----------------------------------------------------------------------
# deadline budgets
# ----------------------------------------------------------------------

class FakeClock:
    """Steppable monotonic clock for deadline unit tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_remaining_and_expired(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        assert deadline.remaining() == pytest.approx(1.0)
        clock.advance(1.5)
        assert deadline.expired and deadline.remaining() == 0.0
        with pytest.raises(PipelineError):
            Deadline(-1.0)

    def test_coerce(self):
        assert Deadline.coerce(None) is None
        existing = Deadline(1.0)
        assert Deadline.coerce(existing) is existing
        coerced = Deadline.coerce(2)
        assert isinstance(coerced, Deadline) and coerced.budget == 2.0

    def test_expired_deadline_fails_before_calling_the_backend(self):
        llm = FlakyLLM(SimulatedLLM("gpt-4o", schema=make_schema()), fail_times=0)
        prompt = make_pipeline().generate_candidates(QUERIES[0]).prompt
        clock = FakeClock()
        deadline = Deadline(0.5, clock=clock)
        clock.advance(1.0)
        with pytest.raises(DeadlineExceededError):
            llm.generate_batch_with_retry([prompt], None, deadline=deadline)
        assert llm.calls == 0

    def test_deadline_cut_call_raises_deadline_exceeded_not_retried(self):
        llm = FlakyLLM(
            SlowLLM(SimulatedLLM("gpt-4o", schema=make_schema()), delay_seconds=0.5),
            fail_times=0,
        )
        prompt = make_pipeline().generate_candidates(QUERIES[0]).prompt
        with pytest.raises(DeadlineExceededError) as excinfo:
            llm.generate_batch_with_retry(
                [prompt],
                RetryPolicy(max_attempts=3, base_delay=0.0, call_timeout=1.0),
                deadline=Deadline(0.05),
            )
        # The call was cut at the caller's deadline, not at its own timeout:
        # that is a deferral signal, not a transient backend failure to retry.
        assert not isinstance(excinfo.value, LLMTimeoutError)
        assert isinstance(excinfo.value.__cause__, LLMTimeoutError)
        assert llm.calls == 1

    def test_drain_stops_within_a_tenth_of_its_budget(self):
        # 24 Spider jobs in waves of two against a 25 ms backend need about
        # 0.3 s; a 0.25 s deadline must stop the drain within 10% of the
        # budget, defer the rest intact and let a later drain finish it.
        from repro.workloads import build_benchmark

        workload = build_benchmark("Spider", seed=7, row_scale=0.0015, query_count=24)
        jobs = workload.query_sql
        service = AnnotationService()
        service.register_project(
            "bench",
            workload.schema,
            config=TaskConfig(batch_size=2),
            llm=SlowLLM(SimulatedLLM("gpt-4o", schema=workload.schema), 0.025),
        )
        service.submit_many(jobs, project="bench")
        budget = 0.25
        started = time.perf_counter()
        completed = service.drain(deadline=budget)
        elapsed = time.perf_counter() - started
        report = service.last_drain_report
        assert report is not None and report.deadline_expired
        assert len(completed) + report.deferred == len(jobs)
        assert max(0.0, elapsed - budget) / budget <= 0.10, elapsed

        service.drain()
        assert service.pending_count == 0 and not service.quarantine
        assert len(service.pipeline("bench").annotations) == len(jobs)

    def test_drain_with_expired_deadline_defers_everything(self):
        service = AnnotationService()
        service.register_project("hr", make_schema())
        service.submit_many(QUERIES[:3], project="hr")
        completed = service.drain(deadline=0.0)
        assert completed == []
        report = service.last_drain_report
        assert report is not None
        assert report.deferred == 3 and report.deadline_expired
        assert service.pending_count == 3  # re-queued, not lost
        assert service.stats.deferred == 3
        assert service.stats.pending == 3

        # A later, unconstrained drain picks the deferred jobs back up.
        completed = service.drain()
        assert len(completed) == 3 and not any(item.failed for item in completed)
        assert service.pending_count == 0

    def test_deferred_drain_results_match_an_undeferred_run(self):
        deferred = AnnotationService()
        deferred.register_project("hr", make_schema())
        deferred.submit_many(QUERIES, project="hr")
        deferred.drain(deadline=0.0)  # defer everything once
        records_deferred = [item.record for item in deferred.drain()]

        plain = AnnotationService()
        plain.register_project("hr", make_schema())
        plain.submit_many(QUERIES, project="hr")
        records_plain = [item.record for item in plain.drain()]
        assert records_deferred == records_plain


# ----------------------------------------------------------------------
# retry budget
# ----------------------------------------------------------------------

class TestRetryBudget:
    def test_budget_stops_backoff_sleeps_early(self):
        llm = FlakyLLM(SimulatedLLM("gpt-4o", schema=make_schema()), fail_times=10)
        prompt = make_pipeline().generate_candidates(QUERIES[0]).prompt
        policy = RetryPolicy(
            max_attempts=10, base_delay=0.5, jitter=0.0, retry_budget_s=0.05
        )
        started = time.monotonic()
        with pytest.raises(TransientLLMError):
            llm.generate_batch_with_retry([prompt], policy)
        elapsed = time.monotonic() - started
        # Without the budget this would sleep ~0.5s after the first failure
        # alone; the budget refuses the first backoff that does not fit.
        assert elapsed < 0.3
        assert llm.calls < 4

    def test_budget_with_fitting_delays_still_heals(self):
        llm = FlakyLLM(SimulatedLLM("gpt-4o", schema=make_schema()), fail_times=2)
        prompt = make_pipeline().generate_candidates(QUERIES[0]).prompt
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.001, jitter=0.0, retry_budget_s=5.0
        )
        (result,) = llm.generate_batch_with_retry([prompt], policy)
        assert result.candidates and llm.calls == 3

    def test_config_knob_validates(self):
        config = TaskConfig(llm_retry_budget_s=1.5)
        config.validate()
        assert config.retry_policy().retry_budget_s == 1.5
        with pytest.raises(PipelineError):
            TaskConfig(llm_retry_budget_s=0).validate()


# ----------------------------------------------------------------------
# degraded mode (disk faults)
# ----------------------------------------------------------------------

class TestDegradedMode:
    def test_disk_fault_mid_drain_salvages_and_degrades(self, tmp_path):
        # Appends: register=1, submits=2..6, commits start at 7; failing the
        # 9th append kills the third commit.
        journal = DiskFaultJournal(tmp_path / "journal.bin", fail_at=9)
        service = AnnotationService()
        service.attach_journal(journal)
        service.register_project("hr", make_schema())
        service.submit_many(QUERIES, project="hr")

        completed = service.drain()  # salvaged, not raised
        assert service.degraded
        report = service.last_drain_report
        assert report is not None and report.degraded
        assert len(completed) + report.deferred == len(QUERIES)
        assert len(completed) >= 2  # the journaled prefix
        assert service.pending_count == report.deferred
        assert service.stats.deferred == report.deferred
        assert service.journal is None  # detached on degradation

        with pytest.raises(DegradedModeError):
            service.submit(QUERIES[0], project="hr")
        with pytest.raises(DegradedModeError):
            service.drain()
        # Reads still work in degraded mode.
        assert service.pipeline("hr").annotations
        assert service.capture_state()["projects"]

    def test_disk_fault_at_submit_rejects_and_degrades(self, tmp_path):
        journal = DiskFaultJournal(tmp_path / "journal.bin", fail_at=2)
        service = AnnotationService()
        service.attach_journal(journal)
        service.register_project("hr", make_schema())
        with pytest.raises(DegradedModeError):
            service.submit(QUERIES[0], project="hr")
        assert service.degraded
        assert service.pending_count == 0  # nothing half-enqueued
        assert service.stats.submitted == 0

    def test_recovery_from_degraded_journal_completes_the_work(self, tmp_path):
        journal = DiskFaultJournal(tmp_path / "journal.bin", fail_at=9)
        service = AnnotationService()
        service.attach_journal(journal)
        service.register_project("hr", make_schema())
        service.submit_many(QUERIES, project="hr")
        service.drain()
        assert service.degraded

        recovered = AnnotationService.recover(tmp_path / "journal.bin")
        assert not recovered.degraded
        assert recovered.pending_count > 0  # the jobs the fault deferred
        recovered.drain()
        assert recovered.pending_count == 0
        assert len(recovered.pipeline("hr").annotations) == len(QUERIES)

        clean = AnnotationService()
        clean.register_project("hr", make_schema())
        clean.submit_many(QUERIES, project="hr")
        clean.drain()
        assert [
            (r.sql, r.nl, r.accepted)
            for r in recovered.pipeline("hr").annotations
        ] == [
            (r.sql, r.nl, r.accepted) for r in clean.pipeline("hr").annotations
        ]
        recovered.close()

    def test_degraded_transition_telemetry(self, tmp_path):
        telemetry = Telemetry()
        journal = DiskFaultJournal(tmp_path / "journal.bin", fail_at=3)
        service = AnnotationService(telemetry=telemetry)
        service.attach_journal(journal)
        service.register_project("hr", make_schema())
        service.submit(QUERIES[0], project="hr")
        with pytest.raises(DegradedModeError):
            service.submit(QUERIES[1], project="hr")
        snapshot = telemetry.metrics_dict()
        assert (
            snapshot["service_degraded_transitions_total"]["series"][0]["value"]
            == 1.0
        )


# ----------------------------------------------------------------------
# context managers
# ----------------------------------------------------------------------

class TestContextManagers:
    def test_service_context_manager_closes_the_journal(self, tmp_path):
        with AnnotationService.open_durable(tmp_path / "svc") as service:
            service.register_project("hr", make_schema())
            service.submit(QUERIES[0], project="hr")
            service.drain()
            assert service.journal is not None
        assert service.journal is None  # closed (and detached) on exit
        service.close()  # idempotent

        with AnnotationService.open_durable(tmp_path / "svc") as recovered:
            assert len(recovered.pipeline("hr").annotations) == 1

    def test_journal_context_manager_is_idempotent(self, tmp_path):
        from repro.core import EventJournal

        with EventJournal(tmp_path / "journal.bin") as journal:
            journal.append("alpha", {})
            journal.close()  # early close inside the block is fine
        with pytest.raises(JournalError):
            journal.append("beta", {})
