"""Resilience benchmark: goodput under failures and deadline fidelity.

Two measurements, one per degradation mechanism this repo ships:

* **Goodput under failures** — an LLM backend whose transient failures come
  in seeded Markov bursts (~30% of calls fail overall, matching real outages
  where errors are correlated, not i.i.d.).  The *retry-only* arm burns deep
  exponential backoff per job and quarantines whatever exhausts it; the
  *breaker+defer* arm fast-fails through an open circuit breaker, defers the
  batch, probes on a short recovery clock and loses nothing.  Goodput is
  completed annotations per second; the breaker arm must keep ≥
  ``min_goodput_ratio`` times the retry-only arm's.
* **Deadline fidelity** — ``drain(deadline=...)`` against a slow backend
  must stop within ``max_overshoot`` of the budget, defer the remainder
  intact, and complete it on the next unconstrained drain.

Set ``RESILIENCE_BENCH_PROFILE=smoke`` (or run ``python
benchmarks/bench_resilience.py --smoke``) for the CI-sized run.  Emits
``BENCH_resilience.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from pathlib import Path

import pytest

from repro.core import AnnotationService, TaskConfig
from repro.errors import TransientLLMError
from repro.llm import SimulatedLLM
from repro.llm.base import LLMClient
from repro.llm.prompts import Prompt

# Running as a script (``python benchmarks/bench_resilience.py``) puts only
# ``benchmarks/`` on sys.path; the repo root is needed for ``tests.faults``.
_REPO_ROOT = str(Path(__file__).resolve().parents[1])
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

from tests.faults import SlowLLM

PROFILES = {
    "full": {
        "goodput_jobs": 60,
        "failure_latency_seconds": 0.03,
        "min_goodput_ratio": 2.0,
        "deadline_jobs": 40,
        "deadline_budget_seconds": 0.5,
        "deadline_llm_delay_seconds": 0.03,
        "max_overshoot": 0.05,
    },
    "smoke": {
        "goodput_jobs": 24,
        "failure_latency_seconds": 0.01,
        "min_goodput_ratio": 1.5,
        "deadline_jobs": 24,
        "deadline_budget_seconds": 0.25,
        "deadline_llm_delay_seconds": 0.025,
        "max_overshoot": 0.10,
    },
}

PROFILE = os.environ.get("RESILIENCE_BENCH_PROFILE", "full")
ROW_SCALE = 0.0015
SEED = 7
BATCH_SIZE = 4


@pytest.fixture(scope="module")
def workload():
    from repro.workloads import build_benchmark

    profile = PROFILES[PROFILE]
    count = max(profile["goodput_jobs"], profile["deadline_jobs"])
    return build_benchmark("Spider", seed=SEED, row_scale=ROW_SCALE, query_count=count)


# ----------------------------------------------------------------------
# fault-injecting backends
# ----------------------------------------------------------------------

class MarkovOutageLLM(LLMClient):
    """Backend whose failures arrive in seeded bursts.

    A two-state Markov chain over calls: after a failure the next call fails
    with ``p_fail_after_fail`` (bursts persist); after a success it fails
    with ``p_fail_after_ok`` (bursts are rare).  The stationary failure rate
    is ~30% with the defaults.  Failed calls cost ``failure_latency`` —
    a real failed request burns a connection/timeout, it is never free —
    which is exactly the cost an open breaker refuses to keep paying.
    """

    def __init__(
        self,
        inner: LLMClient,
        seed: int,
        p_fail_after_fail: float = 0.9,
        p_fail_after_ok: float = 0.045,
        failure_latency: float = 0.03,
    ) -> None:
        self.inner = inner
        self.name = inner.name
        self.rng = random.Random(seed)
        self.p_fail_after_fail = p_fail_after_fail
        self.p_fail_after_ok = p_fail_after_ok
        self.failure_latency = failure_latency
        self.last_failed = False
        self.calls = 0
        self.failures = 0

    @property
    def example_content_sensitive(self) -> bool:  # type: ignore[override]
        return self.inner.example_content_sensitive

    def _maybe_fail(self) -> None:
        self.calls += 1
        threshold = self.p_fail_after_fail if self.last_failed else self.p_fail_after_ok
        if self.rng.random() < threshold:
            self.last_failed = True
            self.failures += 1
            time.sleep(self.failure_latency)
            raise TransientLLMError(f"injected burst failure #{self.failures}")
        self.last_failed = False

    def generate(self, prompt: Prompt):
        self._maybe_fail()
        return self.inner.generate(prompt)

    def generate_batch(self, prompts: list[Prompt]):
        self._maybe_fail()
        return self.inner.generate_batch(prompts)

    def backtranslate(self, description: str, schema_text: str = "") -> str | None:
        return self.inner.backtranslate(description, schema_text)


# ----------------------------------------------------------------------
# part A: goodput under burst failures
# ----------------------------------------------------------------------

def _goodput_arm(workload, profile, *, breaker: bool):
    """Submit the job mix against a bursty backend; drive drains to the end.

    Returns (completed, lost, elapsed, failure_rate).  Both arms face the
    same Markov fault process (same seed and parameters); only the coping
    strategy differs — deep retries + quarantine vs shallow retry + breaker
    deferral.
    """
    jobs = workload.query_sql[: profile["goodput_jobs"]]
    llm = MarkovOutageLLM(
        SimulatedLLM("gpt-4o", schema=workload.schema),
        seed=SEED,
        failure_latency=profile["failure_latency_seconds"],
    )
    if breaker:
        # window=4 @ 50% means two consecutive failures always trip the
        # breaker, so the third attempt of any burst-struck job hits an open
        # circuit and the job *defers* — quarantine is impossible here.  Zero
        # backoff: pacing is the breaker's recovery clock, not per-call sleeps
        # (a backoff longer than the recovery window would let the job's own
        # last attempt become the half-open probe and fail it terminally).
        config = TaskConfig(
            batch_size=BATCH_SIZE,
            llm_max_attempts=3,
            llm_retry_base_delay=0.0,
            llm_retry_jitter=0.0,
            breaker_enabled=True,
            breaker_window=4,
            breaker_failure_rate=0.5,
            breaker_min_calls=2,
            breaker_recovery_s=0.02,
        )
    else:
        config = TaskConfig(
            batch_size=BATCH_SIZE,
            llm_max_attempts=3,
            llm_retry_base_delay=0.1,
            llm_retry_jitter=0.0,
        )
    service = AnnotationService()
    service.register_project("bench", workload.schema, config=config, llm=llm)
    service.submit_many(jobs, project="bench")

    started = time.perf_counter()
    guard = 0
    while service.pending_count and guard < 500:
        guard += 1
        service.drain()
        report = service.last_drain_report
        if report is not None and report.deferred and service.pending_count:
            time.sleep(config.breaker_recovery_s + 0.005)
    elapsed = time.perf_counter() - started

    completed = sum(
        1 for record in service.pipeline("bench").annotations
    )
    lost = len(service.quarantine)
    failure_rate = llm.failures / llm.calls if llm.calls else 0.0
    assert service.pending_count == 0
    assert completed + lost == len(jobs)
    return completed, lost, elapsed, failure_rate


# ----------------------------------------------------------------------
# part B: deadline fidelity
# ----------------------------------------------------------------------

def _deadline_run(workload, profile):
    jobs = workload.query_sql[: profile["deadline_jobs"]]
    service = AnnotationService()
    service.register_project(
        "bench",
        workload.schema,
        config=TaskConfig(batch_size=2),
        llm=SlowLLM(
            SimulatedLLM("gpt-4o", schema=workload.schema),
            profile["deadline_llm_delay_seconds"],
        ),
    )
    service.submit_many(jobs, project="bench")
    budget = profile["deadline_budget_seconds"]
    started = time.perf_counter()
    completed = service.drain(deadline=budget)
    elapsed = time.perf_counter() - started
    report = service.last_drain_report
    assert report is not None and report.deadline_expired
    assert len(completed) + report.deferred == len(jobs)
    overshoot = max(0.0, elapsed - budget) / budget
    # The deferred remainder survives intact and completes unconstrained.
    service.drain()
    assert service.pending_count == 0
    assert len(service.pipeline("bench").annotations) == len(jobs)
    return len(completed), report.deferred, elapsed, overshoot


# ----------------------------------------------------------------------
# the benchmark
# ----------------------------------------------------------------------

def test_resilience_benchmark(benchmark, workload):
    profile = PROFILES[PROFILE]

    # Part A — goodput under burst failures.
    retry_completed, retry_lost, retry_elapsed, retry_rate = _goodput_arm(
        workload, profile, breaker=False
    )
    brk_completed, brk_lost, brk_elapsed, brk_rate = _goodput_arm(
        workload, profile, breaker=True
    )
    retry_goodput = retry_completed / retry_elapsed
    breaker_goodput = brk_completed / brk_elapsed
    goodput_ratio = breaker_goodput / retry_goodput

    # Part B — deadline fidelity.
    dl_completed, dl_deferred, dl_elapsed, overshoot = _deadline_run(workload, profile)

    # One harness round (the cheap deadline run) so the shared benchmark
    # reporting stays comparable with the other bench_* files.
    benchmark.pedantic(
        lambda: _deadline_run(workload, profile), rounds=1, iterations=1
    )

    print()
    print(f"profile: {PROFILE}")
    print(
        f"goodput:  retry-only {retry_goodput:6.1f} jobs/s "
        f"({retry_completed} done, {retry_lost} lost, "
        f"{retry_rate * 100:0.0f}% calls failed)   "
        f"breaker+defer {breaker_goodput:6.1f} jobs/s "
        f"({brk_completed} done, {brk_lost} lost)   "
        f"ratio {goodput_ratio:0.2f}x (floor {profile['min_goodput_ratio']}x)"
    )
    print(
        f"deadline: budget {profile['deadline_budget_seconds']:0.2f}s  "
        f"elapsed {dl_elapsed:0.3f}s  overshoot {overshoot * 100:0.1f}% "
        f"(cap {profile['max_overshoot'] * 100:0.0f}%)  "
        f"{dl_completed} done / {dl_deferred} deferred, all completed after"
    )

    report_path = Path(__file__).resolve().parents[1] / "BENCH_resilience.json"
    report_path.write_text(
        json.dumps(
            {
                "benchmark": "resilience",
                "profile": PROFILE,
                "goodput": {
                    "jobs": profile["goodput_jobs"],
                    "observed_failure_rate": round(retry_rate, 3),
                    "retry_only": {
                        "completed": retry_completed,
                        "lost": retry_lost,
                        "elapsed_seconds": round(retry_elapsed, 4),
                        "jobs_per_second": round(retry_goodput, 2),
                    },
                    "breaker_defer": {
                        "completed": brk_completed,
                        "lost": brk_lost,
                        "elapsed_seconds": round(brk_elapsed, 4),
                        "jobs_per_second": round(breaker_goodput, 2),
                    },
                    "ratio": round(goodput_ratio, 3),
                    "min_ratio": profile["min_goodput_ratio"],
                },
                "deadline": {
                    "jobs": profile["deadline_jobs"],
                    "budget_seconds": profile["deadline_budget_seconds"],
                    "elapsed_seconds": round(dl_elapsed, 4),
                    "completed": dl_completed,
                    "deferred": dl_deferred,
                    "overshoot": round(overshoot, 4),
                    "max_overshoot": profile["max_overshoot"],
                },
            },
            indent=2,
        )
        + "\n"
    )

    assert brk_lost == 0, "breaker+defer must not lose jobs to quarantine"
    assert goodput_ratio >= profile["min_goodput_ratio"], (
        f"breaker+defer goodput {goodput_ratio:0.2f}x retry-only; "
        f"{PROFILE} profile requires >= {profile['min_goodput_ratio']}x"
    )
    assert overshoot <= profile["max_overshoot"], (
        f"deadline overshoot {overshoot * 100:0.1f}%; "
        f"{PROFILE} profile caps it at {profile['max_overshoot'] * 100:0.0f}%"
    )


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        os.environ["RESILIENCE_BENCH_PROFILE"] = "smoke"
    sys.exit(pytest.main([__file__, "-q", "-s"]))
