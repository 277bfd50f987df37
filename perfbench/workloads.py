"""The four benchmark workloads, driven through the program's public API.

Each workload loads its frozen inputs (see ``fixtures.py``), builds what it
needs in :meth:`setup`, and runs fixed-size *rounds* of timed ops.  Round
contents do not depend on the round index beyond a seeded order, so every
round measures the same work and the per-round medians are comparable.
``reference_round_s`` is how long one round takes on the reference host; it
sizes the fixed number of rounds a run measures.  Every timed op passes the
recorder's gate first, so ``run.py`` can alternate ops between the program
and the reference build.  ``paired`` is false for a workload whose time is
set by the clock (arrival schedule, simulated waits): it runs alone.

* ``annotate_log``     — one durable service per round drains a Beaver log in
  fixed-size chunks; op = submit + drain of one chunk, unit = statement.
* ``annotate_tenants`` — four projects receive an open-loop Poisson stream
  (a cycle of fixed schedules in seeded order); one load-generator thread
  submits what is due and drains; unit = job.
* ``eval_fig1``        — every (family, model, question) of Figure 1; op =
  predict + execute + compare; unit = pair.
* ``recover``          — reopen a durable directory (snapshot + journal
  suffix); op = ``open_durable`` + ``close``; unit = restored record.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

import fixtures
import stats

HERE = Path(__file__).resolve().parent
SOURCE_DIR = HERE.parent / "src"
WORK_DIR = HERE / ".work"

#: Statements submitted and drained per ``annotate_log`` op.
LOG_CHUNK = 6
#: Simulated remote-API latency per LLM round trip in ``annotate_tenants``:
#: the 100 ms the repository's own concurrency benchmark
#: (``benchmarks/bench_concurrency.py``, full profile) uses for the remote API.
TENANT_LLM_DELAY_S = 0.1
#: Offered load of the ``annotate_tenants`` Poisson stream (jobs per second):
#: about two thirds of the 37 jobs/s at which the service drains all 96 jobs
#: submitted at once with this delay on a 2-core x86-64 container.
TENANT_RATE = 25.0
#: Arrival schedules of ``annotate_tenants``; every run measures each of them
#: equally often, in a seeded order.
TENANT_SCHEDULES = 6
#: Jobs per project in the closed-loop ``annotate_tenants`` warm-up.
TENANT_WARMUP_JOBS = 4
#: Jobs per project per drain when building the ``recover`` directory.
RECOVER_CHUNK = 16
#: Restarts per ``recover`` round.
RECOVER_OPS_PER_ROUND = 4

_perf = time.perf_counter
_cpu = time.process_time


def add_source_path(source_dir: Path = SOURCE_DIR) -> None:
    """Make ``repro`` importable from ``source_dir`` (by default the
    checkout's ``src``); fail if it is not there."""
    if not (source_dir / "repro" / "__init__.py").is_file():
        raise SystemExit(f"program sources not found under {source_dir}")
    if str(source_dir) not in sys.path:
        sys.path.insert(0, str(source_dir))


def scratch_dir(tag: str) -> Path:
    """A fresh per-process working directory inside the benchmark's tree."""
    path = WORK_DIR / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def figure1_models(family: str) -> list[str]:
    """The general models plus the family's best model, as ``run_figure1``."""
    from repro.evaluation import GENERAL_MODELS, best_model_for

    models = list(GENERAL_MODELS)
    best = best_model_for(family)
    if best not in models:
        models.append(best)
    return models


def _untimed(units: int, fn):
    return fn()


def drain_log(schema_state: dict, statements: list[str], directory: Path,
              timed=_untimed):
    """Drain one log through a fresh durable service, chunk by chunk.

    Returns the records, how many of the ops drained their whole chunk, the
    op count, the journal size and the wave accounting.  ``timed(units, fn)``
    runs each chunk's submit + drain and may time it.
    """
    from repro.core import AnnotationService
    from repro.core.snapshot import schema_from_state

    shutil.rmtree(directory, ignore_errors=True)
    service = AnnotationService.open_durable(directory, fsync="batch")
    try:
        service.register_project("log", schema_from_state(schema_state))
        ok_ops = ops = 0
        for start in range(0, len(statements), LOG_CHUNK):
            chunk = statements[start:start + LOG_CHUNK]

            def submit_and_drain(chunk=chunk):
                service.submit_many(chunk, project="log")
                return service.drain()

            completed = timed(len(chunk), submit_and_drain)
            ops += 1
            ok_ops += len(completed) == len(chunk) and not any(
                item.failed for item in completed
            )
        outcome = {
            "records": list(service.pipeline("log").annotations),
            "ok_ops": ok_ops,
            "ops": ops,
            "journal_bytes": (directory / "journal.bin").stat().st_size,
            "batched": service.stats.batched_queries,
            "regenerated": service.stats.regenerated_queries,
        }
    finally:
        service.close()
        shutil.rmtree(directory, ignore_errors=True)
    return outcome


def tenant_digests(data: dict) -> dict[str, str]:
    """Per-project record digests of a plain sequential drain of every pool."""
    from repro.core import AnnotationService
    from repro.core.snapshot import schema_from_state

    service = AnnotationService()
    for name, project in data["projects"].items():
        service.register_project(name, schema_from_state(project["schema"]))
        service.submit_many(project["sql"], project=name)
    service.drain()
    return {
        name: fixtures.records_digest(service.pipeline(name).annotations)
        for name in data["projects"]
    }


def _interleave(pools: dict[str, list[str]], rng: random.Random) -> list[tuple[str, str]]:
    """Merge per-project queues in a seeded order, keeping each queue's order."""
    labels = [name for name, pool in pools.items() for _ in pool]
    rng.shuffle(labels)
    cursors = {name: 0 for name in pools}
    jobs = []
    for name in labels:
        jobs.append((name, pools[name][cursors[name]]))
        cursors[name] += 1
    return jobs


class Round:
    """What one round measured."""

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0
        self.cpu_seconds = 0.0
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.ok = 0
        self.extra: dict[str, float] = {}

    def add(self, units: int, seconds: float, cpu_seconds: float,
            latencies_ms: list[float]) -> None:
        self.units += units
        self.seconds += seconds
        self.cpu_seconds += cpu_seconds
        self.latencies_ms += latencies_ms


class Recorder:
    """Times ops from outside the program and groups them into rounds."""

    def __init__(self, tracer=None, gate=None) -> None:
        self.tracer = tracer
        #: Called before every timed op (the lockstep gate), or ``None``.
        self.gate = gate
        self.rounds: list[Round] = []
        self.round = Round()
        self._op_id = 0

    def start_round(self) -> Round:
        self.round = Round()
        self.rounds.append(self.round)
        return self.round

    def next_op_id(self) -> int:
        self._op_id += 1
        return self._op_id

    def op(self, units: int, fn):
        """Run ``fn`` as one timed op of ``units`` units of work."""
        if self.gate is not None:
            self.gate()
        tracer = self.tracer
        cpu0 = _cpu()
        start = _perf()
        if tracer is None:
            result = fn()
        else:
            with tracer.op(self.next_op_id()):
                result = fn()
        elapsed = _perf() - start
        self.round.add(units, elapsed, _cpu() - cpu0, [elapsed * 1000.0])
        return result


class Workload:
    """Defaults shared by the workloads below."""

    #: Runs measure a multiple of this many rounds.
    cycle = 1
    #: Whether rounds run in lockstep with the reference build on one CPU.
    paired = True

    def setup(self) -> None:
        """Build what the rounds need (part of the measured set-up time)."""

    def warm_up(self, recorder: Recorder) -> None:
        """Run the hot paths once before measuring (part of set-up time)."""
        recorder.start_round()
        self.run_round(0, recorder)

    def close(self) -> None:
        """Remove the workload's working files."""


class AnnotateLog(Workload):
    name = "annotate_log"
    reference_round_s = 1.0

    def __init__(self, seed: int) -> None:
        data = fixtures.load_fixture("log")
        self.schema_state = data["schema"]
        self.logs = data["logs"]
        self.digests = data["digests"]
        self.order = list(range(len(self.logs)))
        random.Random(seed).shuffle(self.order)
        #: Runs end on a whole cycle so every log is drained equally often.
        self.cycle = len(self.logs)
        self.work = scratch_dir(self.name)

    def run_round(self, index: int, recorder: Recorder) -> None:
        log_index = self.order[index % self.cycle]
        log = self.logs[log_index]
        outcome = drain_log(self.schema_state, log, self.work / "round", recorder.op)
        current = recorder.round
        current.attempted += outcome["ops"]
        if fixtures.records_digest(outcome["records"]) == self.digests[log_index]:
            current.ok += outcome["ok_ops"]
        current.extra["journal_bytes_per_q"] = outcome["journal_bytes"] / len(log)
        current.extra["batched"] = outcome["batched"]
        current.extra["regenerated"] = outcome["regenerated"]

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def delayed_llm_class():
    """An ``LLMClient`` that sleeps a fixed delay per round trip, then delegates."""
    from repro.llm import LLMClient

    class _DelayedLLM(LLMClient):
        def __init__(self, inner, delay_s: float) -> None:
            self.inner = inner
            self.name = inner.name
            self.delay_s = delay_s

        @property
        def example_content_sensitive(self) -> bool:  # type: ignore[override]
            return self.inner.example_content_sensitive

        def wait(self) -> None:
            time.sleep(self.delay_s)

        def generate(self, prompt):
            self.wait()
            return self.inner.generate(prompt)

        def generate_batch(self, prompts):
            self.wait()
            return self.inner.generate_batch(prompts)

        def backtranslate(self, description: str, schema_text: str = ""):
            return self.inner.backtranslate(description, schema_text)

    return _DelayedLLM


class AnnotateTenants(Workload):
    name = "annotate_tenants"
    #: The schedule of one round spans its jobs / ``TENANT_RATE`` seconds,
    #: plus the drain of the last arrivals.
    reference_round_s = 4.0
    #: Open-loop arrivals follow the clock, so its ops cannot take turns
    #: with another process, and its drain runs two worker threads.
    paired = False

    def __init__(self, seed: int) -> None:
        from repro.core.snapshot import schema_from_state

        data = fixtures.load_fixture("tenants")
        self.projects = data["projects"]
        self.schemas = {
            name: schema_from_state(project["schema"])
            for name, project in self.projects.items()
        }
        self.order = list(range(TENANT_SCHEDULES))
        random.Random(seed).shuffle(self.order)
        #: Runs end on a whole cycle so every schedule is measured equally
        #: often: latency depends far more on which jobs arrive together than
        #: on the host, so a run of partly different schedules would differ.
        self.cycle = TENANT_SCHEDULES
        self.concurrency = min(2, os.cpu_count() or 1)
        self.llm_class = delayed_llm_class()

    def _service(self, delay_s: float = TENANT_LLM_DELAY_S):
        from repro.core import AnnotationService
        from repro.obs import Telemetry

        service = AnnotationService(telemetry=Telemetry())
        for name, schema in self.schemas.items():
            pipeline = service.register_project(name, schema)
            pipeline.llm = self.llm_class(pipeline.llm, delay_s)
            pipeline.attach_telemetry(service.telemetry)
        return service

    def warm_up(self, recorder: Recorder) -> None:
        """One closed-loop drain of a few jobs per project, without LLM delay.

        Set-up time then measures the program's own work, not the arrival
        schedule or simulated waits.
        """
        service = self._service(delay_s=0.0)
        for name, project in self.projects.items():
            service.submit_many(project["sql"][:TENANT_WARMUP_JOBS], project=name)
        service.drain(concurrency=self.concurrency)

    def run_round(self, index: int, recorder: Recorder) -> None:
        rng = random.Random(self.order[index % self.cycle])
        jobs = _interleave(
            {name: project["sql"] for name, project in self.projects.items()}, rng
        )
        # Poisson arrivals, stratified: the gaps are the exponential
        # distribution's len(jobs) quantiles in the schedule's order, so
        # every round offers the same burstiness and only its order varies.
        gaps = [
            -math.log(1.0 - (rank + 0.5) / len(jobs)) / TENANT_RATE
            for rank in range(len(jobs))
        ]
        rng.shuffle(gaps)
        due = list(itertools.accumulate(gaps))
        service = self._service()
        due_by_job: dict[int, float] = {}
        project_of: dict[int, str] = {}
        finished: dict[int, float] = {}
        queue_waits: list[float] = []
        lag_max = 0.0
        next_job = 0
        start = _perf()
        current = recorder.round
        while len(finished) < len(jobs):
            now = _perf() - start
            if next_job < len(jobs) and due[next_job] > now and not service.pending_count:
                time.sleep(due[next_job] - now)
                continue

            def submit_and_drain():
                nonlocal next_job, lag_max
                now = _perf() - start
                while next_job < len(jobs) and due[next_job] <= now:
                    project, sql = jobs[next_job]
                    job_id = service.submit(sql, project=project)
                    due_by_job[job_id] = due[next_job]
                    project_of[job_id] = project
                    lag_max = max(lag_max, now - due[next_job])
                    next_job += 1
                drain_start = _perf() - start
                completed = service.drain(concurrency=self.concurrency)
                drained_at = _perf() - start
                for item in completed:
                    job_due = due_by_job[item.job.job_id]
                    queue_waits.append(drain_start - job_due)
                    finished[item.job.job_id] = -1.0 if item.failed else drained_at
                return completed

            cpu0 = _cpu()
            if recorder.tracer is None:
                submit_and_drain()
            else:
                with recorder.tracer.op(recorder.next_op_id()):
                    submit_and_drain()
            current.add(0, 0.0, _cpu() - cpu0, [])
        elapsed = _perf() - start
        current.attempted += len(jobs)
        digests_ok = {
            name: fixtures.records_digest(service.pipeline(name).annotations)
            == project["digest"]
            for name, project in self.projects.items()
        }
        served = [job_id for job_id, done in finished.items() if done >= 0]
        latencies = stats.open_loop_latencies(
            [due_by_job[job_id] for job_id in served],
            [finished[job_id] for job_id in served],
        )
        current.add(len(jobs), elapsed, 0.0, [value * 1000.0 for value in latencies])
        current.ok += sum(digests_ok[project_of[job_id]] for job_id in served)
        current.extra["queue_wait_ms"] = statistics.median(queue_waits) * 1000.0
        current.extra["generator_lag_ms"] = lag_max * 1000.0
        current.extra["batched"] = service.stats.batched_queries
        current.extra["regenerated"] = service.stats.regenerated_queries


class EvalFig1(Workload):
    name = "eval_fig1"
    #: Three rounds per build at ``--seconds 10`` (each build gets half):
    #: 444 pairs put the p95 rank (22 samples beyond) in the middle of the
    #: eighth-heaviest pair's three samples, not on the edge
    #: between two pairs, where the tail would flip between their costs.
    reference_round_s = 1.6

    def __init__(self, seed: int) -> None:
        self.data = fixtures.load_fixture("eval")
        self.seed = seed

    def setup(self) -> None:
        from repro.evaluation import SimulatedText2SQLModel

        self.databases = {}
        self.ops = []
        self.expected_accuracy = {}
        for name, family in self.data["families"].items():
            workload = fixtures.build_workload(family)
            self.databases[name] = workload.database
            for model_name in figure1_models(name):
                model = SimulatedText2SQLModel.for_workload(model_name, workload)
                outcomes = family["expected"][model_name]
                self.expected_accuracy[(name, model_name)] = sum(outcomes.values())
                for query in workload.queries:
                    self.ops.append((name, model, query, outcomes[query.query_id]))
        random.Random(self.seed).shuffle(self.ops)

    def run_round(self, index: int, recorder: Recorder) -> None:
        import repro.metrics as metrics

        caches = {
            name: metrics.GoldResultCache(database)
            for name, database in self.databases.items()
        }
        matches: dict[tuple[str, str], int] = {}
        current = recorder.round
        for family, model, query, expected in self.ops:
            database = self.databases[family]
            cache = caches[family]

            def predict_and_compare():
                predicted = model.predict(query.gold_nl, query.sql)
                return metrics.compare_execution(
                    database, query.sql, predicted, gold_cache=cache
                )

            comparison = recorder.op(1, predict_and_compare)
            key = (family, model.name)
            matches[key] = matches.get(key, 0) + bool(comparison.match)
            current.attempted += 1
            current.ok += comparison.gold_executed and comparison.match == expected
        if matches != self.expected_accuracy:
            current.ok = 0  # per-(model, family) accuracy differs from the frozen one
        hits = sum(cache.hits for cache in caches.values())
        misses = sum(cache.misses for cache in caches.values())
        current.extra["gold_cache_hit_share"] = hits / (hits + misses)


class Recover(Workload):
    name = "recover"
    reference_round_s = 0.42

    def __init__(self, seed: int) -> None:
        data = fixtures.load_fixture("tenants")
        self.projects = data["projects"]
        self.seed = seed
        self.work = scratch_dir(self.name)
        self.directory = self.work / "service"

    def setup(self) -> None:
        """Drain a mixed four-project log durably, snapshotting halfway."""
        from repro.core import AnnotationService
        from repro.core.snapshot import schema_from_state

        jobs = _interleave(
            {name: project["sql"] for name, project in self.projects.items()},
            random.Random(self.seed),
        )
        service = AnnotationService.open_durable(self.directory, fsync="batch")
        try:
            for name, project in self.projects.items():
                service.register_project(name, schema_from_state(project["schema"]))
            for start in range(0, len(jobs), RECOVER_CHUNK):
                for project, sql in jobs[start:start + RECOVER_CHUNK]:
                    service.submit(sql, project=project)
                service.drain()
                if start < len(jobs) // 2 <= start + RECOVER_CHUNK:
                    service.snapshot()
            self.live = self._digests(service)
        finally:
            service.close()
        self.records = sum(count for count, _ in self.live.values())
        self.snapshot_bytes = sum(
            path.stat().st_size for path in (self.directory / "snapshots").iterdir()
        )

    @staticmethod
    def _digests(service) -> dict[str, tuple[int, str]]:
        return {
            name: (
                len(service.pipeline(name).annotations),
                fixtures.records_digest(service.pipeline(name).annotations),
            )
            for name in service.project_names
        }

    def run_round(self, index: int, recorder: Recorder) -> None:
        from repro.core import AnnotationService

        current = recorder.round
        for _ in range(RECOVER_OPS_PER_ROUND):

            def reopen():
                service = AnnotationService.open_durable(self.directory, fsync="batch")
                service.close()
                return service

            service = recorder.op(self.records, reopen)
            current.attempted += 1
            current.ok += self._digests(service) == self.live
        current.extra["snapshot_bytes"] = self.snapshot_bytes
        current.extra["journal_bytes_per_q"] = (
            self.directory / "journal.bin"
        ).stat().st_size / self.records

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {
    cls.name: cls for cls in (AnnotateLog, AnnotateTenants, EvalFig1, Recover)
}
