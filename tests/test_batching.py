"""Tests for the batched annotation path: LLM batch API, wave scheduler,
batch/sequential parity, single-query candidate generation, and the
AnnotationService facade."""

from collections import Counter

import pytest

from repro.core import (
    AnnotationPipeline,
    AnnotationService,
    Feedback,
    FeedbackAction,
    TaskConfig,
)
from repro.errors import PipelineError
from repro.llm import GenerationResult, LLMClient, Prompt, PromptBuilder, SimulatedLLM
from repro.sql import Lexer, Parser, is_nested, lexer, parse_select
from repro.sql.decompose import decompose
from repro.workloads import build_benchmark

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


def record_key(record):
    return (record.query_id, record.nl, record.accepted, tuple(record.candidates))


class SequentialOnlyLLM(LLMClient):
    """Minimal client exercising the ABC's sequential generate_batch fallback."""

    name = "sequential-only"

    def __init__(self):
        self.calls = 0

    def generate(self, prompt: Prompt) -> GenerationResult:
        self.calls += 1
        return GenerationResult(
            candidates=[f"description of {prompt.sql}"], model_name=self.name
        )

    def backtranslate(self, description: str, schema_text: str = "") -> str | None:
        return None


class TestGenerateBatch:
    def test_default_fallback_matches_sequential(self):
        llm = SequentialOnlyLLM()
        prompts = [Prompt(sql=sql) for sql in QUERIES[:3]]
        results = llm.generate_batch(prompts)
        assert [result.candidates for result in results] == [
            llm.generate(prompt).candidates for prompt in prompts
        ]
        assert llm.usage.batches == 1

    def test_simulated_batch_matches_single_calls(self, hr_schema):
        builder = PromptBuilder(num_candidates=4)
        prompts = [builder.build(sql) for sql in QUERIES]
        single = SimulatedLLM("gpt-4o", schema=hr_schema)
        batched = SimulatedLLM("gpt-4o", schema=hr_schema)
        expected = [single.generate(prompt) for prompt in prompts]
        actual = batched.generate_batch(prompts)
        assert [result.candidates for result in actual] == [
            result.candidates for result in expected
        ]
        assert [result.prompt_tokens for result in actual] == [
            result.prompt_tokens for result in expected
        ]

    def test_simulated_batch_counts_one_round_trip(self):
        llm = SimulatedLLM("gpt-4o")
        prompts = [Prompt(sql=sql) for sql in QUERIES]
        llm.generate_batch(prompts)
        assert llm.usage.requests == 1
        assert llm.usage.batches == 1
        assert llm.usage.prompts == len(prompts)
        assert llm.usage.candidates > 0
        assert llm.usage.mean_batch_size == len(prompts)

    def test_single_generate_records_usage(self):
        llm = SimulatedLLM("gpt-4o")
        llm.generate(Prompt(sql=QUERIES[0]))
        assert llm.usage.requests == 1
        assert llm.usage.prompts == 1
        assert llm.usage.batches == 0

    def test_duplicate_prompts_share_generation(self):
        llm = SimulatedLLM("gpt-4o")
        prompt = Prompt(sql=QUERIES[0])
        first, second = llm.generate_batch([prompt, prompt])
        assert first.candidates == second.candidates
        assert first is not second  # results are independent copies

    def test_empty_batch(self):
        assert SimulatedLLM("gpt-4o").generate_batch([]) == []


class TestBatchSequentialParity:
    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_parity_on_hr_queries(self, hr_schema, batch_size):
        sequential = AnnotationPipeline(hr_schema, dataset_name="hr")
        expected = [sequential.annotate(sql) for sql in QUERIES]

        batched = AnnotationPipeline(
            hr_schema, config=TaskConfig(batch_size=batch_size), dataset_name="hr"
        )
        actual = batched.annotate_many(QUERIES)

        assert [record_key(r) for r in actual] == [record_key(r) for r in expected]
        # The growing-archive effect survives batching: both pipelines end
        # with identical example stores.
        assert batched.example_count == sequential.example_count

    def test_parity_on_generated_workload(self):
        workload = build_benchmark("Spider", seed=11, row_scale=0.0015, query_count=40)
        sqls = workload.query_sql
        sequential = AnnotationPipeline(workload.schema, dataset_name="Spider")
        expected = [sequential.annotate(sql) for sql in sqls]
        batched = AnnotationPipeline(
            workload.schema, config=TaskConfig(batch_size=10), dataset_name="Spider"
        )
        actual = batched.annotate_many(sqls)
        assert [record_key(r) for r in actual] == [record_key(r) for r in expected]

    def test_parity_without_rag(self, hr_schema):
        config = TaskConfig(rag_enabled=False, batch_size=4)
        sequential = AnnotationPipeline(hr_schema, config=TaskConfig(rag_enabled=False))
        expected = [sequential.annotate(sql) for sql in QUERIES]
        batched = AnnotationPipeline(hr_schema, config=config)
        actual = batched.annotate_many(QUERIES)
        assert [record_key(r) for r in actual] == [record_key(r) for r in expected]

    def test_parity_with_content_sensitive_validation(self, hr_schema):
        # Force the strict full-prompt validation path by marking the LLM as
        # sensitive to example content.
        sequential = AnnotationPipeline(hr_schema, dataset_name="hr")
        expected = [record_key(sequential.annotate(sql)) for sql in QUERIES]

        for batch_size in (1, 3, 4, 8):
            llm = SimulatedLLM("gpt-4o", schema=hr_schema)
            llm.example_content_sensitive = True
            batched = AnnotationPipeline(
                hr_schema, config=TaskConfig(batch_size=batch_size), llm=llm, dataset_name="hr"
            )
            actual = batched.annotate_many(QUERIES)
            assert [record_key(r) for r in actual] == expected, batch_size

    def test_batch_uses_fewer_llm_round_trips(self, hr_schema):
        batched = AnnotationPipeline(
            hr_schema, config=TaskConfig(batch_size=4), dataset_name="hr"
        )
        batched.annotate_many(QUERIES)
        stats = batched.last_run_stats
        assert stats.queries == len(QUERIES)
        assert stats.batched_queries + stats.regenerated_queries == len(QUERIES)
        assert stats.llm_requests < len(QUERIES) + 1
        assert stats.waves >= 2  # one statement per wave while the archive is small

    def test_query_ids_are_threaded(self, hr_schema):
        pipeline = AnnotationPipeline(hr_schema, dataset_name="hr")
        ids = [f"q-{index}" for index in range(len(QUERIES))]
        records = pipeline.annotate_many(QUERIES, query_ids=ids)
        assert [record.query_id for record in records] == ids

    def test_query_ids_must_align(self, hr_schema):
        pipeline = AnnotationPipeline(hr_schema)
        with pytest.raises(PipelineError):
            pipeline.annotate_many(QUERIES, query_ids=["only-one"])

    def test_empty_statement_raises(self, hr_schema):
        pipeline = AnnotationPipeline(hr_schema)
        with pytest.raises(PipelineError):
            pipeline.annotate_many(["   "])

    def test_bad_statement_stops_the_run_after_the_ones_before_it(self, hr_schema):
        # The archive is cold, so each wave holds one statement: QUERIES[0]
        # and QUERIES[1] commit in waves of their own before the bad
        # statement raises in its own.
        pipeline = AnnotationPipeline(hr_schema)
        with pytest.raises(PipelineError):
            pipeline.annotate_many([QUERIES[0], QUERIES[1], "   ", QUERIES[2]])
        assert [record.sql for record in pipeline.annotations] == QUERIES[:2]

    def test_invalid_batch_size_rejected(self, hr_schema):
        with pytest.raises(PipelineError):
            TaskConfig(batch_size=0).validate()
        pipeline = AnnotationPipeline(hr_schema)
        with pytest.raises(PipelineError):
            pipeline.annotate_many(QUERIES[:2], batch_size=0)


class TestGenerateCandidates:
    """``generate_candidates`` is a size-1 wave's phase 1 plus regeneration."""

    def test_flat_query_retrieves_once(self, hr_schema):
        pipeline = AnnotationPipeline(hr_schema, dataset_name="hr")
        pipeline.annotate_many(QUERIES[:3])  # a non-empty archive to search
        retrieve = pipeline.retriever.retrieve
        calls = []

        def counting_retrieve(*args, **kwargs):
            calls.append(args)
            return retrieve(*args, **kwargs)

        pipeline.retriever.retrieve = counting_retrieve
        pipeline.generate_candidates(QUERIES[0])
        assert len(calls) == 1

    @pytest.mark.parametrize("sql", [QUERIES[0], QUERIES[3]], ids=["flat", "nested"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_matches_size_one_wave(self, hr_schema, sql, warm):
        direct = AnnotationPipeline(hr_schema, dataset_name="hr")
        waved = AnnotationPipeline(hr_schema, dataset_name="hr")
        if warm:
            direct.annotate_many(QUERIES[4:])
            waved.annotate_many(QUERIES[4:])

        candidate_set = direct.generate_candidates(sql)
        record = direct.submit_feedback(
            candidate_set, Feedback(action=FeedbackAction.ACCEPT, selected_index=0)
        )
        run = waved.wave_run([sql], batch_size=1)
        (wave_record,) = run.run_next_wave()

        assert candidate_set.was_decomposed == (sql == QUERIES[3])
        assert candidate_set.candidates == wave_record.candidates
        assert vars(record) == vars(wave_record)
        assert direct.example_count == waved.example_count


class TestAnnotationService:
    def test_register_submit_drain(self, hr_schema):
        service = AnnotationService()
        service.register_project("hr", hr_schema, config=TaskConfig(batch_size=4))
        job_ids = service.submit_many(QUERIES, project="hr")
        assert service.pending_count == len(QUERIES)
        assert len(job_ids) == len(set(job_ids)) == len(QUERIES)

        completed = service.drain()
        assert service.pending_count == 0
        assert [job.job.job_id for job in completed] == job_ids
        assert all(job.record.accepted for job in completed)
        assert service.stats.completed == len(QUERIES)
        assert service.stats.pending == 0

    def test_drain_matches_sequential_annotation(self, hr_schema):
        sequential = AnnotationPipeline(hr_schema, dataset_name="hr")
        expected = [sequential.annotate(sql) for sql in QUERIES]

        service = AnnotationService()
        service.register_project("hr", hr_schema, config=TaskConfig(batch_size=4))
        service.submit_many(QUERIES, project="hr")
        completed = service.drain()
        assert [record_key(job.record) for job in completed] == [
            record_key(record) for record in expected
        ]

    def test_partial_drain_preserves_order(self, hr_schema):
        service = AnnotationService()
        service.register_project("hr", hr_schema, config=TaskConfig(batch_size=4))
        service.submit_many(QUERIES, project="hr")
        first = service.drain(max_jobs=3)
        assert len(first) == 3
        assert service.pending_count == len(QUERIES) - 3
        rest = service.drain()
        sqls = [job.job.sql for job in first + rest]
        assert sqls == QUERIES

    def test_multi_project_drain(self, hr_schema):
        workload = build_benchmark("Bird", seed=3, row_scale=0.0015, query_count=5)
        service = AnnotationService()
        service.register_project("hr", hr_schema, config=TaskConfig(batch_size=4))
        service.register_project("bird", workload.schema, config=TaskConfig(batch_size=4))
        service.submit(QUERIES[0], project="hr")
        service.submit_many(workload.query_sql, project="bird")
        service.submit(QUERIES[1], project="hr")
        completed = service.drain()
        assert len(completed) == len(workload.query_sql) + 2
        assert {job.job.project for job in completed} == {"hr", "bird"}
        assert "gpt-4o" in service.stats.usage_by_model
        assert service.stats.usage_by_model["gpt-4o"].prompts >= len(completed)

    def test_submit_with_explicit_query_id(self, hr_schema):
        service = AnnotationService()
        service.register_project("hr", hr_schema)
        service.submit(QUERIES[0], project="hr", query_id="custom-1")
        completed = service.drain()
        assert completed[0].record.query_id == "custom-1"

    def test_errors(self, hr_schema):
        service = AnnotationService()
        with pytest.raises(PipelineError):
            service.submit(QUERIES[0])  # no project registered
        service.register_project("hr", hr_schema)
        with pytest.raises(PipelineError):
            service.register_project("hr", hr_schema)  # duplicate
        with pytest.raises(PipelineError):
            service.submit("  ;", project="hr")
        with pytest.raises(PipelineError):
            service.pipeline("nope")
        with pytest.raises(PipelineError):
            service.drain(max_jobs=-1)
        assert service.drain() == []


class TestFeedbackRevision:
    def test_revision_tracks_guidance_changes(self, hr_schema):
        pipeline = AnnotationPipeline(hr_schema, dataset_name="hr")
        before = pipeline.feedback_loop.revision
        candidate_set = pipeline.generate_candidates(QUERIES[0])
        pipeline.submit_feedback(
            candidate_set,
            Feedback(
                action=FeedbackAction.ACCEPT,
                selected_index=0,
                new_priorities=["mention currencies"],
                knowledge=[("acad_term", "academic term")],
            ),
        )
        assert pipeline.feedback_loop.revision > before


class TestServiceUsageAccounting:
    def test_shared_llm_counts_once(self, hr_schema):
        llm = SimulatedLLM("gpt-4o", schema=hr_schema)
        service = AnnotationService()
        service.register_project("a", hr_schema, llm=llm)
        service.register_project("b", hr_schema, llm=llm)
        service.submit(QUERIES[0], project="a")
        service.submit(QUERIES[1], project="b")
        service.drain()
        assert service.stats.usage_by_model["gpt-4o"].prompts == llm.usage.prompts


def wave_sizes(run) -> list[int]:
    """Drive a :class:`WaveRun` to the end; the outcomes each wave settled."""
    sizes = []
    while not run.done:
        sizes.append(len(run.run_next_wave()))
    return sizes


class TestWaveSizing:
    """A wave holds one statement while the archive holds fewer than
    ``top_k_examples`` examples or once a wave has raised, else
    ``batch_size``."""

    def test_cold_run_batches_once_the_archive_holds_top_k(self, hr_schema):
        pipeline = AnnotationPipeline(
            hr_schema, config=TaskConfig(batch_size=8), dataset_name="hr"
        )
        assert pipeline.config.top_k_examples == 3
        assert wave_sizes(pipeline.wave_run(QUERIES)) == [1, 1, 1, 5]

    def test_archive_of_top_k_examples_runs_one_wave(self, hr_schema):
        pipeline = AnnotationPipeline(
            hr_schema, config=TaskConfig(batch_size=8), dataset_name="hr"
        )
        for sql in QUERIES[:3]:
            pipeline.annotate(sql)
        top_k = pipeline.config.top_k_examples
        assert top_k <= pipeline.example_count < top_k + 5
        pipeline.annotate_many(QUERIES[3:])
        assert pipeline.last_run_stats.waves == 1

    def test_rag_off_runs_full_waves_from_a_cold_archive(self, hr_schema):
        pipeline = AnnotationPipeline(
            hr_schema, config=TaskConfig(batch_size=3, rag_enabled=False), dataset_name="hr"
        )
        assert wave_sizes(pipeline.wave_run(QUERIES)) == [3, 3, 2]

    def test_run_keeps_one_statement_per_wave_after_a_raise(self, hr_schema):
        pipeline = AnnotationPipeline(
            hr_schema, config=TaskConfig(batch_size=8), dataset_name="hr"
        )
        for sql in QUERIES[:3]:
            pipeline.annotate(sql)
        run = pipeline.wave_run([QUERIES[3], "   ", *QUERIES[4:]])
        # The full first wave raises in phase 1, committing nothing; every
        # wave after it holds one statement, the bad one parked in its own.
        assert wave_sizes(run) == [0] + [1] * (len(QUERIES) - 2)
        assert isinstance(run.outcomes[1], PipelineError)
        assert [record.sql for record in run.records] == QUERIES[3:]


class TestFrontEndWork:
    """A drain lexes each distinct text once and parses each statement once."""

    @staticmethod
    def count_calls(monkeypatch, cls, attr, calls):
        original = getattr(cls, attr)

        def counting(self):
            calls[attr] += 1
            return original(self)

        monkeypatch.setattr(cls, attr, counting)

    def test_beaver_drain_parses_each_statement_once(self, monkeypatch):
        workload = build_benchmark("Beaver", seed=8, row_scale=0.0015, query_count=12)
        sqls = workload.query_sql
        units = [
            len(decompose(sql).units) if is_nested(parse_select(sql)) else 0 for sql in sqls
        ]
        assert len(sqls) == 12 and sum(1 for count in units if count) >= 8
        sequential = AnnotationPipeline(workload.schema, dataset_name="beaver")
        expected = [sequential.annotate(sql) for sql in sqls]  # size-1 candidate path

        lexer._lex.cache_clear()
        calls = Counter()
        self.count_calls(monkeypatch, Lexer, "tokenize", calls)
        self.count_calls(monkeypatch, Parser, "parse_statement", calls)
        service = AnnotationService()
        service.register_project("beaver", workload.schema, config=TaskConfig(batch_size=6))
        service.submit_many(sqls, project="beaver")
        completed = service.drain()

        # Only the statements parse (units reuse the decomposer's trees), and
        # every lex is of a text -- statement or unit -- not lexed before.
        assert calls["parse_statement"] == len(sqls)
        assert calls["tokenize"] <= len(sqls) + sum(units)
        assert [record_key(job.record) for job in completed] == [
            record_key(record) for record in expected
        ]
