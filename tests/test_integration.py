"""End-to-end integration tests spanning the full BenchPress pipeline."""

import importlib
import json

import pytest

from repro.core import (
    AnnotationService,
    Feedback,
    FeedbackAction,
    TaskConfig,
    export_benchmark_json,
)
from repro.llm import SimulatedLLM
from repro.metrics import grade_backtranslation, judge_annotation
from repro.study import Condition, StudyRunner, accuracy_table, latency_table


class TestAnnotationEndToEnd:
    def test_benchmark_project_full_loop(self, tmp_path, tiny_beaver):
        """Register a benchmark project, annotate with feedback, export, and validate quality."""
        service = AnnotationService()
        service.register_project(tiny_beaver.name, tiny_beaver.schema)
        pipeline = service.pipeline(tiny_beaver.name)
        queries = tiny_beaver.query_sql[:4]

        # Edit step: review the candidates for the first query, accept the top
        # suggestion and inject domain knowledge along the way.
        candidate_set = pipeline.generate_candidates(queries[0])
        feedback = Feedback(
            action=FeedbackAction.ACCEPT,
            selected_index=0,
            knowledge=[("Moira", "the mailing list system")],
        )
        record = pipeline.submit_feedback(candidate_set, feedback)
        assert record is not None and record.nl

        # Bulk step: the service accepts the top suggestion for the rest.
        service.submit_many(queries[1:], project=tiny_beaver.name)
        completed = service.drain()
        assert [job.record.sql for job in completed] == queries[1:]
        assert all(job.record.nl for job in completed)

        # The example store grows as annotations are accepted (warm retrieval),
        # and query ids are numbered after the project name.
        assert pipeline.example_count == 4
        assert len(pipeline.feedback_loop.knowledge) == 1
        assert [r.query_id for r in pipeline.annotations] == [
            f"beaver-{n:05d}" for n in range(1, 5)
        ]

        # Export in benchmark-ready JSON.
        path = export_benchmark_json(pipeline.annotations, tmp_path / "bench.json")
        records = json.loads(path.read_text())
        assert len(records) == 4
        assert all(record["db_id"] == "Beaver" for record in records)

    def test_annotations_judged_reasonably_accurate(self, hr_schema):
        from repro.core import AnnotationPipeline

        pipeline = AnnotationPipeline(hr_schema, dataset_name="hr")
        sql = (
            "SELECT departments.dept_name, COUNT(*) FROM employees "
            "JOIN departments ON employees.dept_id = departments.dept_id "
            "WHERE employees.salary > 80000 GROUP BY departments.dept_name"
        )
        record = pipeline.annotate(sql)
        judgement = judge_annotation(sql, record.nl)
        assert judgement.coverage > 0.5

    def test_backtranslation_of_pipeline_output(self, hr_schema, hr_database):
        from repro.core import AnnotationPipeline

        pipeline = AnnotationPipeline(hr_schema, dataset_name="hr")
        sql = "SELECT name FROM employees WHERE salary > 90000"
        record = pipeline.annotate(sql)
        backtranslator = SimulatedLLM("gpt-4o", schema=hr_schema)
        predicted = backtranslator.backtranslate(record.nl)
        judgement = grade_backtranslation(hr_database, sql, predicted)
        assert judgement.level >= 3


class TestStudyEndToEnd:
    def test_small_study_reproduces_orderings(self, tiny_beaver, tiny_bird):
        """The key qualitative findings of Tables 3-4 hold on a miniature study."""
        runner = StudyRunner(
            tiny_beaver, tiny_bird, participant_count=9, queries_per_dataset=4, seed=3
        )
        result = runner.run()
        accuracy = accuracy_table(result)
        latency = latency_table(result)

        # Latency: manual annotation is by far the slowest (Table 4 shape).
        assert latency.total[Condition.MANUAL] > 2 * latency.total[Condition.BENCHPRESS]

        # Accuracy: BenchPress >= the other conditions overall (Table 3 shape).
        assert accuracy.overall[Condition.BENCHPRESS] >= accuracy.overall[Condition.VANILLA_LLM]
        assert accuracy.overall[Condition.BENCHPRESS] >= accuracy.overall[Condition.MANUAL]

        # The enterprise dataset is the harder one for unassisted conditions.
        beaver_manual = accuracy.per_dataset["Beaver"][Condition.MANUAL]
        bird_manual = accuracy.per_dataset["Bird"][Condition.MANUAL]
        assert bird_manual >= beaver_manual


class TestAblations:
    def test_rag_and_knowledge_improve_prompt_fidelity(self, tiny_beaver):
        """Ablation direction check: assistance features raise candidate fidelity."""
        from repro.core import AnnotationPipeline

        sql = tiny_beaver.queries[0].sql
        full = AnnotationPipeline(
            tiny_beaver.schema, config=TaskConfig(), dataset_name="Beaver"
        )
        bare = AnnotationPipeline(
            tiny_beaver.schema,
            config=TaskConfig(rag_enabled=False, knowledge_feedback_enabled=False),
            dataset_name="Beaver",
        )
        full_candidates = full.generate_candidates(sql)
        bare_candidates = bare.generate_candidates(sql)
        full_fidelity = full.llm.effective_fidelity(full_candidates.prompt)
        bare_fidelity = bare.llm.effective_fidelity(bare_candidates.prompt)
        assert full_fidelity >= bare_fidelity


PACKAGES = [
    "repro",
    "repro.core",
    "repro.engine",
    "repro.evaluation",
    "repro.llm",
    "repro.metrics",
    "repro.obs",
    "repro.reporting",
    "repro.retrieval",
    "repro.schema",
    "repro.sql",
    "repro.study",
    "repro.workloads",
]


class TestPublicSurface:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_export_resolves_once(self, package):
        module = importlib.import_module(package)
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
        assert len(set(module.__all__)) == len(module.__all__)
