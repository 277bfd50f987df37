"""Tests for the BenchPress core: config, ingestion, feedback, pipeline, export, projects."""

import json

import pytest

from repro.core import (
    AnnotationPipeline,
    AnnotationRecord,
    AnnotationTask,
    Feedback,
    FeedbackAction,
    FeedbackLoop,
    TaskConfig,
    Workspace,
    export_benchmark_json,
    export_jsonl,
    ingest_sql_log,
    load_benchmark_json,
    split_sql_log,
    to_benchmark_records,
)
from repro.errors import (
    ExportError,
    IngestionError,
    PipelineError,
    ProjectError,
)
from repro.llm import describe_query


class TestConfig:
    def test_defaults_are_valid(self):
        TaskConfig().validate()

    def test_invalid_candidates_rejected(self):
        with pytest.raises(PipelineError):
            TaskConfig(num_candidates=0).validate()

    def test_nl_to_sql_not_supported(self):
        with pytest.raises(PipelineError):
            TaskConfig(task=AnnotationTask.NL_TO_SQL).validate()

    def test_describe_lists_enabled_features(self):
        text = TaskConfig(rag_enabled=False, decomposition_enabled=False,
                          knowledge_feedback_enabled=False).describe()
        assert "no assistance" in text
        assert "gpt-4o" in text

    def test_from_dict_round_trips_every_field(self):
        config = TaskConfig(num_candidates=3, rag_enabled=False,
                            llm_max_attempts=4, llm_call_timeout=2.0)
        state = config.to_dict()
        assert TaskConfig.from_dict(state) == config
        assert isinstance(TaskConfig.from_dict(state).task, AnnotationTask)

    def test_from_dict_drops_unknown_keys(self):
        # Journals written before the hedging knobs were retired still carry
        # them; they must rebuild the same configuration, not fail.
        state = TaskConfig(llm_max_attempts=3).to_dict()
        retired = dict(state, llm_hedge_enabled=True, llm_hedge_delay_s=0.05,
                       llm_hedge_percentile=0.95, llm_hedge_min_samples=20)
        assert TaskConfig.from_dict(retired) == TaskConfig.from_dict(state)

    def test_from_dict_fills_missing_keys_with_defaults(self):
        assert TaskConfig.from_dict({"num_candidates": 2}) == TaskConfig(num_candidates=2)


class TestIngestion:
    def test_split_sql_log_semicolons_and_lines(self):
        assert len(split_sql_log("SELECT 1; SELECT 2;")) == 2
        assert len(split_sql_log("SELECT 1\nSELECT 2\n-- comment\n")) == 2
        assert split_sql_log("") == []

    def test_ingest_sql_log_marks_invalid_entries(self, hr_schema):
        dataset = ingest_sql_log(
            "SELECT name FROM employees; THIS IS NOT SQL;", hr_schema, dataset_name="demo"
        )
        assert len(dataset.valid_entries) == 1
        assert len(dataset.invalid_entries) == 1
        assert dataset.invalid_entries[0].parse_error

    def test_empty_log_raises(self, hr_schema):
        with pytest.raises(IngestionError):
            ingest_sql_log("   ", hr_schema)

    def test_ingest_files(self, tmp_path, hr_schema):
        schema_path = tmp_path / "schema.sql"
        log_path = tmp_path / "log.sql"
        schema_path.write_text(hr_schema.to_ddl())
        log_path.write_text("SELECT name FROM employees;")
        from repro.core import ingest_files

        dataset = ingest_files(schema_path, log_path)
        assert dataset.schema.has_table("employees")
        assert len(dataset.valid_entries) == 1

    def test_ingest_files_missing_raises(self, tmp_path):
        from repro.core import ingest_files

        with pytest.raises(IngestionError):
            ingest_files(tmp_path / "nope.sql", tmp_path / "nope2.sql")

    def test_load_benchmark_json(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps([{"question": "q", "query": "SELECT 1", "db_id": "x"}]))
        assert load_benchmark_json(path)[0]["db_id"] == "x"
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(IngestionError):
            load_benchmark_json(bad)


class TestFeedbackLoop:
    def test_accept_selects_candidate(self):
        loop = FeedbackLoop()
        outcome = loop.apply(["first", "second"], Feedback(action=FeedbackAction.ACCEPT, selected_index=1))
        assert outcome.final_text == "second" and outcome.accepted

    def test_edit_requires_text(self):
        loop = FeedbackLoop()
        with pytest.raises(PipelineError):
            loop.apply(["x"], Feedback(action=FeedbackAction.EDIT))
        outcome = loop.apply(["x"], Feedback(action=FeedbackAction.EDIT, edited_text="fixed"))
        assert outcome.final_text == "fixed"

    def test_discard_and_regenerate(self):
        loop = FeedbackLoop()
        assert loop.apply(["x"], Feedback(action=FeedbackAction.DISCARD)).accepted is False
        assert loop.apply(["x"], Feedback(action=FeedbackAction.REGENERATE)).needs_regeneration

    def test_accept_out_of_range_raises(self):
        with pytest.raises(PipelineError):
            FeedbackLoop().apply(["only"], Feedback(action=FeedbackAction.ACCEPT, selected_index=5))

    def test_knowledge_and_priorities_accumulate(self):
        loop = FeedbackLoop()
        loop.apply(
            ["x"],
            Feedback(
                action=FeedbackAction.ACCEPT,
                selected_index=0,
                knowledge=[("J-term", "January term")],
                new_priorities=["describe filters explicitly"],
                failure_patterns=[("misses ordering", "mention ORDER BY")],
            ),
        )
        assert len(loop.knowledge) == 1
        assert loop.priorities == ["describe filters explicitly"]
        assert loop.knowledge.failure_patterns

    def test_rank_validates_permutation(self):
        loop = FeedbackLoop()
        assert loop.rank(["a", "b"], [1, 0]) == ["b", "a"]
        with pytest.raises(PipelineError):
            loop.rank(["a", "b"], [0, 0])


class TestPipeline:
    def test_generate_candidates_flat_query(self, hr_schema):
        pipeline = AnnotationPipeline(hr_schema, dataset_name="hr")
        candidate_set = pipeline.generate_candidates("SELECT name FROM employees WHERE salary > 1")
        assert candidate_set.candidates
        assert candidate_set.prompt is not None
        assert not candidate_set.was_decomposed

    def test_nested_query_is_decomposed(self, hr_schema):
        pipeline = AnnotationPipeline(hr_schema, dataset_name="hr")
        candidate_set = pipeline.generate_candidates(
            "SELECT name FROM employees WHERE dept_id IN (SELECT dept_id FROM departments)"
        )
        assert candidate_set.was_decomposed
        assert candidate_set.unit_candidates

    def test_decomposition_can_be_disabled(self, hr_schema):
        pipeline = AnnotationPipeline(
            hr_schema, config=TaskConfig(decomposition_enabled=False), dataset_name="hr"
        )
        candidate_set = pipeline.generate_candidates(
            "SELECT name FROM employees WHERE dept_id IN (SELECT dept_id FROM departments)"
        )
        assert not candidate_set.was_decomposed

    def test_annotate_accept_stores_example(self, hr_schema):
        pipeline = AnnotationPipeline(hr_schema, dataset_name="hr")
        record = pipeline.annotate("SELECT COUNT(*) FROM employees")
        assert record.accepted and record.nl
        assert pipeline.example_count == 1
        assert pipeline.accepted_annotations == [record]

    def test_empty_sql_raises(self, hr_schema):
        with pytest.raises(PipelineError):
            AnnotationPipeline(hr_schema).generate_candidates("   ")

    def test_feedback_edit_overrides_candidate(self, hr_schema):
        pipeline = AnnotationPipeline(hr_schema, dataset_name="hr")
        candidate_set = pipeline.generate_candidates("SELECT name FROM employees")
        record = pipeline.submit_feedback(
            candidate_set, Feedback(action=FeedbackAction.EDIT, edited_text="List employee names.")
        )
        assert record.nl == "List employee names."
        assert record.action == "edit"

    def test_regeneration_returns_none_then_new_candidates(self, hr_schema):
        pipeline = AnnotationPipeline(hr_schema, dataset_name="hr")
        candidate_set = pipeline.generate_candidates("SELECT name FROM employees")
        outcome = pipeline.submit_feedback(
            candidate_set,
            Feedback(action=FeedbackAction.REGENERATE, new_priorities=["mention the table"]),
        )
        assert outcome is None
        assert pipeline.feedback_loop.priorities == ["mention the table"]

    def test_rag_disabled_prompt_has_no_schema(self, hr_schema):
        pipeline = AnnotationPipeline(hr_schema, config=TaskConfig(rag_enabled=False))
        candidate_set = pipeline.generate_candidates("SELECT name FROM employees")
        assert candidate_set.prompt.has_schema_context is False


class TestExportAndReview:
    def _records(self, hr_schema):
        pipeline = AnnotationPipeline(hr_schema, dataset_name="hr")
        pipeline.annotate("SELECT COUNT(*) FROM employees", query_id="q1")
        pipeline.annotate("SELECT name FROM employees WHERE salary > 100000", query_id="q2")
        return pipeline.annotations

    def test_to_benchmark_records(self, hr_schema):
        records = to_benchmark_records(self._records(hr_schema))
        assert len(records) == 2
        assert {"question", "query", "db_id", "query_id"} <= set(records[0])

    def test_export_json_and_jsonl(self, tmp_path, hr_schema):
        annotations = self._records(hr_schema)
        json_path = export_benchmark_json(annotations, tmp_path / "bench.json")
        assert len(json.loads(json_path.read_text())) == 2
        jsonl_path = export_jsonl(annotations, tmp_path / "bench.jsonl")
        assert len(jsonl_path.read_text().strip().splitlines()) == 2

    def test_export_empty_raises(self, tmp_path):
        with pytest.raises(ExportError):
            export_benchmark_json([], tmp_path / "x.json")

    def test_records_skip_discarded_and_unnamed_annotations(self):
        annotations = [
            AnnotationRecord("q1", "SELECT 1", "one", dataset="hr"),
            AnnotationRecord("q2", "SELECT 2", "two", accepted=False),
            AnnotationRecord("q3", "SELECT 3", ""),
        ]
        assert [r["query_id"] for r in to_benchmark_records(annotations)] == ["q1"]

    def test_record_fields_and_default_db_id(self):
        record = AnnotationRecord("q7", "SELECT name FROM t", "the names",
                                  model_name="gpt-4o", was_decomposed=True)
        assert to_benchmark_records([record]) == [{
            "question": "the names",
            "query": "SELECT name FROM t",
            "db_id": "default",
            "query_id": "q7",
            "source": "benchpress",
            "model": "gpt-4o",
            "decomposed": True,
        }]

    def test_exports_create_parent_directories(self, tmp_path, hr_schema):
        annotations = self._records(hr_schema)
        expected = to_benchmark_records(annotations)
        json_path = export_benchmark_json(annotations, tmp_path / "a" / "b.json")
        jsonl_path = export_jsonl(annotations, tmp_path / "c" / "d.jsonl")
        assert json.loads(json_path.read_text()) == expected
        lines = jsonl_path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == expected

    def test_jsonl_export_of_only_discarded_annotations_raises(self, tmp_path):
        discarded = [AnnotationRecord("q1", "SELECT 1", "one", accepted=False)]
        with pytest.raises(ExportError):
            export_jsonl(discarded, tmp_path / "x.jsonl")
        assert not (tmp_path / "x.jsonl").exists()


class TestWorkspace:
    def test_workspace_requires_username(self):
        with pytest.raises(ProjectError):
            Workspace("  ")

    def test_api_key_never_exposed(self):
        workspace = Workspace("alice", api_key="secret")
        assert workspace.has_api_key
        assert "secret" not in repr(vars(workspace).keys())

    def test_create_project_from_log_and_progress(self, hr_schema):
        workspace = Workspace("alice")
        project = workspace.create_project_from_log(
            "proj", hr_schema, "SELECT name FROM employees; SELECT dept_name FROM departments;"
        )
        assert workspace.project_names == ["proj"]
        assert len(project.pending_queries) == 2
        assert project.progress == 0.0
        project.pipeline.annotate(project.pending_queries[0])
        assert project.progress == 0.5

    def test_duplicate_project_raises(self, hr_schema):
        workspace = Workspace("alice")
        workspace.create_project_from_log("proj", hr_schema, "SELECT 1 FROM employees")
        with pytest.raises(ProjectError):
            workspace.create_project_from_log("proj", hr_schema, "SELECT 1 FROM employees")

    def test_delete_project(self, hr_schema):
        workspace = Workspace("alice")
        workspace.create_project_from_log("proj", hr_schema, "SELECT name FROM employees")
        workspace.delete_project("proj")
        assert workspace.project_names == []
        with pytest.raises(ProjectError):
            workspace.project("proj")
