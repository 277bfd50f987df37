"""Tests for the BenchPress core: config, ingestion, feedback, pipeline, export, projects."""

import dataclasses
import json

import pytest

from repro.core import (
    AnnotationPipeline,
    AnnotationRecord,
    AnnotationService,
    Feedback,
    FeedbackAction,
    FeedbackLoop,
    TaskConfig,
    export_benchmark_json,
    split_sql_log,
    to_benchmark_records,
)
from repro.errors import ExportError, PipelineError
from repro.llm import describe_query


class TestConfig:
    def test_defaults_are_valid(self):
        TaskConfig().validate()

    def test_invalid_candidates_rejected(self):
        with pytest.raises(PipelineError):
            TaskConfig(num_candidates=0).validate()

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

    def test_from_dict_drops_unknown_keys(self):
        # Journals written before the hedging knobs, the admission limit and
        # the task direction were retired still carry them; they must
        # rebuild the same configuration, not fail.
        state = TaskConfig(llm_max_attempts=3).to_dict()
        retired = dict(state, llm_hedge_enabled=True, llm_hedge_delay_s=0.05,
                       llm_hedge_percentile=0.95, llm_hedge_min_samples=20)
        assert TaskConfig.from_dict(retired) == TaskConfig.from_dict(state)
        retired.update(max_pending_per_project=0, task="sql_to_nl")
        assert TaskConfig.from_dict(retired) == TaskConfig.from_dict(state)

    def test_from_dict_fills_missing_keys_with_defaults(self):
        assert TaskConfig.from_dict({"num_candidates": 2}) == TaskConfig(num_candidates=2)


class TestIngestion:
    def test_split_sql_log_semicolons_and_lines(self):
        assert len(split_sql_log("SELECT 1; SELECT 2;")) == 2
        assert len(split_sql_log("SELECT 1\nSELECT 2\n-- comment\n")) == 2
        assert split_sql_log("") == []

    def test_commented_statement_is_kept(self):
        log = "-- daily report\nSELECT a FROM t;\nSELECT b FROM u;"
        assert split_sql_log(log) == ["SELECT a FROM t", "SELECT b FROM u"]

    def test_semicolon_inside_a_literal_does_not_split(self):
        log = "SELECT a FROM t WHERE b = 'x;y';\nSELECT c FROM u;"
        assert split_sql_log(log) == ["SELECT a FROM t WHERE b = 'x;y'", "SELECT c FROM u"]

    def test_whitespace_inside_a_literal_is_kept(self):
        log = "SELECT  a\tFROM t WHERE b = 'x  y' AND \"c  d\" = 1"
        assert split_sql_log(log) == ["SELECT a FROM t WHERE b = 'x  y' AND \"c  d\" = 1"]

    def test_statement_that_does_not_lex_keeps_the_others(self):
        log = "SELECT 'open FROM t;\nSELECT # FROM u; SELECT COUNT(*) FROM v /* ; */;"
        assert split_sql_log(log) == [
            "SELECT 'open FROM t",
            "SELECT # FROM u",
            "SELECT COUNT(*) FROM v",
        ]

    def test_line_log_splits_only_outside_literals(self):
        log = "SELECT a FROM t WHERE b = 'two\nlines'\nSELECT c FROM u\n"
        assert split_sql_log(log) == ["SELECT a FROM t WHERE b = 'two\nlines'", "SELECT c FROM u"]

    def test_comment_inside_a_statement_is_dropped(self):
        log = "SELECT a -- the key\nFROM t /* ; */ WHERE b = 1;"
        assert split_sql_log(log) == ["SELECT a FROM t WHERE b = 1"]

    def test_tokens_keep_their_spelling(self):
        log = 'select "x  y", COUNT(*) FROM é² WHERE a<>1;'
        assert split_sql_log(log) == ['select "x  y", COUNT(*) FROM é² WHERE a<>1']

    def test_drain_quarantines_an_unparseable_log_statement(self, hr_schema):
        service = AnnotationService()
        service.register_project("demo", hr_schema)
        service.submit_many(
            split_sql_log("SELECT name FROM employees; THIS IS NOT SQL;"), project="demo"
        )
        committed, failed = service.drain()
        assert committed.record is not None and committed.record.sql == "SELECT name FROM employees"
        assert failed.failed and failed.job.sql == "THIS IS NOT SQL"
        assert failed.error_type == "ParseError"
        assert service.quarantine == [failed]
        assert service.stats.completed == 1 and service.stats.failed == 1
        assert service.pipeline("demo").annotations == [committed.record]


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


class TestFeedbackState:
    FEEDBACK = [
        Feedback(action=FeedbackAction.ACCEPT, selected_index=0),
        Feedback(action=FeedbackAction.DISCARD),
        Feedback(action=FeedbackAction.EDIT, selected_index=1, edited_text="Fixed.", comment="typo"),
        Feedback(
            action=FeedbackAction.REGENERATE,
            new_priorities=["name the filter"],
            knowledge=[("J-term", "January term")],
            failure_patterns=[("misses ordering", "mention ORDER BY")],
        ),
    ]

    @pytest.mark.parametrize("feedback", FEEDBACK, ids=lambda feedback: feedback.action.value)
    def test_state_round_trips_to_an_equal_object(self, feedback):
        state = json.loads(json.dumps(feedback.to_state()))
        assert Feedback.from_state(state) == feedback

    @pytest.mark.parametrize("feedback", FEEDBACK, ids=lambda feedback: feedback.action.value)
    def test_state_omits_exactly_the_defaults(self, feedback):
        defaults = Feedback.from_state({"action": feedback.action.value})
        kept = {
            field.name
            for field in dataclasses.fields(Feedback)
            if getattr(feedback, field.name) != getattr(defaults, field.name)
        }
        assert set(feedback.to_state()) == {"action"} | kept

    def test_plain_accept_state(self):
        assert self.FEEDBACK[0].to_state() == {"action": "accept", "selected_index": 0}

    @pytest.mark.parametrize("feedback", FEEDBACK, ids=lambda feedback: feedback.action.value)
    def test_full_form_state_loads_equal(self, feedback):
        # Earlier builds wrote every field, defaults included.
        full = json.loads(json.dumps(dict(dataclasses.asdict(feedback), action=feedback.action.value)))
        assert Feedback.from_state(full) == feedback


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

    def test_export_json(self, tmp_path, hr_schema):
        annotations = self._records(hr_schema)
        json_path = export_benchmark_json(annotations, tmp_path / "bench.json")
        assert len(json.loads(json_path.read_text())) == 2

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
        assert json.loads(json_path.read_text()) == expected

    def test_export_of_only_discarded_annotations_raises(self, tmp_path):
        discarded = [AnnotationRecord("q1", "SELECT 1", "one", accepted=False)]
        with pytest.raises(ExportError):
            export_benchmark_json(discarded, tmp_path / "x.json")
        assert not (tmp_path / "x.json").exists()


class TestServiceProjects:
    def test_project_name_required(self, hr_schema):
        with pytest.raises(PipelineError):
            AnnotationService().register_project("  ", hr_schema)

    def test_log_upload_queues_each_statement(self, hr_schema):
        service = AnnotationService()
        service.register_project("proj", hr_schema)
        log = "SELECT name FROM employees; SELECT dept_name FROM departments;"
        service.submit_many(split_sql_log(log), project="proj")
        assert service.project_names == ["proj"]
        assert len(service.pending_jobs("proj")) == 2
        completed = service.drain(max_jobs=1)
        assert [job.record.query_id for job in completed] == ["proj-00001"]
        assert len(service.pending_jobs("proj")) == 1
        service.drain()
        assert len(service.pending_jobs("proj")) == 0
        assert [r.query_id for r in service.pipeline("proj").annotations] == [
            "proj-00001",
            "proj-00002",
        ]
