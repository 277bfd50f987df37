"""Tests for text, execution, rubric, complexity and annotation metrics."""

import json

import pytest

from repro.metrics import (
    annotation_accuracy,
    bleu_score,
    build_table1,
    build_table2,
    compare_execution,
    exact_match,
    execute_safely,
    execution_accuracy,
    grade_backtranslation,
    judge_annotation,
    level_distribution,
    mean_coverage,
    mean_level,
    profile_query_set,
    relative_to_baseline,
    results_match,
    rouge_l,
    rouge_n,
    token_f1,
)
from repro.errors import MetricError
from repro.llm import describe_query
from repro.metrics.execution import GoldResultCache
from repro.schema import profile_database
from repro.workloads import build_benchmark, workload_fingerprint


class TestTextMetrics:
    def test_exact_match_ignores_case_and_spacing(self):
        assert exact_match("How many  Students?", "how many students")
        assert not exact_match("How many students?", "How many teachers?")

    def test_bleu_identical_is_one(self):
        text = "count the number of students per term"
        assert bleu_score(text, text) == pytest.approx(1.0)

    def test_bleu_orders_similarity(self):
        reference = "count the number of students per term in the registry"
        close = "count the number of students per term"
        far = "completely different sentence about nothing"
        assert bleu_score(close, reference) > bleu_score(far, reference)

    def test_bleu_empty_is_zero(self):
        assert bleu_score("", "reference") == 0.0

    def test_rouge_n_and_l(self):
        reference = "the average salary per department"
        assert rouge_n(reference, reference).f1 == pytest.approx(1.0)
        assert rouge_l(reference, reference).f1 == pytest.approx(1.0)
        assert rouge_l("salary per department", reference).recall < 1.0
        assert rouge_n("xyz", reference, order=2).f1 == 0.0

    def test_token_f1(self):
        assert token_f1("a b c", "a b c") == pytest.approx(1.0)
        assert token_f1("a b", "c d") == 0.0


class TestExecutionMetrics:
    def test_match_ignores_row_order_without_order_by(self, hr_database):
        gold = "SELECT name FROM employees WHERE dept_id = 1"
        predicted = "SELECT name FROM employees WHERE dept_id = 1 ORDER BY name DESC"
        assert compare_execution(hr_database, gold, predicted).match

    def test_order_by_in_gold_enforces_order(self, hr_database):
        gold = "SELECT name FROM employees ORDER BY salary DESC LIMIT 2"
        predicted = "SELECT name FROM employees ORDER BY salary ASC LIMIT 2"
        assert not compare_execution(hr_database, gold, predicted).match

    def test_invalid_prediction_fails(self, hr_database):
        comparison = compare_execution(hr_database, "SELECT name FROM employees", "SELECT nope FROM employees")
        assert not comparison.match
        assert comparison.gold_executed and not comparison.predicted_executed

    def test_none_prediction_fails(self, hr_database):
        assert not compare_execution(hr_database, "SELECT 1", None).match

    def test_invalid_gold_reported(self, hr_database):
        comparison = compare_execution(hr_database, "SELECT nope FROM employees", "SELECT 1")
        assert not comparison.gold_executed

    def test_execute_safely_never_raises(self, hr_database):
        result, error = execute_safely(hr_database, "SELECT * FROM missing_table")
        assert result is None and error

    def test_unexpected_errors_name_their_type(self, hr_database):
        class RaisingDatabase:
            """Parses through the real database; every execution, or every
            parse of ``SELECT 2``, raises a non-library exception."""

            def parse_cached(self, sql):
                if sql == "SELECT 2":
                    raise RecursionError("maximum recursion depth exceeded")
                return hr_database.parse_cached(sql)

            def execute_statement(self, statement):
                raise MemoryError()

        stub = RaisingDatabase()
        assert execute_safely(stub, "SELECT 1") == (None, "unexpected error: MemoryError")
        assert execute_safely(stub, "SELECT 2") == (
            None,
            "unexpected error: RecursionError: maximum recursion depth exceeded",
        )
        comparison = compare_execution(stub, "SELECT 1", "SELECT 1")
        assert not comparison.gold_executed
        assert comparison.error == "gold query failed: unexpected error: MemoryError"
        comparison = compare_execution(stub, "SELECT 2", "SELECT 1")
        assert comparison.error == (
            "gold query failed: unexpected error: RecursionError: "
            "maximum recursion depth exceeded"
        )

    def test_float_tolerance(self, hr_database):
        gold = "SELECT AVG(salary) FROM employees"
        predicted = "SELECT SUM(salary) / COUNT(salary) FROM employees"
        assert compare_execution(hr_database, gold, predicted).match

    def test_execution_accuracy_fraction(self, hr_database):
        pairs = [
            ("SELECT COUNT(*) FROM employees", "SELECT COUNT(*) FROM employees"),
            ("SELECT COUNT(*) FROM employees", "SELECT COUNT(*) FROM departments"),
        ]
        assert execution_accuracy(hr_database, pairs) == 0.5
        assert execution_accuracy(hr_database, []) == 0.0

    def test_results_match_column_count(self, hr_database):
        gold = hr_database.execute("SELECT name, salary FROM employees")
        predicted = hr_database.execute("SELECT name FROM employees")
        assert not results_match(gold, predicted)


class TestRubric:
    def test_level_5_for_equivalent_query(self, hr_database):
        gold = "SELECT name FROM employees WHERE salary > 100000"
        predicted = "SELECT name FROM employees WHERE salary > 100000.0"
        assert grade_backtranslation(hr_database, gold, predicted).level == 5

    def test_level_1_for_missing_or_broken_sql(self, hr_database):
        assert grade_backtranslation(hr_database, "SELECT 1", None).level == 1
        assert grade_backtranslation(hr_database, "SELECT 1", "SELECT x FROM missing").level == 1

    def test_level_2_for_wrong_tables(self, hr_database):
        gold = "SELECT name FROM employees WHERE salary > 0"
        predicted = "SELECT dept_name FROM departments"
        assert grade_backtranslation(hr_database, gold, predicted).level == 2

    def test_level_3_for_wrong_aggregate(self, hr_database):
        gold = "SELECT dept_id, COUNT(*) FROM employees GROUP BY dept_id"
        predicted = "SELECT dept_id, MAX(salary) FROM employees GROUP BY dept_id"
        assert grade_backtranslation(hr_database, gold, predicted).level == 3

    def test_level_4_for_missing_order_or_limit(self, hr_database):
        gold = "SELECT name FROM employees ORDER BY salary DESC LIMIT 3"
        predicted = "SELECT name FROM employees ORDER BY salary DESC LIMIT 4"
        judgement = grade_backtranslation(hr_database, gold, predicted)
        assert judgement.level in (3, 4)
        assert judgement.level == 4 or judgement.reasons

    def test_distribution_and_mean(self, hr_database):
        judgements = [
            grade_backtranslation(hr_database, "SELECT name FROM employees", "SELECT name FROM employees"),
            grade_backtranslation(hr_database, "SELECT name FROM employees", None),
        ]
        distribution = level_distribution(judgements)
        assert distribution[5] == 1 and distribution[1] == 1
        assert mean_level(judgements) == 3.0
        assert mean_level([]) == 0.0


class TestComplexityAggregation:
    def test_profile_query_set(self):
        queries = ["SELECT a FROM t", "SELECT COUNT(*) FROM t GROUP BY b", "not valid sql ###"]
        profile = profile_query_set("demo", queries)
        assert profile.query_count == 2
        assert profile.parse_failures == 1
        assert profile.metric("aggregations") == 0.5

    def test_empty_query_set_raises(self):
        with pytest.raises(MetricError):
            profile_query_set("demo", [])

    def test_all_unparseable_raises(self):
        with pytest.raises(MetricError):
            profile_query_set("demo", ["garbage ###"])

    def test_relative_to_baseline_and_table1(self):
        baseline = {"keywords": 10.0, "tokens": 100.0, "tables": 4.0, "columns": 10.0,
                    "aggregations": 5.0, "nestings": 2.0}
        other = {"keywords": 5.0, "tokens": 50.0, "tables": 2.0, "columns": 5.0,
                 "aggregations": 2.5, "nestings": 1.0}
        relative = relative_to_baseline(baseline, other, tuple(baseline))
        assert all(value == -0.5 for value in relative.values())

    def test_build_table1_requires_baseline(self):
        with pytest.raises(MetricError):
            build_table1({}, "Beaver")

    def test_build_table2_from_databases(self, hr_database):
        profiles = {"A": profile_database(hr_database), "B": profile_database(hr_database)}
        rows = build_table2(profiles, "A")
        assert rows[0].name == "A"
        assert all(value == 0.0 for value in rows[1].relative.values())


class TestAnnotationMetrics:
    def test_complete_description_is_accurate(self):
        sql = "SELECT COUNT(*) FROM employees WHERE salary > 100000"
        assert judge_annotation(sql, describe_query(sql, fidelity=1.0)).accurate

    def test_vague_description_is_not_accurate(self):
        sql = "SELECT dept_id, COUNT(*) FROM employees WHERE salary > 100000 GROUP BY dept_id"
        judgement = judge_annotation(sql, "Some information about employees.")
        assert not judgement.accurate
        assert judgement.coverage < 0.5
        assert judgement.missing_kinds

    def test_accuracy_and_coverage_aggregates(self):
        sql = "SELECT name FROM employees WHERE salary > 10"
        good = describe_query(sql, fidelity=1.0)
        pairs = [(sql, good), (sql, "unrelated words entirely")]
        assert annotation_accuracy(pairs) == 0.5
        assert 0.0 < mean_coverage(pairs) < 1.0
        assert annotation_accuracy([]) == 0.0


# ---------------------------------------------------------------------------
# persistent gold-result cache
# ---------------------------------------------------------------------------


GOLD_QUERIES = [
    "SELECT name FROM employees WHERE salary > 90000 ORDER BY name",
    "SELECT dept_id, COUNT(*) FROM employees GROUP BY dept_id",
    "SELECT broken FROM employees",  # errors must round-trip too
]


class TestGoldCachePersistence:
    def populate(self, database, path, fingerprint):
        cache = GoldResultCache(database, persist_path=path, fingerprint=fingerprint)
        for sql in GOLD_QUERIES:
            compare_execution(database, sql, sql, gold_cache=cache)
        cache.save()
        return cache

    def test_save_and_reload_roundtrip(self, hr_database, tmp_path):
        path = tmp_path / "gold.json"
        first = self.populate(hr_database, path, "fp-hr")
        assert path.exists()

        reloaded = GoldResultCache(hr_database, persist_path=path, fingerprint="fp-hr")
        assert reloaded.loaded == len(first) == len(GOLD_QUERIES)
        entry = reloaded.get(GOLD_QUERIES[0])
        assert entry is not None
        assert entry.ordered is True
        assert entry.result.rows == [("Alice",), ("Bob",), ("Eve",)]
        assert all(isinstance(row, tuple) for row in entry.result.rows)
        failed = reloaded.get(GOLD_QUERIES[2])
        assert failed.result is None
        assert failed.error

    def test_reloaded_entries_skip_execution(self, hr_database, tmp_path):
        path = tmp_path / "gold.json"
        self.populate(hr_database, path, "fp-hr")
        reloaded = GoldResultCache(hr_database, persist_path=path, fingerprint="fp-hr")
        comparison = compare_execution(
            hr_database, GOLD_QUERIES[0], GOLD_QUERIES[0], gold_cache=reloaded
        )
        assert comparison.match
        assert reloaded.hits == 1
        assert reloaded.misses == 0

    def test_fingerprint_mismatch_starts_empty(self, hr_database, tmp_path):
        path = tmp_path / "gold.json"
        self.populate(hr_database, path, "fp-hr")
        stale = GoldResultCache(hr_database, persist_path=path, fingerprint="fp-other")
        assert stale.loaded == 0
        assert len(stale) == 0

    def test_data_version_mismatch_starts_empty(self, hr_database, tmp_path):
        path = tmp_path / "gold.json"
        self.populate(hr_database, path, "fp-hr")
        hr_database.execute(
            "INSERT INTO employees (emp_id, name, salary, dept_id, hire_date) "
            "VALUES (7, 'Grace', 99000, 1, '2023-01-01')"
        )
        stale = GoldResultCache(hr_database, persist_path=path, fingerprint="fp-hr")
        assert stale.loaded == 0

    def test_corrupt_file_is_ignored(self, hr_database, tmp_path):
        path = tmp_path / "gold.json"
        path.write_text("{not json", encoding="utf-8")
        cache = GoldResultCache(hr_database, persist_path=path, fingerprint="fp-hr")
        assert cache.loaded == 0

    def test_workload_fingerprint_is_deterministic(self, tiny_spider):
        rebuilt = build_benchmark("Spider", seed=11, row_scale=0.002, query_count=10)
        assert tiny_spider.fingerprint() == workload_fingerprint(tiny_spider)
        assert rebuilt.fingerprint() == tiny_spider.fingerprint()
        assert len(tiny_spider.fingerprint()) == 64
        # Deterministic builds land on the same data version, which is what
        # makes cross-process cache reuse possible at all.
        assert rebuilt.database.data_version == tiny_spider.database.data_version

    def test_cross_build_reuse(self, tiny_spider, tmp_path):
        path = tmp_path / "workload_gold.json"
        sqls = tiny_spider.query_sql[:3]
        cache = GoldResultCache(
            tiny_spider.database,
            persist_path=path,
            fingerprint=tiny_spider.fingerprint(),
        )
        for sql in sqls:
            compare_execution(tiny_spider.database, sql, sql, gold_cache=cache)
        cache.save()

        rebuilt = build_benchmark("Spider", seed=11, row_scale=0.002, query_count=10)
        fresh = GoldResultCache(
            rebuilt.database, persist_path=path, fingerprint=rebuilt.fingerprint()
        )
        assert fresh.loaded == len(sqls)


# ---------------------------------------------------------------------------
# per-run comparison memo
# ---------------------------------------------------------------------------


class TestComparisonMemo:
    GOLD = "SELECT COUNT(*) FROM employees WHERE dept_id = 1"

    @pytest.fixture()
    def executed(self, hr_database, monkeypatch):
        """Class names of the statements the database executes."""
        names: list[str] = []
        original = type(hr_database).execute_statement

        def counting(self, statement):
            names.append(statement.__class__.__name__)
            return original(self, statement)

        monkeypatch.setattr(type(hr_database), "execute_statement", counting)
        return names

    def test_repeated_pair_is_not_executed_again(self, hr_database, executed):
        cache = GoldResultCache(hr_database)
        first = compare_execution(hr_database, self.GOLD, "SELECT 2", gold_cache=cache)
        second = compare_execution(hr_database, self.GOLD, "SELECT 2", gold_cache=cache)
        assert first == second and first.match
        assert executed == ["Select", "Select"]  # one gold, one predicted
        # The gold counters keep their meaning: the second gold lookup was
        # served from memory.
        assert (cache.hits, cache.misses) == (1, 1)

    def test_dml_between_identical_comparisons_re_executes(self, hr_database):
        cache = GoldResultCache(hr_database)
        assert compare_execution(hr_database, self.GOLD, "SELECT 2", gold_cache=cache).match
        hr_database.execute(
            "INSERT INTO employees (emp_id, name, salary, dept_id, hire_date) "
            "VALUES (7, 'Grace', 99000, 1, '2023-01-01')"
        )
        again = compare_execution(hr_database, self.GOLD, "SELECT 2", gold_cache=cache)
        assert not again.match  # the gold count is now 3
        assert again == compare_execution(hr_database, self.GOLD, "SELECT 2")

    def test_comparison_that_changes_data_is_not_memoised(self, hr_database, executed):
        cache = GoldResultCache(hr_database)
        delete = "DELETE FROM employees WHERE emp_id = 1"
        compare_execution(hr_database, self.GOLD, delete, gold_cache=cache)
        compare_execution(hr_database, self.GOLD, delete, gold_cache=cache)
        assert executed.count("Delete") == 2

    def test_mutating_a_returned_comparison_leaves_the_memo_intact(self, hr_database):
        cache = GoldResultCache(hr_database)
        first = compare_execution(hr_database, self.GOLD, "SELECT 2", gold_cache=cache)
        first.match = False
        first.error = "changed by the caller"
        second = compare_execution(hr_database, self.GOLD, "SELECT 2", gold_cache=cache)
        second.predicted_rows = 99
        third = compare_execution(hr_database, self.GOLD, "SELECT 2", gold_cache=cache)
        assert third == compare_execution(hr_database, self.GOLD, "SELECT 2")
        assert third.match and third.error == "" and third.predicted_rows == 1

    def test_save_writes_the_same_bytes_after_memo_hits(self, hr_database, tmp_path):
        path = tmp_path / "gold.json"
        cache = GoldResultCache(hr_database, persist_path=path, fingerprint="fp-hr")
        pairs = [(sql, predicted) for predicted in (GOLD_QUERIES[0], "SELECT 1", None)
                 for sql in GOLD_QUERIES]
        for sql, predicted in pairs:
            compare_execution(hr_database, sql, predicted, gold_cache=cache)
        cache.save()
        first = path.read_bytes()
        for sql, predicted in pairs:  # every pair is now served by the memo
            compare_execution(hr_database, sql, predicted, gold_cache=cache)
        cache.save()
        assert path.read_bytes() == first
        payload = json.loads(first)
        assert sorted(payload) == ["data_version", "entries", "fingerprint"]
        assert list(payload["entries"]) == GOLD_QUERIES
