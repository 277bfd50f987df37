"""Tests for execution, rubric, complexity and annotation metrics."""

import pytest

from repro.metrics import (
    annotation_accuracy,
    build_table1,
    build_table2,
    compare_execution,
    execute_safely,
    grade_backtranslation,
    judge_annotation,
    mean_level,
    profile_query_set,
    relative_to_baseline,
    results_match,
)
from repro.errors import MetricError
from repro.llm import describe_query
from repro.metrics.execution import GoldExecution, GoldResultCache
from repro.schema import profile_database


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

    def test_pairs_sharing_a_gold_cache_score_independently(self, hr_database):
        pairs = [
            ("SELECT COUNT(*) FROM employees", "SELECT COUNT(*) FROM employees"),
            ("SELECT COUNT(*) FROM employees", "SELECT COUNT(*) FROM departments"),
        ]
        cache = GoldResultCache(hr_database)
        assert [
            compare_execution(hr_database, gold, predicted, gold_cache=cache).match
            for gold, predicted in pairs
        ] == [True, False]

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

    def test_mean_level(self, hr_database):
        judgements = [
            grade_backtranslation(hr_database, "SELECT name FROM employees", "SELECT name FROM employees"),
            grade_backtranslation(hr_database, "SELECT name FROM employees", None),
        ]
        assert [judgement.level for judgement in judgements] == [5, 1]
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

    def test_accuracy_aggregate(self):
        sql = "SELECT name FROM employees WHERE salary > 10"
        good = describe_query(sql, fidelity=1.0)
        pairs = [(sql, good), (sql, "unrelated words entirely")]
        assert annotation_accuracy(pairs) == 0.5
        assert annotation_accuracy([]) == 0.0


# ---------------------------------------------------------------------------
# per-run comparison memo
# ---------------------------------------------------------------------------


GOLD_QUERIES = [
    "SELECT name FROM employees WHERE salary > 90000 ORDER BY name",
    "SELECT dept_id, COUNT(*) FROM employees GROUP BY dept_id",
    "SELECT broken FROM employees",  # an error is a gold entry too
]


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

    def test_gold_lookups_count_hits_only_when_found(self, hr_database):
        cache = GoldResultCache(hr_database)
        assert cache.get(self.GOLD) is None
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)
        execution = GoldExecution(result=None, error="no such table", ordered=False)
        cache.put(self.GOLD, execution)
        assert cache.get(self.GOLD) is execution
        assert (len(cache), cache.hits, cache.misses) == (1, 1, 1)

    def test_data_change_drops_gold_entries_and_comparisons(self, hr_database):
        cache = GoldResultCache(hr_database)
        compare_execution(hr_database, self.GOLD, "SELECT 2", gold_cache=cache)
        assert len(cache) == 1 and cache.comparison(self.GOLD, "SELECT 2") is not None
        hr_database.execute("DELETE FROM employees WHERE emp_id = 1")
        assert cache.get(self.GOLD) is None and len(cache) == 0
        assert cache.comparison(self.GOLD, "SELECT 2") is None

    def test_memo_hits_leave_the_gold_entries_untouched(self, hr_database):
        cache = GoldResultCache(hr_database)
        pairs = [(sql, predicted) for predicted in (GOLD_QUERIES[0], "SELECT 1", None)
                 for sql in GOLD_QUERIES]
        for sql, predicted in pairs:
            compare_execution(hr_database, sql, predicted, gold_cache=cache)

        def gold_entries():
            entries = {}
            for sql in GOLD_QUERIES:
                entry = cache.get(sql)
                result = entry.result
                entries[sql] = (
                    entry,
                    None if result is None else (list(result.columns), list(result.rows)),
                    entry.error,
                    entry.ordered,
                )
            return entries

        assert len(cache) == len(GOLD_QUERIES)
        first = gold_entries()
        ordered = first[GOLD_QUERIES[0]]
        assert ordered[1][1] == [("Alice",), ("Bob",), ("Eve",)] and ordered[3] is True
        failed = first[GOLD_QUERIES[2]]
        assert failed[1] is None and failed[2]
        for sql, predicted in pairs:  # every pair is now served by the memo
            compare_execution(hr_database, sql, predicted, gold_cache=cache)
        assert len(cache) == len(GOLD_QUERIES)
        assert gold_entries() == first
