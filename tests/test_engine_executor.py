"""Unit tests for the query executor over the in-memory engine."""

import pytest

from repro.errors import CatalogError, ExecutionError, ReproError


class TestProjectionAndFilter:
    def test_select_all_rows(self, hr_database):
        assert len(hr_database.execute("SELECT * FROM employees").rows) == 6

    def test_select_column_subset(self, hr_database):
        result = hr_database.execute("SELECT name, salary FROM employees")
        assert result.columns == ["name", "salary"]
        assert len(result.rows[0]) == 2

    def test_where_filter(self, hr_database):
        rows = hr_database.query("SELECT name FROM employees WHERE salary > 100000")
        assert {row[0] for row in rows} == {"Alice", "Eve"}

    def test_where_string_equality_is_case_sensitive(self, hr_database):
        assert hr_database.query("SELECT * FROM employees WHERE name = 'alice'") == []
        assert len(hr_database.query("SELECT * FROM employees WHERE name = 'Alice'")) == 1

    def test_and_or_logic(self, hr_database):
        rows = hr_database.query(
            "SELECT name FROM employees WHERE salary > 100000 OR dept_id = 2"
        )
        assert {row[0] for row in rows} == {"Alice", "Eve", "Carol", "Dan"}

    def test_null_comparison_filters_out(self, hr_database):
        # dept_id = NULL never matches; Frank's NULL dept is excluded.
        rows = hr_database.query("SELECT name FROM employees WHERE dept_id = 1 OR dept_id <> 1")
        assert "Frank" not in {row[0] for row in rows}

    def test_is_null(self, hr_database):
        rows = hr_database.query("SELECT name FROM employees WHERE dept_id IS NULL")
        assert rows == [("Frank",)]

    def test_is_not_null(self, hr_database):
        assert len(hr_database.query("SELECT name FROM employees WHERE dept_id IS NOT NULL")) == 5

    def test_between(self, hr_database):
        rows = hr_database.query("SELECT name FROM employees WHERE salary BETWEEN 80000 AND 100000")
        assert {row[0] for row in rows} == {"Bob", "Carol"}

    def test_like_prefix(self, hr_database):
        rows = hr_database.query("SELECT dept_name FROM departments WHERE dept_name LIKE 'Eng%'")
        assert rows == [("Engineering",)]

    def test_like_contains(self, hr_database):
        rows = hr_database.query("SELECT dept_name FROM departments WHERE dept_name LIKE '%ar%'")
        assert {row[0] for row in rows} == {"Marketing", "Research"}

    def test_not_like(self, hr_database):
        rows = hr_database.query("SELECT dept_name FROM departments WHERE dept_name NOT LIKE 'Eng%'")
        assert len(rows) == 2

    def test_in_list(self, hr_database):
        rows = hr_database.query("SELECT name FROM employees WHERE dept_id IN (1, 3)")
        assert {row[0] for row in rows} == {"Alice", "Bob", "Eve"}

    def test_arithmetic_in_projection(self, hr_database):
        rows = hr_database.query("SELECT salary * 2 FROM employees WHERE name = 'Bob'")
        assert rows[0][0] == 190000

    def test_case_expression(self, hr_database):
        rows = hr_database.query(
            "SELECT name, CASE WHEN salary >= 100000 THEN 'high' ELSE 'low' END FROM employees "
            "WHERE name IN ('Alice', 'Dan') ORDER BY name"
        )
        assert rows == [("Alice", "high"), ("Dan", "low")]

    def test_division_by_zero_yields_null(self, hr_database):
        rows = hr_database.query("SELECT salary / 0 FROM employees WHERE name = 'Alice'")
        assert rows[0][0] is None

    def test_unknown_column_raises(self, hr_database):
        with pytest.raises(ExecutionError):
            hr_database.execute("SELECT nonexistent FROM employees")

    def test_unknown_table_raises(self, hr_database):
        with pytest.raises(CatalogError):
            hr_database.execute("SELECT * FROM nope")


class TestAggregation:
    def test_count_star(self, hr_database):
        assert hr_database.query("SELECT COUNT(*) FROM employees") == [(6,)]

    def test_count_column_skips_nulls(self, hr_database):
        assert hr_database.query("SELECT COUNT(dept_id) FROM employees") == [(5,)]

    def test_count_distinct(self, hr_database):
        assert hr_database.query("SELECT COUNT(DISTINCT dept_id) FROM employees") == [(3,)]

    def test_sum_avg_min_max(self, hr_database):
        row = hr_database.query(
            "SELECT SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM employees"
        )[0]
        assert row[0] == 592000
        assert row[1] == pytest.approx(592000 / 6)
        assert row[2] == 67000
        assert row[3] == 150000

    def test_group_by(self, hr_database):
        rows = hr_database.query(
            "SELECT dept_id, COUNT(*) FROM employees WHERE dept_id IS NOT NULL "
            "GROUP BY dept_id ORDER BY dept_id"
        )
        assert rows == [(1, 2), (2, 2), (3, 1)]

    def test_group_by_with_join(self, hr_database):
        rows = hr_database.query(
            "SELECT d.dept_name, AVG(e.salary) FROM employees e "
            "JOIN departments d ON e.dept_id = d.dept_id "
            "GROUP BY d.dept_name ORDER BY d.dept_name"
        )
        assert rows[0] == ("Engineering", pytest.approx(107500))

    def test_having(self, hr_database):
        rows = hr_database.query(
            "SELECT dept_id, COUNT(*) FROM employees WHERE dept_id IS NOT NULL "
            "GROUP BY dept_id HAVING COUNT(*) >= 2 ORDER BY dept_id"
        )
        assert rows == [(1, 2), (2, 2)]

    def test_sum_of_empty_group_is_null(self, hr_database):
        assert hr_database.query(
            "SELECT SUM(salary) FROM employees WHERE salary > 99999999"
        ) == [(None,)]

    def test_count_of_no_rows_is_zero(self, hr_database):
        assert hr_database.query("SELECT COUNT(*) FROM employees WHERE salary > 10000000") == [(0,)]

    def test_aggregate_with_expression_argument(self, hr_database):
        rows = hr_database.query("SELECT SUM(salary / 1000) FROM employees")
        assert rows[0][0] == 592

    def test_group_concat(self, hr_database):
        rows = hr_database.query(
            "SELECT GROUP_CONCAT(name) FROM employees WHERE dept_id = 1"
        )
        assert rows[0][0] == "Alice,Bob"


class TestJoins:
    def test_inner_join(self, hr_database):
        rows = hr_database.query(
            "SELECT e.name, d.dept_name FROM employees e JOIN departments d ON e.dept_id = d.dept_id"
        )
        assert len(rows) == 5

    def test_left_join_keeps_unmatched(self, hr_database):
        rows = hr_database.query(
            "SELECT e.name, d.dept_name FROM employees e LEFT JOIN departments d "
            "ON e.dept_id = d.dept_id ORDER BY e.emp_id"
        )
        assert len(rows) == 6
        assert rows[-1] == ("Frank", None)

    def test_right_join(self, hr_database):
        rows = hr_database.query(
            "SELECT d.dept_name, e.name FROM employees e RIGHT JOIN departments d "
            "ON e.dept_id = d.dept_id"
        )
        # All departments appear; Research has one employee (Eve).
        assert len(rows) == 5

    def test_full_join(self, hr_database):
        rows = hr_database.query(
            "SELECT e.name, d.dept_name FROM employees e FULL JOIN departments d "
            "ON e.dept_id = d.dept_id"
        )
        names = {row[0] for row in rows}
        assert "Frank" in names  # unmatched left row survives

    def test_cross_join_row_count(self, hr_database):
        rows = hr_database.query("SELECT * FROM employees CROSS JOIN departments")
        assert len(rows) == 18

    def test_join_using(self, hr_database):
        rows = hr_database.query(
            "SELECT e.name, d.dept_name FROM employees e JOIN departments d USING (dept_id)"
        )
        assert len(rows) == 5

    def test_non_equi_join_condition(self, hr_database):
        rows = hr_database.query(
            "SELECT e.name FROM employees e JOIN departments d ON e.salary > d.budget"
        )
        assert rows == []


class TestSubqueriesAndCTEs:
    def test_scalar_subquery_filter(self, hr_database):
        rows = hr_database.query(
            "SELECT name FROM employees WHERE salary > (SELECT AVG(salary) FROM employees)"
        )
        assert {row[0] for row in rows} == {"Alice", "Eve"}

    def test_in_subquery(self, hr_database):
        rows = hr_database.query(
            "SELECT name FROM employees WHERE dept_id IN "
            "(SELECT dept_id FROM departments WHERE budget > 250000)"
        )
        assert {row[0] for row in rows} == {"Alice", "Bob", "Eve"}

    def test_correlated_exists(self, hr_database):
        rows = hr_database.query(
            "SELECT d.dept_name FROM departments d WHERE EXISTS "
            "(SELECT 1 FROM employees e WHERE e.dept_id = d.dept_id AND e.salary > 100000)"
        )
        assert {row[0] for row in rows} == {"Engineering", "Research"}

    def test_not_exists(self, hr_database):
        rows = hr_database.query(
            "SELECT d.dept_name FROM departments d WHERE NOT EXISTS "
            "(SELECT 1 FROM employees e WHERE e.dept_id = d.dept_id)"
        )
        assert rows == []

    def test_derived_table(self, hr_database):
        rows = hr_database.query(
            "SELECT sub.dept_id, sub.n FROM "
            "(SELECT dept_id, COUNT(*) AS n FROM employees GROUP BY dept_id) AS sub "
            "WHERE sub.n >= 2 AND sub.dept_id IS NOT NULL ORDER BY sub.dept_id"
        )
        assert rows == [(1, 2), (2, 2)]

    def test_cte(self, hr_database):
        rows = hr_database.query(
            "WITH rich AS (SELECT * FROM employees WHERE salary > 90000) "
            "SELECT COUNT(*) FROM rich"
        )
        assert rows == [(3,)]

    def test_cte_with_column_rename(self, hr_database):
        rows = hr_database.query(
            "WITH t (person, pay) AS (SELECT name, salary FROM employees) "
            "SELECT person FROM t WHERE pay > 140000"
        )
        assert rows == [("Eve",)]

    def test_scalar_subquery_in_select_list(self, hr_database):
        rows = hr_database.query(
            "SELECT name, (SELECT MAX(budget) FROM departments) FROM employees WHERE emp_id = 1"
        )
        assert rows == [("Alice", 500000)]


class TestOrderLimitDistinctSetOps:
    def test_order_by_desc(self, hr_database):
        rows = hr_database.query("SELECT name FROM employees ORDER BY salary DESC LIMIT 2")
        assert rows == [("Eve",), ("Alice",)]

    def test_order_by_alias(self, hr_database):
        rows = hr_database.query(
            "SELECT name, salary * 2 AS double_pay FROM employees ORDER BY double_pay ASC LIMIT 1"
        )
        assert rows == [("Frank", 134000)]

    def test_order_by_position(self, hr_database):
        rows = hr_database.query("SELECT name, salary FROM employees ORDER BY 2 DESC LIMIT 1")
        assert rows[0][0] == "Eve"

    def test_limit_offset(self, hr_database):
        rows = hr_database.query("SELECT name FROM employees ORDER BY emp_id LIMIT 2 OFFSET 2")
        assert rows == [("Carol",), ("Dan",)]

    def test_distinct(self, hr_database):
        rows = hr_database.query("SELECT DISTINCT dept_id FROM employees WHERE dept_id IS NOT NULL")
        assert len(rows) == 3

    def test_union_removes_duplicates(self, hr_database):
        rows = hr_database.query(
            "SELECT dept_id FROM employees WHERE dept_id = 1 UNION SELECT dept_id FROM employees WHERE dept_id = 1"
        )
        assert rows == [(1,)]

    def test_union_all_keeps_duplicates(self, hr_database):
        rows = hr_database.query(
            "SELECT dept_id FROM employees WHERE dept_id = 1 "
            "UNION ALL SELECT dept_id FROM employees WHERE dept_id = 1"
        )
        assert len(rows) == 4

    def test_intersect(self, hr_database):
        rows = hr_database.query(
            "SELECT dept_id FROM employees INTERSECT SELECT dept_id FROM departments"
        )
        assert {row[0] for row in rows} == {1, 2, 3}

    def test_except(self, hr_database):
        rows = hr_database.query(
            "SELECT dept_id FROM departments EXCEPT SELECT dept_id FROM employees WHERE dept_id IS NOT NULL"
        )
        assert rows == []

    def test_select_without_from(self, hr_database):
        assert hr_database.query("SELECT 1 + 2") == [(3,)]

    def test_scalar_functions(self, hr_database):
        rows = hr_database.query("SELECT UPPER(name), LENGTH(name) FROM employees WHERE emp_id = 1")
        assert rows == [("ALICE", 5)]

    def test_coalesce(self, hr_database):
        rows = hr_database.query(
            "SELECT COALESCE(dept_id, -1) FROM employees WHERE name = 'Frank'"
        )
        assert rows == [(-1,)]


# ---------------------------------------------------------------------------
# GROUP BY / ORDER BY alias resolution
# ---------------------------------------------------------------------------


class TestAliasResolution:
    def test_group_by_column_alias(self, hr_database):
        sql = "SELECT dept_id AS grp, COUNT(*) AS n FROM employees GROUP BY grp"
        rows = sorted(hr_database.execute(sql).rows, key=lambda row: (row[0] is None, row[0]))
        assert rows == [(1, 2), (2, 2), (3, 1), (None, 1)]

    def test_group_by_expression_alias(self, hr_database):
        sql = (
            "SELECT salary * 2 AS double_salary, COUNT(*) AS n "
            "FROM employees GROUP BY double_salary"
        )
        assert len(hr_database.execute(sql).rows) == 6

    def test_source_column_shadows_alias(self, hr_database):
        # The alias reuses a real column name: grouping must use the source
        # column (6 distinct salaries), not the aliased dept_id (4 groups).
        sql = "SELECT dept_id AS salary, COUNT(*) AS n FROM employees GROUP BY salary"
        assert len(hr_database.execute(sql).rows) == 6

    def test_aggregate_alias_in_group_by_still_errors(self, hr_database):
        with pytest.raises(ReproError, match="unknown column reference .n."):
            hr_database.execute("SELECT COUNT(*) AS n FROM employees GROUP BY n")

    def test_order_by_alias(self, hr_database):
        sql = "SELECT name, salary * 2 AS double_salary FROM employees ORDER BY double_salary"
        rows = hr_database.execute(sql).rows
        assert [row[0] for row in rows] == ["Frank", "Dan", "Carol", "Bob", "Alice", "Eve"]


class TestResultsDoNotAliasStoredRows:
    """Relations share row lists with their tables; results never do."""

    STATEMENTS = [
        "SELECT * FROM t",
        "WITH c AS (SELECT * FROM t) SELECT * FROM c",
        "SELECT * FROM (SELECT * FROM t) AS d",
        "SELECT * FROM t ORDER BY a DESC",
        "SELECT * FROM t LIMIT 2",
        "SELECT * FROM t AS x, t AS y",
    ]

    def test_an_insert_leaves_earlier_results_unchanged(self):
        from repro.engine import Database

        database = Database()
        database.execute("CREATE TABLE t (a INT, b TEXT)")
        database.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
        stored = database.table("t").rows
        results = [database.execute(sql) for sql in self.STATEMENTS]
        before = [list(result.rows) for result in results]
        assert [len(rows) for rows in before] == [3, 3, 3, 3, 2, 9]
        database.execute("INSERT INTO t VALUES (4, 'w')")
        assert database.table("t").rows is stored and len(stored) == 4
        for sql, result, rows in zip(self.STATEMENTS, results, before):
            assert result.rows == rows, sql
            assert result.rows is not stored, sql
