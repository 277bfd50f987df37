"""Unit tests for the expression compiler and the engine's caching tiers."""

from __future__ import annotations

import pytest

from repro.engine import Database
from repro.engine.compiler import RowContext, compile_group_expression, compile_row_expression
from repro.engine.runtime import MemberSet
from repro.engine.storage import ColumnLabel, Relation
from repro.errors import ExecutionError
from repro.metrics.execution import (
    GoldResultCache,
    compare_execution,
)
from repro.sql.parser import parse_expression


@pytest.fixture()
def relation() -> Relation:
    return Relation(
        labels=[
            ColumnLabel(name="id", relation="t"),
            ColumnLabel(name="name", relation="t"),
            ColumnLabel(name="amount", relation="t"),
        ],
        rows=[
            (1, "alpha", 10.0),
            (2, "beta", None),
            (3, None, 7.5),
        ],
    )


class TestRowCompiler:
    def test_column_and_arithmetic(self, relation):
        fn = compile_row_expression(parse_expression("t.amount * 2 + id"), relation)
        assert fn is not None
        assert fn(relation.rows[0]) == 21.0
        assert fn(relation.rows[1]) is None  # NULL propagates

    def test_comparisons_null_propagation(self, relation):
        fn = compile_row_expression(parse_expression("amount > 8"), relation)
        assert fn(relation.rows[0]) is True
        assert fn(relation.rows[1]) is None
        assert fn(relation.rows[2]) is False

    def test_three_valued_and_or(self, relation):
        # row 1 has amount NULL and id 2
        and_false = compile_row_expression(parse_expression("amount > 8 AND id = 1"), relation)
        # NULL AND FALSE is FALSE (matches the interpreter's short-circuit)
        assert and_false(relation.rows[1]) is False
        and_true = compile_row_expression(parse_expression("amount > 8 AND id = 2"), relation)
        # NULL AND TRUE is NULL
        assert and_true(relation.rows[1]) is None
        or_fn = compile_row_expression(parse_expression("amount > 8 OR id = 2"), relation)
        # NULL OR TRUE is TRUE
        assert or_fn(relation.rows[1]) is True
        or_null = compile_row_expression(parse_expression("amount > 8 OR id = 1"), relation)
        # NULL OR FALSE is NULL
        assert or_null(relation.rows[1]) is None

    def test_like_precompiled_regex(self, relation):
        fn = compile_row_expression(parse_expression("name LIKE 'AL%'"), relation)
        assert fn(relation.rows[0]) is True  # case-insensitive
        assert fn(relation.rows[1]) is False
        assert fn(relation.rows[2]) is None

    def test_in_list_of_literals(self, relation):
        fn = compile_row_expression(parse_expression("id IN (1, 3)"), relation)
        assert [fn(row) for row in relation.rows] == [True, False, True]
        negated = compile_row_expression(parse_expression("id NOT IN (1, 3)"), relation)
        assert [negated(row) for row in relation.rows] == [False, True, False]

    def test_case_cast_and_functions(self, relation):
        fn = compile_row_expression(
            parse_expression(
                "CASE WHEN amount IS NULL THEN 'none' ELSE UPPER(name) END"
            ),
            relation,
        )
        assert fn(relation.rows[0]) == "ALPHA"
        assert fn(relation.rows[1]) == "none"
        cast_fn = compile_row_expression(parse_expression("CAST(amount AS INT)"), relation)
        assert cast_fn(relation.rows[0]) == 10
        assert cast_fn(relation.rows[1]) is None

    def test_unknown_column_is_not_compilable(self, relation):
        # It compiles to a closure that raises once a row reaches it.
        fn = compile_row_expression(parse_expression("missing + 1"), relation)
        with pytest.raises(ExecutionError, match="^unknown column reference 'missing'$"):
            fn(relation.rows[0])

    def test_outer_reference_reads_the_bound_outer_row(self, relation):
        outer_relation = Relation(labels=[ColumnLabel(name="limit_id", relation="o")])
        outer = RowContext(outer_relation, (2,))
        fn = compile_row_expression(parse_expression("id <= o.limit_id"), relation, None, outer)
        assert [fn(row) for row in relation.rows] == [True, True, False]
        # The chain is searched nearest first, up to the grandparent.
        middle = Relation(
            labels=[ColumnLabel(name="x", relation="m"), ColumnLabel(name="limit_id", relation="m")]
        )
        inner = RowContext(middle, (9, 5), outer)
        nearest = compile_row_expression(parse_expression("limit_id + x"), relation, None, inner)
        assert nearest(relation.rows[0]) == 14
        grandparent = compile_row_expression(
            parse_expression("o.limit_id + x"), relation, None, inner
        )
        assert grandparent(relation.rows[0]) == 11

    def test_subqueries_are_not_compilable(self, relation):
        # A subquery runs through the caller's handler; without one it
        # cannot compile.
        expression = parse_expression("id IN (SELECT 1)")

        def handler(subquery, members=False):
            assert members
            return lambda row: MemberSet([1])

        fn = compile_row_expression(expression, relation, handler)
        assert [fn(row) for row in relation.rows] == [True, False, False]
        with pytest.raises(ValueError, match="subquery handler"):
            compile_row_expression(expression, relation)

    def test_aggregates_not_compilable_in_row_mode(self, relation):
        fn = compile_row_expression(parse_expression("SUM(amount)"), relation)
        with pytest.raises(
            ExecutionError, match="^aggregate SUM used outside aggregation context$"
        ):
            fn(relation.rows[0])

    def test_unknown_function_not_compilable(self, relation):
        fn = compile_row_expression(parse_expression("no_such_fn(id)"), relation)
        with pytest.raises(ExecutionError, match="^unknown scalar function 'no_such_fn'$"):
            fn(relation.rows[0])
        # Its arguments are evaluated first, so theirs is the error raised.
        fn = compile_row_expression(parse_expression("NO_SUCH_FN(missing)"), relation)
        with pytest.raises(ExecutionError, match="^unknown column reference 'missing'$"):
            fn(relation.rows[0])


class TestGroupCompiler:
    def test_aggregate_over_group(self, relation):
        fn = compile_group_expression(parse_expression("SUM(amount)"), relation)
        assert fn(relation.rows, relation.rows[0]) == 17.5
        count = compile_group_expression(parse_expression("COUNT(*)"), relation)
        assert count(relation.rows, relation.rows[0]) == 3

    def test_aggregate_arithmetic(self, relation):
        fn = compile_group_expression(
            parse_expression("SUM(amount) / COUNT(*)"), relation
        )
        assert fn(relation.rows, relation.rows[0]) == pytest.approx(17.5 / 3)

    def test_non_aggregate_uses_representative_row(self, relation):
        fn = compile_group_expression(parse_expression("name"), relation)
        assert fn(relation.rows, relation.rows[1]) == "beta"

    def test_aggregate_inside_unsupported_node_falls_back(self, relation):
        # An aggregate under any node reads the group.
        between = compile_group_expression(parse_expression("COUNT(*) BETWEEN 1 AND 5"), relation)
        assert between(relation.rows, relation.rows[0]) is True
        assert between(relation.rows[:0], relation.rows[0]) is False
        like = compile_group_expression(parse_expression("MAX(name) LIKE 'b%'"), relation)
        assert like(relation.rows, relation.rows[0]) is True
        is_null = compile_group_expression(parse_expression("MIN(amount) IS NULL"), relation)
        assert is_null(relation.rows[1:2], relation.rows[1]) is True

    def test_zero_argument_scalar_raises_its_execution_error(self):
        database = Database("zero-args")
        database.execute("CREATE TABLE t (g TEXT, x INT)")
        database.execute("INSERT INTO t (g, x) VALUES ('a', 1)")
        message = "^scalar function 'UPPER' expects at least one argument$"
        for sql in ("SELECT UPPER() FROM t", "SELECT g, UPPER() FROM t GROUP BY g"):
            with pytest.raises(ExecutionError, match=message):
                database.execute(sql)


class TestStatementCache:
    def test_repeated_sql_parses_once(self):
        database = Database("cache")
        database.execute("CREATE TABLE t (id INT)")
        database.execute("INSERT INTO t (id) VALUES (1), (2)")
        baseline_misses = database.statement_cache_misses
        baseline_hits = database.statement_cache_hits
        for _ in range(5):
            assert database.execute("SELECT COUNT(*) FROM t").rows == [(2,)]
        assert database.statement_cache_misses == baseline_misses + 1
        assert database.statement_cache_hits == baseline_hits + 4

    def test_lru_eviction(self):
        database = Database("small-cache", statement_cache_size=2)
        database.execute("CREATE TABLE t (id INT)")
        database.execute("SELECT 1")
        database.execute("SELECT 2")
        database.execute("SELECT 3")  # evicts the oldest entry
        misses = database.statement_cache_misses
        database.execute("SELECT 3")  # hit
        assert database.statement_cache_misses == misses
        database.execute("SELECT 1")  # was evicted: re-parsed
        assert database.statement_cache_misses == misses + 1

    def test_parse_errors_are_not_cached(self):
        database = Database("errors")
        with pytest.raises(Exception):
            database.parse_cached("SELEC nope")
        assert len(database._statement_cache) == 0


class TestVersionedInvalidation:
    def test_subquery_cache_invalidated_by_sql_insert(self):
        database = Database("versions")
        database.execute("CREATE TABLE t (id INT)")
        database.execute("INSERT INTO t (id) VALUES (1)")
        sql = "SELECT (SELECT COUNT(*) FROM t)"
        assert database.execute(sql).rows == [(1,)]
        database.execute("INSERT INTO t (id) VALUES (2)")
        # Same cached AST object; the data-version bump must invalidate the
        # memoised uncorrelated subquery result.
        assert database.execute(sql).rows == [(2,)]

    def test_subquery_cache_invalidated_by_direct_table_insert(self):
        database = Database("direct")
        database.execute("CREATE TABLE t (id INT)")
        sql = "SELECT (SELECT COUNT(*) FROM t)"
        assert database.execute(sql).rows == [(0,)]
        # The workload generator inserts straight into the stored table.
        database.table("t").insert_rows([(1,), (2,)])
        assert database.execute(sql).rows == [(2,)]

    def test_data_version_counts_mutations(self):
        database = Database("counter")
        database.execute("CREATE TABLE t (id INT)")
        version = database.data_version
        database.execute("INSERT INTO t (id) VALUES (1), (2)")
        assert database.data_version == version + 1  # one bump per statement
        read_version = database.data_version
        database.execute("SELECT * FROM t")
        assert database.data_version == read_version  # reads do not invalidate

    def test_catalog_version_bumped_by_ddl(self):
        database = Database("ddl")
        version = database.catalog_version
        database.execute("CREATE TABLE t (id INT)")
        assert database.catalog_version == version + 1
        database.drop_table("t")
        assert database.catalog_version == version + 2

    def test_drop_and_recreate_clears_compiled_plans(self):
        database = Database("replan")
        database.execute("CREATE TABLE t (a INT, b INT)")
        database.execute("INSERT INTO t (a, b) VALUES (1, 10)")
        sql = "SELECT b FROM t WHERE a = 1"
        assert database.execute(sql).rows == [(10,)]
        database.drop_table("t")
        # Recreate with the column order swapped: stale compiled indices would
        # read the wrong column.
        database.execute("CREATE TABLE t (b INT, a INT)")
        database.execute("INSERT INTO t (b, a) VALUES (20, 1)")
        assert database.execute(sql).rows == [(20,)]


class TestGoldResultCache:
    @pytest.fixture()
    def database(self):
        database = Database("gold")
        database.execute("CREATE TABLE t (id INT, v INT)")
        database.execute("INSERT INTO t (id, v) VALUES (1, 10), (2, 20), (3, 30)")
        return database

    def test_gold_executes_once_across_models(self, database, monkeypatch):
        gold = "SELECT v FROM t WHERE id <= 2"
        executed: list[str] = []
        original = Database.execute_statement

        def counting(self, statement):
            executed.append(statement.__class__.__name__)
            return original(self, statement)

        monkeypatch.setattr(Database, "execute_statement", counting)
        cache = GoldResultCache(database)
        predictions = ["SELECT v FROM t WHERE id <= 2", "SELECT v FROM t", "SELECT 1"]
        outcomes = [
            compare_execution(database, gold, predicted, gold_cache=cache)
            for predicted in predictions
        ]
        assert [outcome.match for outcome in outcomes] == [True, False, False]
        # 3 predicted executions + exactly 1 gold execution.
        assert len(executed) == 4
        assert cache.hits == 2
        assert cache.misses == 1

    def test_cache_invalidated_by_dml(self, database):
        cache = GoldResultCache(database)
        gold = "SELECT COUNT(*) FROM t"
        first = compare_execution(database, gold, "SELECT 3", gold_cache=cache)
        assert first.match
        database.execute("INSERT INTO t (id, v) VALUES (4, 40)")
        second = compare_execution(database, gold, "SELECT 4", gold_cache=cache)
        assert second.match  # stale gold (3) would not match the new count

    def test_shared_cache_comparisons_match_uncached(self, database):
        pairs = [
            ("SELECT v FROM t ORDER BY v DESC", "SELECT v FROM t ORDER BY v DESC"),
            ("SELECT v FROM t ORDER BY v DESC", "SELECT v FROM t ORDER BY v ASC"),
            ("SELECT SUM(v) FROM t", "SELECT 60"),
            ("SELECT bad FROM t", "SELECT 1"),
            ("SELECT 1", None),
        ]
        cache = GoldResultCache(database)
        shared = [compare_execution(database, g, p, gold_cache=cache) for g, p in pairs]
        singles = [compare_execution(database, g, p) for g, p in pairs]
        assert [m.__dict__ for m in shared] == [s.__dict__ for s in singles]

    def test_ordered_gold_detected_without_reparse(self, database):
        # ORDER BY gold: order-sensitive comparison must reject reversed rows.
        baseline_misses = database.statement_cache_misses
        comparison = compare_execution(
            database,
            "SELECT v FROM t ORDER BY v ASC",
            "SELECT v FROM t ORDER BY v DESC",
        )
        assert not comparison.match
        # Gold was parsed exactly once (predicted once too): two cache misses.
        assert database.statement_cache_misses == baseline_misses + 2


class TestCompiledPlanReuse:
    def test_plan_cache_reused_across_executions(self):
        database = Database("plans")
        database.execute("CREATE TABLE t (a INT, b INT)")
        database.execute("INSERT INTO t (a, b) VALUES (1, 2), (3, 4)")
        sql = "SELECT a + b FROM t WHERE a > 0"
        database.execute(sql)
        executor = database._executor
        plan_entries = len(executor._plan_cache)
        assert plan_entries > 0
        database.execute(sql)
        # Re-execution of the cached statement compiles nothing new.
        assert len(executor._plan_cache) == plan_entries
