"""Streamed cross products and WHERE pushdown in the compiled executor.

A top-level SELECT whose FROM chain holds a cross product streams its joined
rows into WHERE, and a leading run of WHERE conjuncts that bind inside one
operand of a cross product filters that operand first.  Both must be
invisible: every statement here runs compiled and interpreted, and the
compiled run must give the interpreter's columns, rows, row order and value
types, or raise the same error type with the same message.
"""

from __future__ import annotations

import functools
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import Database
from repro.errors import ReproError
from repro.evaluation import SimulatedText2SQLModel
from repro.evaluation.text2sql_models import GENERAL_MODELS, best_model_for
from repro.workloads import BENCHMARK_NAMES, build_benchmark


def outcome(database: Database, sql: str, mode: str) -> tuple:
    """Everything observable about one execution, comparable with ``==``."""
    database.executor_mode = mode
    try:
        result = database.execute(sql)
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))
    finally:
        database.executor_mode = "compiled"
    types = [tuple(type(value).__name__ for value in row) for row in result.rows]
    return ("rows", result.columns, result.rows, types)


def assert_same(database: Database, sql: str) -> tuple:
    reference = outcome(database, sql, "interpreted")
    assert outcome(database, sql, "compiled") == reference, sql
    return reference


def stream_operator(database: Database, sql: str) -> dict:
    """The ``stream`` entry of a compiled EXPLAIN ANALYZE of ``sql``."""
    analyze = database.explain(sql, analyze=True)["analyze"]
    return next(entry for entry in analyze["operators"] if entry["op"] == "stream")


@pytest.fixture()
def db() -> Database:
    database = Database("stream")
    database.execute("CREATE TABLE a (id INT, v INT, flag INT, s TEXT)")
    database.execute("CREATE TABLE b (id INT, a_id INT, v INT, w REAL)")
    database.execute("CREATE TABLE c (k INT, v INT, s TEXT)")
    database.execute("CREATE TABLE e (k INT, v INT)")
    database.execute(
        "INSERT INTO a (id, v, flag, s) VALUES (1, 2, 1, '10'), (2, 3, 0, 'x'), "
        "(3, 2, NULL, '7'), (4, NULL, 1, NULL), (5, 9, 0, '0')"
    )
    database.execute(
        "INSERT INTO b (id, a_id, v, w) VALUES (1, 1, 2, 0.5), (2, 1, 5, 2.0), "
        "(3, 3, 2, NULL), (4, 9, 7, 1.0)"
    )
    database.execute(
        "INSERT INTO c (k, v, s) VALUES (1, 2, '3'), (2, 0, 'y'), (3, NULL, '1'), (4, 2, '0')"
    )
    return database


# ---------------------------------------------------------------------------
# every gold and Figure 1 prediction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_figure1_statements_match_interpreter(seed):
    streamed = 0
    for name in BENCHMARK_NAMES:
        workload = build_benchmark(name, seed=seed, row_scale=0.0004, query_count=8)
        statements = {query.sql for query in workload.queries}
        for model_name in (*GENERAL_MODELS, best_model_for(name)):
            model = SimulatedText2SQLModel.for_workload(model_name, workload)
            for query in workload.queries:
                predicted = model.predict(query.gold_nl, query.sql)
                if predicted:
                    statements.add(predicted)
        for sql in sorted(statements):
            assert_same(workload.database, sql)
            streamed += " CROSS JOIN " in sql
    assert streamed > 0


# ---------------------------------------------------------------------------
# generated statements over generated workloads
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _workload(name: str, seed: int):
    return build_benchmark(name, seed=seed, row_scale=0.0004, query_count=1)


_CONJUNCTS = (
    "{col} IS NULL",
    "{col} IS NOT NULL",
    "{col} = {literal}",
    "{col} > 3",
    "{col}",
    "NOT ({col} < 'M')",
    "CAST({col} AS INT) > 1",
    "{col} + 1 > 2",
    "{col} LIKE '%1%'",
    "{col} IN (SELECT {col2} FROM {table2})",
    "{col} IN (SELECT {col2} FROM {table2} WHERE {table2}.{col2} = {col})",
    "NO_SUCH_COLUMN = 1",
    "({col} = {literal} OR {col2} IS NULL)",
)


@st.composite
def generated_statements(draw):
    name = draw(st.sampled_from(["Spider", "Fiben", "Beaver"]))
    workload = _workload(name, draw(st.integers(min_value=0, max_value=3)))
    database = workload.database
    tables = workload.schema.tables
    picked = draw(st.lists(st.sampled_from(tables), min_size=2, max_size=3))
    product = 1
    for table in picked:
        product *= max(1, len(database.table(table.name).rows))
    if product > 5_000:
        picked = picked[:2]
    sql_from = picked[0].name
    for previous, table in zip(picked, picked[1:]):
        joiner = draw(st.sampled_from(["CROSS JOIN", ",", "JOIN", "LEFT JOIN"]))
        if joiner == ",":
            sql_from += f", {table.name}"
            continue
        if joiner == "CROSS JOIN":
            sql_from += f" CROSS JOIN {table.name}"
            continue
        left_column = draw(st.sampled_from(previous.columns)).name
        right_column = draw(st.sampled_from(table.columns)).name
        sql_from += (
            f" {joiner} {table.name} ON {previous.name}.{left_column} = "
            f"{table.name}.{right_column}"
        )

    def column(qualify: bool) -> str:
        table = draw(st.sampled_from(picked))
        name = draw(st.sampled_from(table.columns)).name
        return f"{table.name}.{name}" if qualify else name

    conjuncts = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        template = draw(st.sampled_from(_CONJUNCTS))
        table2 = draw(st.sampled_from(tables))
        rows = database.table(picked[0].name).rows
        literal = draw(st.sampled_from([row[0] for row in rows] or [1]))
        conjuncts.append(
            template.format(
                col=column(draw(st.booleans())),
                col2=draw(st.sampled_from(table2.columns)).name,
                table2=table2.name,
                literal=repr(literal) if isinstance(literal, str) else literal,
            )
        )
    where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
    projection = draw(st.sampled_from(["*", "COUNT(*)", column(True)]))
    return database, f"SELECT {projection} FROM {sql_from}{where}"


@given(generated_statements())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_generated_cross_statements_match_interpreter(case):
    database, sql = case
    assert_same(database, sql)


# ---------------------------------------------------------------------------
# hand-written edge cases
# ---------------------------------------------------------------------------


def test_where_on_padded_side_of_left_join(db):
    for where in ("b.v IS NULL", "b.v = 2", "b.w > 0.6 AND c.v = 2", "c.v = 2 AND b.id IS NULL"):
        assert_same(db, f"SELECT * FROM a LEFT JOIN b ON a.id = b.a_id CROSS JOIN c WHERE {where}")
    assert_same(db, "SELECT * FROM c CROSS JOIN a LEFT JOIN b ON a.id = b.a_id WHERE b.v IS NULL")


def test_cross_join_under_left_join_right_side(db):
    assert_same(
        db,
        "SELECT * FROM a LEFT JOIN (b CROSS JOIN c) ON a.id = b.a_id WHERE c.v = 2",
    )
    assert_same(
        db,
        "SELECT * FROM a LEFT JOIN (SELECT b.a_id, c.k FROM b CROSS JOIN c "
        "WHERE c.v = 2) s ON a.id = s.a_id WHERE s.k IS NULL OR a.v = 2",
    )


def test_null_and_zero_valued_conjuncts_keep_their_rows(db):
    # flag is 1, 0 or NULL: only a literal False may drop a row early, so the
    # second conjunct still runs (and raises) on the 0- and NULL-flag rows.
    first = assert_same(db, "SELECT a.id, c.k FROM a CROSS JOIN c WHERE a.flag AND c.v = 2")
    assert first[0] == "rows"
    raised = assert_same(db, "SELECT * FROM a CROSS JOIN c WHERE a.flag AND CAST(c.s AS INT) > 0")
    assert raised[0] == "error"
    assert_same(db, "SELECT * FROM a CROSS JOIN c WHERE a.v AND c.v")
    assert_same(db, "SELECT * FROM a CROSS JOIN c WHERE NOT a.flag AND c.v IS NULL")


def test_conjunct_raising_only_on_removed_rows(db):
    # Same input: the first conjunct removes every row the cast fails on.
    quiet = "SELECT * FROM a CROSS JOIN c WHERE a.s <> 'x' AND CAST(a.s AS INT) > 1"
    assert assert_same(db, quiet)[0] == "rows"
    loud = "SELECT * FROM a CROSS JOIN c WHERE CAST(a.s AS INT) > 1 AND a.s <> 'x'"
    assert assert_same(db, loud)[0] == "error"
    # Across inputs: an empty filter on ``a`` means the cast on ``c`` never runs.
    quiet = "SELECT * FROM a CROSS JOIN c WHERE a.id = 99 AND CAST(c.s AS INT) > 0"
    assert assert_same(db, quiet) == ("rows", ["id", "v", "flag", "s", "k", "v", "s"], [], [])
    loud = "SELECT * FROM a CROSS JOIN c WHERE CAST(c.s AS INT) > 0 AND a.id = 99"
    assert assert_same(db, loud)[0] == "error"


def test_unknown_column_over_empty_and_large_products(db):
    empty = assert_same(db, "SELECT NO_SUCH FROM e CROSS JOIN a WHERE NO_SUCH = 1")
    assert empty[0] == "rows" and empty[2] == []
    big = Database("big")
    big.execute("CREATE TABLE l (x INT)")
    big.execute("CREATE TABLE r (y INT)")
    for table in ("l", "r"):
        big.table(table).rows.extend((value,) for value in range(1000))
    sql = "SELECT NO_SUCH FROM l CROSS JOIN r WHERE x >= 0 AND NO_SUCH = 1"
    compiled = outcome(big, sql, "compiled")
    assert compiled == ("error", "ExecutionError", "unknown column reference 'NO_SUCH'")
    interpreted = outcome(big, "SELECT NO_SUCH FROM l CROSS JOIN r WHERE NO_SUCH = 1", "interpreted")
    assert interpreted == compiled


def test_unknown_column_over_large_product_stays_small():
    big = Database("big")
    big.execute("CREATE TABLE l (x INT, label TEXT)")
    big.execute("CREATE TABLE r (y INT, label TEXT)")
    for table in ("l", "r"):
        big.table(table).rows.extend((value, f"row {value}") for value in range(1000))
    sql = "SELECT NO_SUCH FROM l CROSS JOIN r WHERE NO_SUCH = 1"
    statement = big.parse_cached(sql)
    tracemalloc.start()
    try:
        with pytest.raises(ReproError, match="unknown column reference 'NO_SUCH'"):
            big.execute_statement(statement)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 1024 * 1024


def test_correlated_subquery_conjunct_is_not_pushed(db):
    correlated = "EXISTS (SELECT * FROM b WHERE b.a_id = a.id)"
    first = f"SELECT a.id, c.k FROM a CROSS JOIN c WHERE {correlated} AND c.v = 2"
    assert_same(db, first)
    assert stream_operator(db, first)["pushed"] == 0
    second = f"SELECT a.id, c.k FROM a CROSS JOIN c WHERE c.v = 2 AND {correlated}"
    assert_same(db, second)
    operator = stream_operator(db, second)
    assert operator["pushed"] == 1
    # c.v is NULL on one row: NULL is not False, so that row is kept too.
    assert operator["inputs"] == [5, 4] and operator["kept"] == [5, 3]
    uncorrelated = "SELECT a.id, c.k FROM a CROSS JOIN c WHERE a.id IN (SELECT a_id FROM b)"
    assert_same(db, uncorrelated)
    assert stream_operator(db, uncorrelated)["kept"] == [2, 4]


def test_ambiguous_bare_column_binds_to_first_match(db):
    for sql in (
        "SELECT * FROM a CROSS JOIN c WHERE v = 2",
        "SELECT * FROM c CROSS JOIN a WHERE v = 2",
        "SELECT * FROM a CROSS JOIN a WHERE a.v = 2",
        "SELECT * FROM b CROSS JOIN a CROSS JOIN c WHERE v = 2 AND id > 1",
        # ``v`` is a.v although c has a ``v`` too: the conjunct spans a and c.
        "SELECT * FROM a CROSS JOIN c WHERE k = v",
        "SELECT * FROM a CROSS JOIN c WHERE c.k = v AND c.v = 2",
    ):
        assert_same(db, sql)
    assert stream_operator(db, "SELECT * FROM a CROSS JOIN c WHERE k = v")["pushed"] == 0
    # ``v`` is a.v in the first statement: only ``a`` is filtered (its NULL
    # row stays, since only a literal False drops a row early).
    operator = stream_operator(db, "SELECT * FROM a CROSS JOIN c WHERE v = 2")
    assert operator["kept"] == [3, 4]
    operator = stream_operator(db, "SELECT * FROM c CROSS JOIN a WHERE v = 2")
    assert operator["kept"] == [3, 5]


def test_pushdown_stops_at_first_unpushable_conjunct(db):
    sql = "SELECT * FROM a CROSS JOIN c WHERE a.v = 2 AND a.v = c.v AND c.k > 1"
    assert_same(db, sql)
    operator = stream_operator(db, sql)
    assert operator["pushed"] == 1
    assert operator["kept"] == [3, 4]


def test_hash_joins_stream_through_and_residuals_keep_their_errors(db):
    assert_same(
        db,
        "SELECT a.id, b.id, c.k FROM a CROSS JOIN c JOIN b ON b.a_id = a.id "
        "WHERE c.v = 2 AND b.w > 0.1 ORDER BY c.k",
    )
    assert_same(
        db,
        "SELECT a.id, b.id FROM a CROSS JOIN c LEFT JOIN b ON b.a_id = a.id AND b.v = c.v "
        "WHERE c.k < 3",
    )
    # A residual join condition that raises mid-join must still raise first.
    residual = (
        "SELECT * FROM a CROSS JOIN c JOIN b ON b.a_id = a.id AND CAST(c.s AS INT) > 0 "
        "WHERE c.k = 1"
    )
    assert assert_same(db, residual)[0] == "error"
    assert_same(db, "SELECT * FROM a CROSS JOIN c RIGHT JOIN b ON b.a_id = a.id WHERE c.v = 2")
    assert_same(db, "SELECT * FROM a, c WHERE a.id = 1 UNION SELECT * FROM a, c WHERE c.k = 2")
    assert_same(db, "WITH x AS (SELECT * FROM a, c WHERE c.v = 2) SELECT COUNT(*) FROM x, e")
