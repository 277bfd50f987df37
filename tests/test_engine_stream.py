"""Streamed cross products and WHERE pushdown in the executor.

A top-level SELECT whose FROM chain holds a cross product streams its joined
rows into WHERE, and a leading run of WHERE conjuncts that bind inside one
operand of a cross product filters that operand first.  Both must be
invisible.  The hand-written statements (:data:`EDGE_QUERIES`) are replayed
against results recorded when a second, materializing executor checked them
(``tests/test_engine_golden.py``): same columns, rows, row order and value
types, or the same error.  Generated statements are checked against
``sqlite3``, and the tests here pin what the stream reports.
"""

from __future__ import annotations

import functools
import sqlite3
import tracemalloc
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import Database, DataType
from repro.errors import ReproError
from repro.workloads import Workload, build_benchmark
from tests.engine_databases import build_stream_database
from tests.sqlite_oracle import AGREEMENTS, classify, load
from tests.test_engine_oracle import CAUSES

#: Outcomes that count as agreement with SQLite: both reject, or both return the same rows.
AGREED = (*AGREEMENTS, "both error")


def stream_operator(database: Database, sql: str) -> dict:
    """The ``stream`` entry of a compiled EXPLAIN ANALYZE of ``sql``."""
    analyze = database.explain(sql, analyze=True)["analyze"]
    return next(entry for entry in analyze["operators"] if entry["op"] == "stream")


@pytest.fixture()
def db() -> Database:
    return build_stream_database()


_CORRELATED = "EXISTS (SELECT * FROM b WHERE b.a_id = a.id)"

#: Every hand-written statement the edge-case tests below run on ``db``.
EDGE_QUERIES = [
    # WHERE on the padded side of a LEFT JOIN
    *(
        f"SELECT * FROM a LEFT JOIN b ON a.id = b.a_id CROSS JOIN c WHERE {where}"
        for where in (
            "b.v IS NULL", "b.v = 2", "b.w > 0.6 AND c.v = 2", "c.v = 2 AND b.id IS NULL"
        )
    ),
    "SELECT * FROM c CROSS JOIN a LEFT JOIN b ON a.id = b.a_id WHERE b.v IS NULL",
    # a cross join on the right side of a LEFT JOIN
    "SELECT * FROM a LEFT JOIN (b CROSS JOIN c) ON a.id = b.a_id WHERE c.v = 2",
    "SELECT * FROM a LEFT JOIN (SELECT b.a_id, c.k FROM b CROSS JOIN c "
    "WHERE c.v = 2) s ON a.id = s.a_id WHERE s.k IS NULL OR a.v = 2",
    # flag is 1, 0 or NULL: only a literal False may drop a row early, so a
    # later conjunct still runs (and raises) on the 0- and NULL-flag rows
    "SELECT a.id, c.k FROM a CROSS JOIN c WHERE a.flag AND c.v = 2",
    "SELECT * FROM a CROSS JOIN c WHERE a.flag AND CAST(c.s AS INT) > 0",
    "SELECT * FROM a CROSS JOIN c WHERE a.v AND c.v",
    "SELECT * FROM a CROSS JOIN c WHERE NOT a.flag AND c.v IS NULL",
    # conjuncts that raise only on rows an earlier conjunct removes, on the
    # same input or (an empty filter on ``a``) across inputs
    "SELECT * FROM a CROSS JOIN c WHERE a.s <> 'x' AND CAST(a.s AS INT) > 1",
    "SELECT * FROM a CROSS JOIN c WHERE CAST(a.s AS INT) > 1 AND a.s <> 'x'",
    "SELECT * FROM a CROSS JOIN c WHERE a.id = 99 AND CAST(c.s AS INT) > 0",
    "SELECT * FROM a CROSS JOIN c WHERE CAST(c.s AS INT) > 0 AND a.id = 99",
    "SELECT NO_SUCH FROM e CROSS JOIN a WHERE NO_SUCH = 1",
    # correlated and uncorrelated subquery conjuncts
    f"SELECT a.id, c.k FROM a CROSS JOIN c WHERE {_CORRELATED} AND c.v = 2",
    f"SELECT a.id, c.k FROM a CROSS JOIN c WHERE c.v = 2 AND {_CORRELATED}",
    "SELECT a.id, c.k FROM a CROSS JOIN c WHERE a.id IN (SELECT a_id FROM b)",
    # ambiguous bare columns bind to the first match
    "SELECT * FROM a CROSS JOIN c WHERE v = 2",
    "SELECT * FROM c CROSS JOIN a WHERE v = 2",
    "SELECT * FROM a CROSS JOIN a WHERE a.v = 2",
    "SELECT * FROM b CROSS JOIN a CROSS JOIN c WHERE v = 2 AND id > 1",
    # ``v`` is a.v although c has a ``v`` too: the conjunct spans a and c.
    "SELECT * FROM a CROSS JOIN c WHERE k = v",
    "SELECT * FROM a CROSS JOIN c WHERE c.k = v AND c.v = 2",
    "SELECT * FROM a CROSS JOIN c WHERE a.v = 2 AND a.v = c.v AND c.k > 1",
    # hash joins above the product, residuals that raise, set operations, CTEs
    "SELECT a.id, b.id, c.k FROM a CROSS JOIN c JOIN b ON b.a_id = a.id "
    "WHERE c.v = 2 AND b.w > 0.1 ORDER BY c.k",
    "SELECT a.id, b.id FROM a CROSS JOIN c LEFT JOIN b ON b.a_id = a.id AND b.v = c.v "
    "WHERE c.k < 3",
    "SELECT * FROM a CROSS JOIN c JOIN b ON b.a_id = a.id AND CAST(c.s AS INT) > 0 "
    "WHERE c.k = 1",
    "SELECT * FROM a CROSS JOIN c RIGHT JOIN b ON b.a_id = a.id WHERE c.v = 2",
    "SELECT * FROM a, c WHERE a.id = 1 UNION SELECT * FROM a, c WHERE c.k = 2",
    "WITH x AS (SELECT * FROM a, c WHERE c.v = 2) SELECT COUNT(*) FROM x, e",
]


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
    "{col} IN (SELECT {col2} FROM {table2} WHERE {table2}.{col2} = {inner_col})",
    "NO_SUCH_COLUMN = 1",
    "({col} = {literal} OR {outer_col2} IS NULL)",
)

#: Templates that read a TEXT value as a number, and templates that read a
#: BOOLEAN only as a truth value, a number or a NULL test (the others read it
#: as text).
_READS_TEXT_AS_NUMBER = {"{col}", "CAST({col} AS INT) > 1", "{col} + 1 > 2"}
_KEEPS_BOOLEAN = {"{col} IS NULL", "{col} IS NOT NULL", "{col}", "CAST({col} AS INT) > 1"}


def _value_class(database: Database, table: str, column: str) -> str:
    """``"number"``, ``"boolean"`` or ``"text"`` (TEXT and DATE): how SQLite stores it."""
    stored = database.table(table)
    data_type = stored.columns[stored.column_position(column)].data_type
    classes = {DataType.INTEGER: "number", DataType.REAL: "number", DataType.BOOLEAN: "boolean"}
    return classes.get(data_type, "text")


@dataclass
class GeneratedStatement:
    """A cross-product statement, its text for SQLite, and its possible divergences.

    Each conjunct and the projection carry the divergence causes
    (``tests/test_engine_oracle.py``'s ``CAUSES``) their template and column
    types can trigger; :meth:`texts` can drop the parts with given causes.
    """

    workload: Workload
    projection: tuple[str, str, frozenset]
    sources: tuple[str, str]
    conjuncts: list[tuple[str, str, frozenset]]

    @property
    def causes(self) -> frozenset:
        return self.projection[2].union(*(causes for _, _, causes in self.conjuncts))

    def texts(self, drop: frozenset = frozenset()) -> tuple[str, str]:
        """The engine and SQLite texts without the parts that have a cause in ``drop``."""
        projection = self.projection if not self.projection[2] & drop else ("COUNT(*)", "COUNT(*)")
        kept = [conjunct for conjunct in self.conjuncts if not conjunct[2] & drop]
        texts = []
        for side in (0, 1):
            where = " AND ".join(conjunct[side] for conjunct in kept)
            texts.append(
                f"SELECT {projection[side]} FROM {self.sources[side]}"
                + (f" WHERE {where}" if where else "")
            )
        return texts[0], texts[1]


@st.composite
def generated_statements(draw):
    """A :class:`GeneratedStatement` over a generated workload.

    The engine binds an ambiguous bare column to its first match in FROM
    order (``test_ambiguous_bare_column_binds_to_first_match``), an ON
    equality's right operand to the join's right input, and lets a table
    appear twice without an alias.  The SQLite text aliases each later
    occurrence of a table and qualifies each ambiguous bare column with the
    table the engine binds, so both texts mean the same statement.
    """
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
    names = [table.name for table in picked]
    repeats = len(set(names)) < len(names)

    def reference(column: str) -> str:
        """SQLite text of a bare outer column: qualified when FROM has it twice."""
        owners = [table.name for table in picked if table.has_column(column)]
        return f"{owners[0]}.{column}" if len(owners) > 1 else column

    sql_from = oracle_from = picked[0].name
    for position, (previous, table) in enumerate(zip(picked, picked[1:]), start=2):
        joiner = draw(st.sampled_from(["CROSS JOIN", ",", "JOIN", "LEFT JOIN"]))
        right = f"{table.name}_{position}" if table.name in names[: position - 1] else table.name
        aliased = f"{table.name} AS {right}" if right != table.name else table.name
        if joiner == ",":
            sql_from += f", {table.name}"
            oracle_from += f", {aliased}"
            continue
        if joiner == "CROSS JOIN":
            sql_from += f" CROSS JOIN {table.name}"
            oracle_from += f" CROSS JOIN {aliased}"
            continue
        left_column = draw(st.sampled_from(previous.columns)).name
        right_column = draw(st.sampled_from(table.columns)).name
        sql_from += (
            f" {joiner} {table.name} ON {previous.name}.{left_column} = "
            f"{table.name}.{right_column}"
        )
        oracle_from += (
            f" {joiner} {aliased} ON {previous.name}.{left_column} = {right}.{right_column}"
        )

    def column(qualify: bool) -> tuple[str, str, str]:
        table = draw(st.sampled_from(picked))
        name = draw(st.sampled_from(table.columns)).name
        kind = _value_class(database, table.name, name)
        if qualify:
            return f"{table.name}.{name}", f"{table.name}.{name}", kind
        # A bare column binds to its first match, whichever table was drawn.
        owner = next(owner for owner in picked if owner.has_column(name))
        return name, reference(name), _value_class(database, owner.name, name)

    conjuncts = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        template = draw(st.sampled_from(_CONJUNCTS))
        table2 = draw(st.sampled_from(tables))
        rows = database.table(picked[0].name).rows
        literal = draw(st.sampled_from([row[0] for row in rows] or [1]))
        col, oracle_col, kind = column(draw(st.booleans()))
        col2 = draw(st.sampled_from(table2.columns)).name
        shared = {
            "col2": col2,
            "table2": table2.name,
            "literal": repr(literal) if isinstance(literal, str) else literal,
        }
        # A bare column inside the subquery binds to table2 first, as in SQLite.
        inner_col = col if "." in col or table2.has_column(col) else oracle_col
        causes = set()
        if template == "NO_SUCH_COLUMN = 1" or (
            "{outer_col2}" in template and not any(t.has_column(col2) for t in picked)
        ):
            causes.add("unknown column")
        if kind == "text" and template in _READS_TEXT_AS_NUMBER:
            causes.add("text read as a number")
        if kind == "boolean" and template not in _KEEPS_BOOLEAN:
            causes.add("boolean read as text")
        if "IN (SELECT" in template and kind != _value_class(database, table2.name, col2):
            causes.add("IN across value types")
        conjuncts.append(
            (
                template.format(col=col, inner_col=col, outer_col2=col2, **shared),
                template.format(
                    col=oracle_col, inner_col=inner_col, outer_col2=reference(col2), **shared
                ),
                frozenset(causes),
            )
        )
    projection = draw(st.sampled_from(["*", "COUNT(*)", column(True)[:2]]))
    if projection == "*" and repeats:
        projection = ("*", "*", frozenset({"star over a repeated table"}))
    elif isinstance(projection, tuple):
        projection = (*projection, frozenset())
    else:
        projection = (projection, projection, frozenset())
    return GeneratedStatement(workload, projection, (sql_from, oracle_from), conjuncts)


@pytest.fixture(scope="module")
def oracles():
    """SQLite copies of the generated workloads, loaded on first use."""
    connections: dict[Database, sqlite3.Connection] = {}
    yield connections
    for connection in connections.values():
        connection.close()


@given(case=generated_statements())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_generated_cross_statements_match_sqlite(oracles, case):
    database = case.workload.database
    if database not in oracles:
        oracles[database] = load(database)
    connection = oracles[database]
    sql, oracle_sql = case.texts()
    kind = classify(database, connection, sql, oracle_sql)
    if kind in AGREED:
        return
    assert case.causes, f"{kind}, with no listed cause: {sql}"
    assert case.causes <= CAUSES.keys()
    # The listed causes explain the divergence: without them both agree.
    sql, oracle_sql = case.texts(drop=case.causes)
    assert classify(database, connection, sql, oracle_sql) in AGREED, (
        f"{kind} not explained by {sorted(case.causes)}: {sql}"
    )


# ---------------------------------------------------------------------------
# hand-written edge cases
# ---------------------------------------------------------------------------


def test_unknown_column_over_empty_and_large_products(db):
    assert db.execute("SELECT NO_SUCH FROM e CROSS JOIN a WHERE NO_SUCH = 1").rows == []
    big = Database("big")
    big.execute("CREATE TABLE l (x INT)")
    big.execute("CREATE TABLE r (y INT)")
    for table in ("l", "r"):
        big.table(table).rows.extend((value,) for value in range(1000))
    for where in ("x >= 0 AND NO_SUCH = 1", "NO_SUCH = 1"):
        with pytest.raises(ReproError, match="^unknown column reference 'NO_SUCH'$"):
            big.execute(f"SELECT NO_SUCH FROM l CROSS JOIN r WHERE {where}")


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
    assert stream_operator(db, first)["pushed"] == 0
    second = f"SELECT a.id, c.k FROM a CROSS JOIN c WHERE c.v = 2 AND {correlated}"
    operator = stream_operator(db, second)
    assert operator["pushed"] == 1
    # c.v is NULL on one row: NULL is not False, so that row is kept too.
    assert operator["inputs"] == [5, 4] and operator["kept"] == [5, 3]
    uncorrelated = "SELECT a.id, c.k FROM a CROSS JOIN c WHERE a.id IN (SELECT a_id FROM b)"
    assert stream_operator(db, uncorrelated)["kept"] == [2, 4]


def test_ambiguous_bare_column_binds_to_first_match(db):
    # ``v`` is a.v (ids 1 and 3) in the first statement and c.v in the second.
    rows = db.execute("SELECT a.id, c.k FROM a CROSS JOIN c WHERE v = 2").rows
    assert {row[0] for row in rows} == {1, 3} and len(rows) == 8
    rows = db.execute("SELECT a.id, c.k FROM c CROSS JOIN a WHERE v = 2").rows
    assert {row[1] for row in rows} == {1, 4} and len(rows) == 10
    assert stream_operator(db, "SELECT * FROM a CROSS JOIN c WHERE k = v")["pushed"] == 0
    # ``v`` is a.v in the first statement: only ``a`` is filtered (its NULL
    # row stays, since only a literal False drops a row early).
    operator = stream_operator(db, "SELECT * FROM a CROSS JOIN c WHERE v = 2")
    assert operator["kept"] == [3, 4]
    operator = stream_operator(db, "SELECT * FROM c CROSS JOIN a WHERE v = 2")
    assert operator["kept"] == [3, 5]


def test_pushdown_stops_at_first_unpushable_conjunct(db):
    sql = "SELECT * FROM a CROSS JOIN c WHERE a.v = 2 AND a.v = c.v AND c.k > 1"
    operator = stream_operator(db, sql)
    assert operator["pushed"] == 1
    assert operator["kept"] == [3, 4]
