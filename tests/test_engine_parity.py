"""Engine parity statements and the behaviours they pin.

The statement lists here — join edge cases, join chains written in their
worst textual order, expressions, error statements, set-operation chains,
``IN`` membership, condition-free joins and column-only projections — are
replayed against results recorded when a second, tree-walking executor
checked every one (``tests/test_engine_golden.py``): same columns, same rows
in the same order, same Python value types cell-for-cell, or the same error.
The tests below pin what a statement list cannot: results after DML,
exact join rows, and set-operation chains and multi-row INSERTs against the
stdlib ``sqlite3`` module as an independent oracle.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.engine import Database
from repro.errors import ExecutionError, ReproError
from tests.engine_databases import (
    RARE_STATUSES,
    TIERS,
    ZONES,
    build_join_database,
    build_join_order_database,
    build_mixed_database,
    build_set_database,
)
from tests.sqlite_oracle import load

# ---------------------------------------------------------------------------
# join edge cases
# ---------------------------------------------------------------------------


@pytest.fixture()
def join_database() -> Database:
    return build_join_database()


JOIN_EDGE_QUERIES = [
    # single-key equi joins
    "SELECT o.id, c.name FROM orders o JOIN customers c ON o.customer_id = c.id",
    "SELECT o.id, c.name FROM orders o LEFT JOIN customers c ON o.customer_id = c.id",
    # multi-key AND-of-equalities
    "SELECT o.id, c.name FROM orders o JOIN customers c "
    "ON o.customer_id = c.id AND o.region_id = c.region_id",
    "SELECT o.id, c.name FROM orders o LEFT JOIN customers c "
    "ON o.customer_id = c.id AND o.region_id = c.region_id",
    "SELECT o.id, c.name FROM orders o RIGHT JOIN customers c "
    "ON o.customer_id = c.id AND o.region_id = c.region_id",
    "SELECT o.id, c.name FROM orders o FULL JOIN customers c "
    "ON o.customer_id = c.id AND o.region_id = c.region_id",
    # equality keys mixed with a non-equality residual conjunct
    "SELECT o.id, c.name FROM orders o JOIN customers c "
    "ON o.customer_id = c.id AND o.amount > 50",
    "SELECT o.id, c.name FROM orders o LEFT JOIN customers c "
    "ON o.customer_id = c.id AND c.tier = 'gold' AND o.amount > 50",
    "SELECT o.id, c.name FROM orders o FULL JOIN customers c "
    "ON o.customer_id = c.id AND c.tier = 'gold'",
    # ambiguous unqualified column (id and region_id exist on both sides)
    "SELECT o.id FROM orders o JOIN customers c ON customer_id = id",
    # NULL keys on both sides must never match
    "SELECT o.id, c.id FROM orders o JOIN customers c ON o.region_id = c.region_id",
    "SELECT o.id, c.id FROM orders o FULL JOIN customers c ON o.region_id = c.region_id",
    # USING join
    "SELECT o.id, c.name FROM orders o JOIN customers c USING (region_id)",
    # cross join via condition-free nested loop
    "SELECT COUNT(*) FROM orders CROSS JOIN customers",
    # non-equality-only condition: nested loop
    "SELECT o.id, c.id FROM orders o JOIN customers c ON o.amount > c.id * 50",
    # join feeding aggregation / ordering
    "SELECT c.tier, COUNT(*), SUM(o.amount) FROM orders o "
    "JOIN customers c ON o.customer_id = c.id GROUP BY c.tier "
    "HAVING COUNT(*) >= 1 ORDER BY 3 DESC",
]


def test_multi_key_join_uses_hash_path(join_database):
    """The AND-of-equalities condition must produce correct multi-key matches."""
    result = join_database.execute(
        "SELECT o.id, c.name FROM orders o JOIN customers c "
        "ON o.customer_id = c.id AND o.region_id = c.region_id ORDER BY o.id"
    )
    # orders 100/102 match their customer on both keys; 101 matches on id but
    # not region; 104 has a NULL region key and must not match customer 3's NULL.
    assert result.rows == [(100, "Acme"), (102, "Globex")]


def test_cross_type_multi_key_join():
    """Join-key equality is bucket equality in every join strategy: values
    are normalised via hashable_key and compared with Python ``==``, so
    ``1`` never joins ``'1'`` — exactly like the single-key hash path — and
    multi-key conditions stay on the hash plan regardless of types."""
    database = Database("cross-type")
    database.create_table("t1", [("a", "INT"), ("b", "TEXT")])
    database.create_table("t2", [("c", "TEXT"), ("d", "TEXT")])
    database.table("t1").insert_rows([(1, "x"), (2, "y")])
    database.table("t2").insert_rows([("1", "x"), ("2", "z")])
    multi = "SELECT * FROM t1 JOIN t2 ON t1.a = t2.c AND t1.b = t2.d"
    single = "SELECT * FROM t1 JOIN t2 ON t1.a = t2.c"
    # INT 1 and TEXT '1' hash apart, in multi-key and single-key joins alike.
    assert database.execute(multi).rows == []
    assert database.execute(single).rows == []


def test_integral_float_keys_join_across_types():
    """hashable_key folds integral floats to int, so 1.0 joins 1 everywhere."""
    database = Database("float-keys")
    database.create_table("t1", [("a", "INT"), ("b", "INT")])
    database.create_table("t2", [("c", "REAL"), ("d", "INT")])
    database.table("t1").insert_rows([(1, 5), (2, 6)])
    database.table("t2").insert_rows([(1.0, 5), (2.0, 7)])
    sql = "SELECT t1.a, t2.d FROM t1 JOIN t2 ON t1.a = t2.c AND t1.b = t2.d"
    assert database.execute(sql).rows == [(1, 5)]


def test_right_and_full_unmatched_rows(join_database):
    full = join_database.execute(
        "SELECT o.id, c.id FROM orders o FULL JOIN customers c "
        "ON o.customer_id = c.id AND o.region_id = c.region_id"
    )
    left_ids = {row[0] for row in full.rows}
    right_ids = {row[1] for row in full.rows}
    # every unmatched order appears null-padded on the right...
    assert left_ids >= {100, 101, 102, 103, 104, 105}
    # ...and every unmatched customer appears null-padded on the left.
    assert right_ids >= {1, 2, 3, 4}
    assert (100, 1) in full.rows
    assert (101, None) in full.rows
    assert (None, 3) in full.rows
    assert (None, 4) in full.rows


# ---------------------------------------------------------------------------
# multi-table join chains written in their worst textual order
# ---------------------------------------------------------------------------


SHOP_QUERIES = [
    "SELECT c.name, o.id, l.product "
    "FROM line_items l JOIN orders o ON l.order_id = o.id "
    "JOIN customers c ON o.customer_id = c.id "
    "WHERE c.tier = 'gold'",
    # No ORDER BY: row *order* must still match.
    "SELECT l.product, o.status FROM line_items l "
    "JOIN orders o ON l.order_id = o.id WHERE o.status = 'closed'",
    "SELECT c.name, COUNT(*) AS n FROM line_items l "
    "JOIN orders o ON l.order_id = o.id "
    "JOIN customers c ON o.customer_id = c.id "
    "GROUP BY c.name ORDER BY n DESC, c.name",
    # Cross join plus WHERE equality.
    "SELECT o.id, c.id FROM orders o, customers c "
    "WHERE o.customer_id = c.id AND c.tier = 'gold'",
    "SELECT o.id, c.name FROM orders o "
    "LEFT JOIN customers c ON o.customer_id = c.id ORDER BY o.id",
]


@pytest.fixture(scope="module")
def join_order_database() -> Database:
    return build_join_order_database()


WORST_ORDER_QUERIES = (
    # Three-table chains: the only selective predicate sits on the smallest,
    # last-named table.
    [
        "SELECT COUNT(*), SUM(l.qty) FROM lineitems l "
        "JOIN orders o ON l.order_id = o.id "
        "JOIN customers c ON o.customer_id = c.id "
        f"WHERE c.tier = 'gold' AND c.region_id = {region}"
        for region in range(1, 9)
    ]
    # Point lookups on the small table.
    + [
        "SELECT o.id, l.product, l.qty FROM lineitems l "
        "JOIN orders o ON l.order_id = o.id "
        "JOIN customers c ON o.customer_id = c.id "
        f"WHERE c.name = 'customer_{name_id}' ORDER BY o.id, l.product, l.qty LIMIT 40"
        for name_id in (5, 50, 95, 140, 185)
    ]
    # Selective predicates on two late tables.
    + [
        "SELECT c.name, COUNT(*), SUM(l.qty * l.price) FROM lineitems l "
        "JOIN orders o ON l.order_id = o.id "
        "JOIN customers c ON o.customer_id = c.id "
        f"WHERE o.status = '{status}' AND c.tier = '{tier}' "
        "GROUP BY c.name ORDER BY 2 DESC, c.name LIMIT 10"
        for status in RARE_STATUSES
        for tier in ("gold", "silver")
    ]
    # Four-table chains ending at the tiny regions table.
    + [
        "SELECT r.name, COUNT(*), AVG(l.price) FROM lineitems l "
        "JOIN orders o ON l.order_id = o.id "
        "JOIN customers c ON o.customer_id = c.id "
        "JOIN regions r ON c.region_id = r.id "
        f"WHERE r.zone = '{zone}' AND c.tier IN ('gold', 'silver') "
        "GROUP BY r.name ORDER BY 2 DESC, r.name"
        for zone in ZONES
    ]
    # Already-optimal textual order, for contrast.
    + [
        "SELECT COUNT(*) FROM customers c "
        "JOIN orders o ON o.customer_id = c.id "
        "JOIN lineitems l ON l.order_id = o.id "
        f"WHERE c.tier = '{tier}'"
        for tier in TIERS
    ]
)


def test_worst_order_workload_shape(join_order_database):
    tables = ("regions", "customers", "orders", "lineitems")
    assert [len(join_order_database.table(name)) for name in tables] == [12, 60, 250, 900]
    assert len(WORST_ORDER_QUERIES) == 25


# ---------------------------------------------------------------------------
# expressions and clauses on the HR database
# ---------------------------------------------------------------------------


EXPRESSION_QUERIES = [
    "SELECT name, salary * 1.1 FROM employees WHERE salary > 80000",
    "SELECT name FROM employees WHERE dept_id IS NULL",
    "SELECT name FROM employees WHERE dept_id IS NOT NULL AND salary BETWEEN 70000 AND 130000",
    "SELECT name FROM employees WHERE name LIKE 'A%' OR name LIKE '%k'",
    "SELECT name FROM employees WHERE dept_id IN (1, 3)",
    "SELECT name FROM employees WHERE dept_id NOT IN (1, 3)",
    "SELECT UPPER(name), LENGTH(name) FROM employees ORDER BY 2 DESC, 1 ASC",
    "SELECT CASE WHEN salary >= 100000 THEN 'high' WHEN salary >= 80000 THEN 'mid' ELSE 'low' END AS band, name FROM employees ORDER BY band, name",
    "SELECT CAST(salary AS INT) FROM employees ORDER BY 1",
    "SELECT dept_id, COUNT(*), AVG(salary) FROM employees GROUP BY dept_id HAVING COUNT(*) > 1",
    "SELECT COUNT(DISTINCT dept_id) FROM employees",
    "SELECT name FROM employees WHERE salary > (SELECT AVG(salary) FROM employees)",
    "SELECT name FROM employees e WHERE EXISTS (SELECT 1 FROM departments d WHERE d.dept_id = e.dept_id AND d.budget > 250000)",
    "SELECT name FROM employees WHERE dept_id IN (SELECT dept_id FROM departments WHERE budget >= 300000)",
    "SELECT d.dept_name, (SELECT COUNT(*) FROM employees e WHERE e.dept_id = d.dept_id) AS headcount FROM departments d ORDER BY headcount DESC, dept_name",
    "SELECT DISTINCT dept_id FROM employees ORDER BY dept_id",
    "SELECT name FROM employees ORDER BY salary DESC LIMIT 2 OFFSET 1",
    "SELECT name FROM employees WHERE salary > 100000 UNION SELECT dept_name FROM departments ORDER BY 1",
    "SELECT dept_id FROM employees INTERSECT SELECT dept_id FROM departments",
    "SELECT dept_id FROM departments EXCEPT SELECT dept_id FROM employees WHERE dept_id IS NOT NULL",
    "WITH rich AS (SELECT dept_id, COUNT(*) AS n FROM employees WHERE salary > 80000 GROUP BY dept_id) SELECT * FROM rich ORDER BY n DESC",
    "SELECT name || '-' || dept_id FROM employees WHERE dept_id IS NOT NULL ORDER BY 1",
    "SELECT -salary, +salary, NOT (salary > 90000) FROM employees ORDER BY 1",
    "SELECT COALESCE(dept_id, -1), IFNULL(dept_id, 0) FROM employees ORDER BY 1",
    "SELECT salary / 0 FROM employees",
    "SELECT salary % 2 FROM employees ORDER BY 1",
]


# ---------------------------------------------------------------------------
# chained set operations against sqlite3
# ---------------------------------------------------------------------------

#: (engine SQL, sqlite3 SQL); None means the same text.  Every chain folds
#: left to right and ends in an ORDER BY that fixes the row order.
SET_CHAIN_QUERIES = [
    ("SELECT a FROM t UNION SELECT b FROM t UNION ALL SELECT a FROM t WHERE a > 2 "
     "ORDER BY 1", None),
    ("SELECT a FROM t EXCEPT SELECT b FROM t UNION SELECT 9 ORDER BY 1", None),
    ("SELECT a FROM t INTERSECT SELECT b FROM t UNION ALL SELECT b FROM t WHERE b < 3 "
     "ORDER BY 1", None),
    ("SELECT a FROM t UNION ALL SELECT a FROM t EXCEPT SELECT b FROM t WHERE b IS NOT NULL "
     "ORDER BY 1", None),
    ("SELECT a FROM t UNION ALL SELECT b FROM t INTERSECT SELECT a FROM t WHERE a >= 2 "
     "UNION ALL SELECT b FROM t ORDER BY 1 LIMIT 5", None),
    ("SELECT a, b FROM t EXCEPT SELECT b, a FROM t UNION SELECT a, a FROM t "
     "INTERSECT SELECT a, b FROM t WHERE a < 4 ORDER BY 1, 2", None),
    ("SELECT 1 UNION SELECT 2 UNION SELECT 3 UNION ALL SELECT 2 ORDER BY 1 LIMIT 2 OFFSET 1",
     None),
    # A parenthesized compound operand keeps its own grouping.
    ("SELECT a FROM t EXCEPT (SELECT b FROM t UNION SELECT 1) ORDER BY 1",
     "SELECT a FROM t EXCEPT SELECT * FROM (SELECT b FROM t UNION SELECT 1) ORDER BY 1"),
    ("(SELECT a FROM t UNION ALL SELECT b FROM t) EXCEPT SELECT 2 ORDER BY 1",
     "SELECT a FROM t UNION ALL SELECT b FROM t EXCEPT SELECT 2 ORDER BY 1"),
]


@pytest.fixture(scope="module")
def set_databases():
    database = build_set_database()
    oracle = load(database)
    yield database, oracle
    oracle.close()


@pytest.mark.parametrize("sql, oracle_sql", SET_CHAIN_QUERIES)
def test_set_operation_chains_match_sqlite(set_databases, sql, oracle_sql):
    database, oracle = set_databases
    expected = oracle.execute(oracle_sql or sql).fetchall()
    assert database.execute(sql).rows == expected, sql


ERROR_QUERIES = [
    "SELECT nope FROM employees",
    "SELECT UNKNOWN_FN(salary) FROM employees",
    "SELECT * FROM missing_table",
    "SELECT SUM(salary) FROM employees WHERE SUM(salary) > 1",
    # column-only projections that do not resolve take the evaluator path
    "SELECT e.nope, e.name FROM employees e",
    "SELECT d.dept_name FROM employees e",
    "SELECT emp_id, missing FROM employees CROSS JOIN departments",
]


def test_results_after_dml(hr_database):
    """Caches must not leak stale results after inserts."""
    sql = "SELECT dept_id, COUNT(*) FROM employees GROUP BY dept_id"
    assert hr_database.execute(sql).rows == [(1, 2), (2, 2), (3, 1), (None, 1)]
    hr_database.execute(
        "INSERT INTO employees (emp_id, name, salary, dept_id, hire_date) VALUES "
        "(7, 'Grace', 101000, 3, '2023-01-01')"
    )
    assert hr_database.execute(sql).rows == [(1, 2), (2, 2), (3, 2), (None, 1)]
    assert hr_database.execute("SELECT COUNT(*) FROM employees").rows == [(7,)]


def test_using_join_missing_column_raises_execution_error(hr_database):
    """Regression: a USING column absent from one side must raise a proper
    ExecutionError naming the column, not a bare StopIteration."""
    with pytest.raises(ExecutionError, match="USING column 'budget'.*left side"):
        hr_database.execute(
            "SELECT * FROM employees JOIN departments USING (budget)"
        )


# ---------------------------------------------------------------------------
# hashed IN membership, condition-free joins and column-only projections
# ---------------------------------------------------------------------------


@pytest.fixture()
def mixed_database() -> Database:
    return build_mixed_database()


_PROBES = ("ints", "reals", "texts", "flags")

MEMBERSHIP_QUERIES = [
    f"SELECT p.id FROM {probe} p WHERE p.k {negation}IN (SELECT m.k FROM {member} m)"
    for probe in _PROBES
    for member in _PROBES + ("nans", "empty")
    for negation in ("", "NOT ")
] + [
    # one subquery column holding every type at once
    "SELECT id, k FROM texts WHERE k IN "
    "(SELECT k FROM ints UNION ALL SELECT k FROM reals UNION ALL SELECT k FROM flags)",
    "SELECT id, k FROM reals WHERE k NOT IN "
    "(SELECT k FROM texts UNION ALL SELECT k FROM flags)",
    # the multi-column shape seen in generated predictions: column 0 is compared
    "SELECT id FROM ints WHERE k IN (SELECT * FROM reals WHERE k IS NOT NULL)",
    "SELECT id FROM texts WHERE id IN (SELECT * FROM texts WHERE note > 'b')",
    "SELECT label FROM ints WHERE id NOT IN (SELECT * FROM texts WHERE k LIKE '%.%')",
    # correlated subquery keeps the per-row scan
    "SELECT p.id FROM ints p WHERE p.k IN (SELECT m.k FROM reals m WHERE m.id <= p.id)",
    # IN inside a projection and under OR
    "SELECT id, k IN (SELECT k FROM texts) FROM reals",
    "SELECT id FROM ints WHERE k IN (SELECT k FROM flags) OR id IN (SELECT k FROM texts)",
    # literal lists: mixed types, NULL members, and a long list
    "SELECT id FROM ints WHERE k IN (1.0, '2', TRUE, NULL)",
    "SELECT id FROM texts WHERE k IN (1, 2.5, 'x', FALSE)",
    "SELECT id FROM reals WHERE k NOT IN (1, '2.5', -0.0)",
    "SELECT id FROM flags WHERE k IN ('True', 1, 0)",
    "SELECT id, label FROM ints WHERE k IN ("
    + ", ".join(
        f"'{n}'" if n % 3 == 0 else (f"{n}.0" if n % 3 == 1 else f"{n}.5")
        for n in range(-40, 41)
    )
    + ", NULL)",
    "SELECT id FROM texts WHERE k NOT IN ("
    + ", ".join(str(n) if n % 2 else f"'{n}'" for n in range(60))
    + ")",
]


def test_in_subquery_member_set_invalidates_after_insert():
    """A cached statement re-run after DML sees the subquery's new result."""
    sql = "SELECT id FROM ints WHERE k IN (SELECT k FROM texts) ORDER BY id"
    database = Database("dml")
    database.execute("CREATE TABLE ints (id INT, k INT)")
    database.execute("CREATE TABLE texts (k TEXT)")
    database.execute("INSERT INTO ints (id, k) VALUES (1, 1), (2, 2), (3, 3)")
    database.execute("INSERT INTO texts (k) VALUES ('1'), ('x')")
    assert database.execute(sql).rows == [(1,)]
    database.execute("INSERT INTO texts (k) VALUES ('3')")
    assert database.execute(sql).rows == [(1,), (3,)]
    database.execute("DELETE FROM texts WHERE k = '1'")
    assert database.execute(sql).rows == [(3,)]


CONDITION_FREE_JOINS = [
    "SELECT * FROM ints CROSS JOIN flags",
    "SELECT * FROM empty CROSS JOIN flags",
    "SELECT * FROM ints CROSS JOIN empty",
    "SELECT * FROM empty CROSS JOIN empty",
    "SELECT ints.id, reals.k FROM ints, reals",
] + [
    f"SELECT * FROM {left} {join} JOIN {right}"
    for join in ("LEFT", "RIGHT", "FULL")
    for left, right in (("ints", "flags"), ("empty", "flags"), ("ints", "empty"), ("empty", "empty"))
]


def test_condition_free_outer_joins_pad_the_empty_side(mixed_database):
    left = mixed_database.execute("SELECT * FROM flags LEFT JOIN empty").rows
    assert left == [(1, True, None, None), (2, False, None, None), (3, None, None, None)]
    right = mixed_database.execute("SELECT * FROM empty RIGHT JOIN flags").rows
    assert right == [(None, None, 1, True), (None, None, 2, False), (None, None, 3, None)]
    assert mixed_database.execute("SELECT * FROM empty FULL JOIN empty").rows == []
    assert len(mixed_database.execute("SELECT * FROM ints FULL JOIN flags").rows) == 15


PROJECTION_QUERIES = [
    "SELECT * FROM texts",
    "SELECT note FROM texts",
    "SELECT k, k, id FROM texts",
    "SELECT t.note, t.id FROM texts t",
    "SELECT texts.k FROM texts",
    "SELECT t.*, i.label FROM texts t JOIN ints i ON t.id = i.id",
    "SELECT * FROM texts t JOIN ints i ON t.id = i.id",
    # ambiguous bare columns bind to the first match
    "SELECT id, k FROM texts t JOIN ints i ON t.id = i.id",
    "SELECT id FROM texts CROSS JOIN flags",
    "SELECT * FROM (SELECT id, k FROM texts) sub",
    "SELECT sub.k FROM (SELECT k FROM texts WHERE id > 2) sub",
    # outer references inside a projection take the evaluator path
    "SELECT id, (SELECT i.label FROM ints i WHERE i.id = t.id) FROM texts t",
    "SELECT id, note || k FROM texts",
]


# ---------------------------------------------------------------------------
# multi-row INSERT against sqlite3: all rows or none
# ---------------------------------------------------------------------------

#: (CREATE TABLE, INSERT); each table starts with the row (0, 0).
MULTI_ROW_INSERTS = [
    ("CREATE TABLE t (a INT NOT NULL)", "INSERT INTO t VALUES (1), (NULL)"),
    ("CREATE TABLE t (a INT NOT NULL)", "INSERT INTO t VALUES (1), (2), (3)"),
    ("CREATE TABLE t (a INT NOT NULL, b INT)", "INSERT INTO t (a, b) VALUES (1, 2), (NULL, 3)"),
    ("CREATE TABLE t (a INT NOT NULL, b INT)", "INSERT INTO t (b) VALUES (1), (2)"),
    ("CREATE TABLE t (a INT NOT NULL, b INT)", "INSERT INTO t (a) VALUES (1), (2, 3)"),
    ("CREATE TABLE t (a INT, b INT)", "INSERT INTO t VALUES (1, 2), (3)"),
    ("CREATE TABLE t (a INT, b INT)", "INSERT INTO t (b, a) VALUES (1, 2), (-3, 4)"),
]


@pytest.mark.parametrize("create, insert", MULTI_ROW_INSERTS)
def test_multi_row_insert_matches_sqlite(create, insert):
    width = create.count(" INT")
    seed = "INSERT INTO t VALUES (" + ", ".join(["0"] * width) + ")"
    oracle = sqlite3.connect(":memory:")
    try:
        oracle.execute(create)
        oracle.execute(seed)
        try:
            oracle.execute(insert)
            oracle_failed = False
        except sqlite3.Error:
            oracle_failed = True
        expected = oracle.execute("SELECT * FROM t").fetchall()
    finally:
        oracle.close()
    database = Database("inserts")
    database.execute(create)
    database.execute(seed)
    version = database.data_version
    try:
        database.execute(insert)
        engine_failed = False
    except ReproError:
        engine_failed = True
    assert engine_failed == oracle_failed, insert
    assert database.query("SELECT * FROM t") == expected, insert
    assert database.data_version == version + (0 if engine_failed else 1), insert
