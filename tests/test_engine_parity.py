"""Compiled/interpreted parity suite.

Runs every query the workload generator produces — plus a battery of join
edge cases and join chains written in their worst textual order — through
both executor modes and asserts *bit-identical* results: same columns, same
rows in the same order, same Python value types cell-for-cell.  This is the
contract the compiled hot path must uphold: it may only be faster than the
interpreter, never different.  Chained set operations are also checked
against the stdlib ``sqlite3`` module as an independent oracle.
"""

from __future__ import annotations

import random
import sqlite3

import pytest

from repro.engine import Database
from repro.errors import ExecutionError, ReproError

#: The interpreter is the semantic reference; compiled must match it.
PARITY_MODES = ("interpreted", "compiled")


def run_all_modes(database: Database, sql: str) -> dict:
    """Execute ``sql`` in every executor mode on one database.

    Returns a mode -> outcome dict where each outcome is either a
    QueryResult or the raised engine error.
    """
    outcomes = {}
    original_mode = database.executor_mode
    try:
        for mode in PARITY_MODES:
            database.executor_mode = mode
            try:
                outcomes[mode] = database.execute(sql)
            except ReproError as exc:
                outcomes[mode] = exc
    finally:
        database.executor_mode = original_mode
    return outcomes


def run_both_modes(database: Database, sql: str):
    """Back-compat helper: ``(compiled, interpreted)`` outcomes."""
    outcomes = run_all_modes(database, sql)
    return outcomes["compiled"], outcomes["interpreted"]


def assert_parity(database: Database, sql: str):
    """Assert every mode produces bit-identical results (or every mode fails).

    Returns the interpreted outcome: a QueryResult or the raised error.
    """
    outcomes = run_all_modes(database, sql)
    reference = outcomes["interpreted"]
    for mode in PARITY_MODES:
        if mode == "interpreted":
            continue
        outcome = outcomes[mode]
        if isinstance(reference, Exception):
            assert isinstance(outcome, Exception), (
                f"interpreted raised {reference!r} but {mode} succeeded for: {sql}"
            )
            continue
        assert not isinstance(outcome, Exception), (
            f"{mode} raised {outcome!r} but interpreted succeeded for: {sql}"
        )
        assert outcome.columns == reference.columns, f"[{mode}] {sql}"
        assert len(outcome.rows) == len(reference.rows), f"[{mode}] {sql}"
        for mode_row, reference_row in zip(outcome.rows, reference.rows):
            assert mode_row == reference_row, f"[{mode}] {sql}"
            assert [type(value) for value in mode_row] == [
                type(value) for value in reference_row
            ], f"value types diverge in {mode} for: {sql}"
    return reference


# ---------------------------------------------------------------------------
# generated workloads: every query through both paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload_fixture", ["tiny_spider", "tiny_beaver", "tiny_bird"])
def test_generated_workload_parity(workload_fixture, request):
    workload = request.getfixturevalue(workload_fixture)
    assert workload.queries, "workload generated no queries"
    for query in workload.queries:
        assert_parity(workload.database, query.sql)


# ---------------------------------------------------------------------------
# join edge cases
# ---------------------------------------------------------------------------


@pytest.fixture()
def join_database() -> Database:
    """Two small tables with duplicated column names and NULL join keys."""
    database = Database("joins")
    database.execute(
        "CREATE TABLE orders (id INT PRIMARY KEY, customer_id INT, region_id INT, amount REAL, status TEXT)"
    )
    database.execute(
        "CREATE TABLE customers (id INT PRIMARY KEY, region_id INT, name TEXT, tier TEXT)"
    )
    database.execute(
        "INSERT INTO customers (id, region_id, name, tier) VALUES "
        "(1, 10, 'Acme', 'gold'), (2, 20, 'Globex', 'silver'), "
        "(3, NULL, 'Initech', 'gold'), (4, 10, 'Umbrella', 'bronze')"
    )
    database.execute(
        "INSERT INTO orders (id, customer_id, region_id, amount, status) VALUES "
        "(100, 1, 10, 250.0, 'open'), (101, 1, 20, 80.0, 'closed'), "
        "(102, 2, 20, 99.5, 'open'), (103, NULL, 10, 10.0, 'open'), "
        "(104, 3, NULL, 500.0, 'closed'), (105, 9, 99, 1.0, 'open')"
    )
    return database


JOIN_EDGE_QUERIES = [
    # single-key equi joins (compiled and interpreted both hash)
    "SELECT o.id, c.name FROM orders o JOIN customers c ON o.customer_id = c.id",
    "SELECT o.id, c.name FROM orders o LEFT JOIN customers c ON o.customer_id = c.id",
    # multi-key AND-of-equalities: compiled hash join vs interpreted nested loop
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
    # non-equality-only condition: nested loop in both modes
    "SELECT o.id, c.id FROM orders o JOIN customers c ON o.amount > c.id * 50",
    # join feeding aggregation / ordering
    "SELECT c.tier, COUNT(*), SUM(o.amount) FROM orders o "
    "JOIN customers c ON o.customer_id = c.id GROUP BY c.tier "
    "HAVING COUNT(*) >= 1 ORDER BY 3 DESC",
]


@pytest.mark.parametrize("sql", JOIN_EDGE_QUERIES)
def test_join_edge_case_parity(join_database, sql):
    assert_parity(join_database, sql)


def test_multi_key_join_uses_hash_path(join_database):
    """The AND-of-equalities condition must produce correct multi-key matches."""
    join_database.executor_mode = "compiled"
    result = join_database.execute(
        "SELECT o.id, c.name FROM orders o JOIN customers c "
        "ON o.customer_id = c.id AND o.region_id = c.region_id ORDER BY o.id"
    )
    # orders 100/102 match their customer on both keys; 101 matches on id but
    # not region; 104 has a NULL region key and must not match customer 3's NULL.
    assert result.rows == [(100, "Acme"), (102, "Globex")]


def test_cross_type_multi_key_join_parity():
    """Join-key equality is bucket equality in every mode and join strategy:
    values are normalised via hashable_key and compared with Python ``==``,
    so ``1`` never joins ``'1'`` — exactly like the single-key hash path —
    and multi-key conditions stay on the hash plan regardless of types."""
    database = Database("cross-type")
    database.create_table("t1", [("a", "INT"), ("b", "TEXT")])
    database.create_table("t2", [("c", "TEXT"), ("d", "TEXT")])
    database.table("t1").insert_rows([(1, "x"), (2, "y")])
    database.table("t2").insert_rows([("1", "x"), ("2", "z")])
    multi = "SELECT * FROM t1 JOIN t2 ON t1.a = t2.c AND t1.b = t2.d"
    single = "SELECT * FROM t1 JOIN t2 ON t1.a = t2.c"
    assert_parity(database, multi)
    assert_parity(database, single)
    for mode in PARITY_MODES:
        database.executor_mode = mode
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
    assert_parity(database, sql)
    database.executor_mode = "compiled"
    assert database.execute(sql).rows == [(1, 5)]


def test_homogeneous_multi_key_join_still_hashes(join_database):
    """Type-safe key columns keep the fast path; results stay identical."""
    sql = (
        "SELECT o.id, c.name FROM orders o JOIN customers c "
        "ON o.customer_id = c.id AND o.region_id = c.region_id"
    )
    assert_parity(join_database, sql)


def test_right_and_full_unmatched_rows(join_database):
    join_database.executor_mode = "compiled"
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


@pytest.fixture()
def shop_database() -> Database:
    """Three tables with skewed sizes.

    Textual join order in the queries goes biggest-first
    (line_items > orders > customers).
    """
    database = Database("shop")
    database.execute(
        "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT, tier TEXT)"
    )
    database.execute(
        "CREATE TABLE orders (id INT PRIMARY KEY, customer_id INT, status TEXT)"
    )
    database.execute(
        "CREATE TABLE line_items (order_id INT, product TEXT, qty INT)"
    )
    database.execute(
        "INSERT INTO customers (id, name, tier) VALUES "
        + ", ".join(
            f"({i}, 'cust_{i}', '{'gold' if i == 0 else 'basic'}')" for i in range(5)
        )
    )
    database.execute(
        "INSERT INTO orders (id, customer_id, status) VALUES "
        + ", ".join(
            f"({i}, {i % 5}, '{'open' if i % 3 else 'closed'}')" for i in range(20)
        )
    )
    database.execute(
        "INSERT INTO line_items (order_id, product, qty) VALUES "
        + ", ".join(f"({i % 20}, 'prod_{i % 7}', {1 + i % 4})" for i in range(60))
    )
    return database


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


@pytest.mark.parametrize("sql", SHOP_QUERIES)
def test_shop_join_parity(shop_database, sql):
    assert not isinstance(assert_parity(shop_database, sql), Exception), sql


_TIERS = ("gold", "silver", "bronze", "basic")
_COMMON_STATUSES = ("open", "closed", "shipped")
_RARE_STATUSES = ("returned", "cancelled")
_ZONES = ("north", "south", "east", "west")
_REGION_COUNT = 12


@pytest.fixture(scope="module")
def join_order_database() -> Database:
    """Regions, customers, orders and line items (seed 29), smallest first.

    12 regions, 60 customers, 250 orders and 900 line items; every query in
    :data:`WORST_ORDER_QUERIES` names the biggest table first and puts its
    selective predicates on the last-named small tables.
    """
    customers, orders, lineitems = 60, 250, 900
    rng = random.Random(29)
    database = Database("join-order")
    database.create_table(
        "regions", [("id", "INT"), ("name", "TEXT"), ("zone", "TEXT")], primary_key=["id"]
    )
    database.create_table(
        "customers",
        [("id", "INT"), ("region_id", "INT"), ("name", "TEXT"), ("tier", "TEXT")],
        primary_key=["id"],
    )
    database.create_table(
        "orders",
        [("id", "INT"), ("customer_id", "INT"), ("status", "TEXT"), ("total", "REAL")],
        primary_key=["id"],
    )
    database.create_table(
        "lineitems",
        [("order_id", "INT"), ("product", "TEXT"), ("qty", "INT"), ("price", "REAL")],
    )
    database.table("regions").insert_rows(
        [(i + 1, f"region_{i + 1}", _ZONES[i % len(_ZONES)]) for i in range(_REGION_COUNT)]
    )
    database.table("customers").insert_rows(
        [
            (
                i + 1,
                rng.randint(1, _REGION_COUNT),
                f"customer_{i + 1}",
                "gold" if i % 20 == 0 else rng.choice(_TIERS[1:]),
            )
            for i in range(customers)
        ]
    )
    database.table("orders").insert_rows(
        [
            (
                i + 1,
                rng.randint(1, customers),
                _RARE_STATUSES[i % 2] if i % 25 == 0 else rng.choice(_COMMON_STATUSES),
                round(rng.uniform(10, 2000), 2),
            )
            for i in range(orders)
        ]
    )
    database.table("lineitems").insert_rows(
        [
            (
                rng.randint(1, orders),
                f"prod_{rng.randint(1, 40)}",
                rng.randint(1, 12),
                round(rng.uniform(1, 250), 2),
            )
            for _ in range(lineitems)
        ]
    )
    return database


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
        for status in _RARE_STATUSES
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
        for zone in _ZONES
    ]
    # Already-optimal textual order, for contrast.
    + [
        "SELECT COUNT(*) FROM customers c "
        "JOIN orders o ON o.customer_id = c.id "
        "JOIN lineitems l ON l.order_id = o.id "
        f"WHERE c.tier = '{tier}'"
        for tier in _TIERS
    ]
)


def test_worst_order_workload_shape(join_order_database):
    tables = ("regions", "customers", "orders", "lineitems")
    assert [len(join_order_database.table(name)) for name in tables] == [12, 60, 250, 900]
    assert len(WORST_ORDER_QUERIES) == 25


@pytest.mark.parametrize("sql", WORST_ORDER_QUERIES)
def test_worst_order_join_parity(join_order_database, sql):
    assert not isinstance(assert_parity(join_order_database, sql), Exception), sql


# ---------------------------------------------------------------------------
# expression / clause parity on a hand-built database
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


@pytest.mark.parametrize("sql", EXPRESSION_QUERIES)
def test_expression_parity(hr_database, sql):
    assert_parity(hr_database, sql)


# ---------------------------------------------------------------------------
# chained set operations against sqlite3
# ---------------------------------------------------------------------------

_SET_TABLE_ROWS = [(1, 1), (2, 3), (2, 3), (3, None), (None, 2), (4, 4)]

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
    database = Database("sets")
    database.execute("CREATE TABLE t (a INT, b INT)")
    database.table("t").insert_rows(_SET_TABLE_ROWS)
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    oracle.executemany("INSERT INTO t VALUES (?, ?)", _SET_TABLE_ROWS)
    yield database, oracle
    oracle.close()


@pytest.mark.parametrize("sql, oracle_sql", SET_CHAIN_QUERIES)
def test_set_operation_chains_match_sqlite(set_databases, sql, oracle_sql):
    database, oracle = set_databases
    expected = oracle.execute(oracle_sql or sql).fetchall()
    reference = assert_parity(database, sql)
    assert not isinstance(reference, Exception), sql
    assert reference.rows == expected, sql


def test_error_parity_for_bad_queries(hr_database):
    for sql in (
        "SELECT nope FROM employees",
        "SELECT UNKNOWN_FN(salary) FROM employees",
        "SELECT * FROM missing_table",
        "SELECT SUM(salary) FROM employees WHERE SUM(salary) > 1",
        # column-only projections that do not resolve take the evaluator path
        "SELECT e.nope, e.name FROM employees e",
        "SELECT d.dept_name FROM employees e",
        "SELECT emp_id, missing FROM employees CROSS JOIN departments",
    ):
        outcomes = run_all_modes(hr_database, sql)
        reference = outcomes["interpreted"]
        assert isinstance(reference, ReproError), sql
        for mode in PARITY_MODES:
            assert isinstance(outcomes[mode], ReproError), f"[{mode}] {sql}"
            assert type(outcomes[mode]) is type(reference), f"[{mode}] {sql}"
            assert str(outcomes[mode]) == str(reference), f"[{mode}] {sql}"


def test_parity_after_dml(hr_database):
    """Caches must not leak stale results into either mode after inserts."""
    sql = "SELECT dept_id, COUNT(*) FROM employees GROUP BY dept_id"
    assert_parity(hr_database, sql)
    hr_database.execute(
        "INSERT INTO employees (emp_id, name, salary, dept_id, hire_date) VALUES "
        "(7, 'Grace', 101000, 3, '2023-01-01')"
    )
    assert_parity(hr_database, sql)
    compiled, _ = run_both_modes(hr_database, "SELECT COUNT(*) FROM employees")
    assert compiled.rows == [(7,)]


def test_using_join_missing_column_raises_execution_error(hr_database):
    """Regression: a USING column absent from one side must raise a proper
    ExecutionError naming the column, not a bare StopIteration."""
    with pytest.raises(ExecutionError, match="USING column 'budget'.*left side"):
        hr_database.execute(
            "SELECT * FROM employees JOIN departments USING (budget)"
        )
    hr_database.executor_mode = "interpreted"
    with pytest.raises(ExecutionError, match="USING column 'budget'"):
        hr_database.execute(
            "SELECT * FROM employees JOIN departments USING (budget)"
        )


# ---------------------------------------------------------------------------
# hashed IN membership, condition-free joins and column-only projections
# ---------------------------------------------------------------------------


@pytest.fixture()
def mixed_database() -> Database:
    """Same-looking keys stored as INT, REAL, TEXT and BOOLEAN, plus NULLs and NaN."""
    database = Database("mixed")
    database.create_table("ints", [("id", "INT"), ("k", "INT"), ("label", "TEXT")])
    database.create_table("reals", [("id", "INT"), ("k", "REAL")])
    database.create_table("texts", [("id", "INT"), ("k", "TEXT"), ("note", "TEXT")])
    database.create_table("flags", [("id", "INT"), ("k", "BOOLEAN")])
    database.create_table("nans", [("k", "REAL")])
    database.create_table("empty", [("id", "INT"), ("k", "INT")])
    database.table("ints").insert_rows(
        [(1, 1, "one"), (2, 2, "two"), (3, 0, "zero"), (4, None, "null"), (5, -7, "neg")]
    )
    database.table("reals").insert_rows(
        [(1, 1.0), (2, 2.5), (3, -0.0), (4, None), (5, float("inf"))]
    )
    database.table("texts").insert_rows(
        [(1, "1", "a"), (2, "2.5", "b"), (3, "True", "c"), (4, "x", "d"), (5, None, "e"), (6, "0", "f")]
    )
    database.table("flags").insert_rows([(1, True), (2, False), (3, None)])
    database.table("nans").insert_rows([(float("nan"),), (3.0,)])
    return database


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


@pytest.mark.parametrize("sql", MEMBERSHIP_QUERIES)
def test_in_membership_parity(mixed_database, sql):
    assert_parity(mixed_database, sql)


def test_in_subquery_member_set_invalidates_after_insert():
    """A cached statement re-run after DML sees the subquery's new result."""
    sql = "SELECT id FROM ints WHERE k IN (SELECT k FROM texts) ORDER BY id"
    after = {}
    for mode in PARITY_MODES:
        database = Database("dml", executor_mode=mode)
        database.execute("CREATE TABLE ints (id INT, k INT)")
        database.execute("CREATE TABLE texts (k TEXT)")
        database.execute("INSERT INTO ints (id, k) VALUES (1, 1), (2, 2), (3, 3)")
        database.execute("INSERT INTO texts (k) VALUES ('1'), ('x')")
        assert database.execute(sql).rows == [(1,)], mode
        database.execute("INSERT INTO texts (k) VALUES ('3')")
        after[mode] = database.execute(sql).rows
        assert after[mode] == [(1,), (3,)], mode
        database.execute("DELETE FROM texts WHERE k = '1'")
        assert database.execute(sql).rows == [(3,)], mode
    assert after["compiled"] == after["interpreted"]


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


@pytest.mark.parametrize("sql", CONDITION_FREE_JOINS)
def test_condition_free_join_parity(mixed_database, sql):
    assert_parity(mixed_database, sql)


def test_condition_free_outer_joins_pad_the_empty_side(mixed_database):
    for mode in PARITY_MODES:
        mixed_database.executor_mode = mode
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
    # ambiguous bare columns bind to the first match in every mode
    "SELECT id, k FROM texts t JOIN ints i ON t.id = i.id",
    "SELECT id FROM texts CROSS JOIN flags",
    "SELECT * FROM (SELECT id, k FROM texts) sub",
    "SELECT sub.k FROM (SELECT k FROM texts WHERE id > 2) sub",
    # outer references inside a projection take the evaluator path
    "SELECT id, (SELECT i.label FROM ints i WHERE i.id = t.id) FROM texts t",
    "SELECT id, note || k FROM texts",
]


@pytest.mark.parametrize("sql", PROJECTION_QUERIES)
def test_projection_parity(mixed_database, sql):
    assert_parity(mixed_database, sql)


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
