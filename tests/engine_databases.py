"""Hand-built engine databases shared by the engine suites and the results golden.

Each builder returns a fresh :class:`Database`; the suites wrap them in
fixtures, and ``tests/data/make_engine_golden.py`` records what the fixed
statements of those suites return on them.
"""

from __future__ import annotations

import random

from repro.engine import Database

#: Value pools of the join-order database (and ZONES of the throughput one).
TIERS = ("gold", "silver", "bronze", "basic")
COMMON_STATUSES = ("open", "closed", "shipped")
RARE_STATUSES = ("returned", "cancelled")
ZONES = ("north", "south", "east", "west")
REGION_COUNT = 12


def build_hr_database() -> Database:
    """A populated HR database: employees (one with a NULL department) and departments."""
    database = Database("hr")
    database.execute(
        "CREATE TABLE departments (dept_id INT PRIMARY KEY, dept_name TEXT, budget REAL)"
    )
    database.execute(
        "CREATE TABLE employees (emp_id INT PRIMARY KEY, name TEXT, salary REAL, "
        "dept_id INT, hire_date DATE)"
    )
    database.execute(
        "INSERT INTO departments (dept_id, dept_name, budget) VALUES "
        "(1, 'Engineering', 500000), (2, 'Marketing', 200000), (3, 'Research', 300000)"
    )
    database.execute(
        "INSERT INTO employees (emp_id, name, salary, dept_id, hire_date) VALUES "
        "(1, 'Alice', 120000, 1, '2019-03-01'), "
        "(2, 'Bob', 95000, 1, '2020-07-15'), "
        "(3, 'Carol', 88000, 2, '2018-01-20'), "
        "(4, 'Dan', 72000, 2, '2021-11-05'), "
        "(5, 'Eve', 150000, 3, '2017-06-30'), "
        "(6, 'Frank', 67000, NULL, '2022-02-14')"
    )
    return database


def build_join_database() -> Database:
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


def build_shop_database() -> Database:
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


def build_join_order_database() -> Database:
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
        [(i + 1, f"region_{i + 1}", ZONES[i % len(ZONES)]) for i in range(REGION_COUNT)]
    )
    database.table("customers").insert_rows(
        [
            (
                i + 1,
                rng.randint(1, REGION_COUNT),
                f"customer_{i + 1}",
                "gold" if i % 20 == 0 else rng.choice(TIERS[1:]),
            )
            for i in range(customers)
        ]
    )
    database.table("orders").insert_rows(
        [
            (
                i + 1,
                rng.randint(1, customers),
                RARE_STATUSES[i % 2] if i % 25 == 0 else rng.choice(COMMON_STATUSES),
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


def build_mixed_database() -> Database:
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


def build_set_database() -> Database:
    """The one-table database the set-operation chains run on."""
    database = Database("sets")
    database.execute("CREATE TABLE t (a INT, b INT)")
    database.table("t").insert_rows([(1, 1), (2, 3), (2, 3), (3, None), (None, 2), (4, 4)])
    return database


def build_stream_database() -> Database:
    """Four small tables with NULLs, mixed-type text and an empty table."""
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


# The join/aggregate workload the engine throughput harness timed.

STATUSES = ("open", "closed", "pending", "shipped")
SEGMENTS = ("enterprise", "smb", "consumer", "public")


def build_bench_database() -> Database:
    """The throughput harness's database at its smoke profile.

    40 regions, 150 customers, 300 orders and 24 rates (seed 13).
    """
    customers, orders, rates = 150, 300, 24
    rng = random.Random(13)
    database = Database("engine-bench")
    database.create_table(
        "regions", [("id", "INT"), ("name", "TEXT"), ("zone", "TEXT")], primary_key=["id"]
    )
    database.create_table(
        "customers",
        [("id", "INT"), ("region_id", "INT"), ("segment", "TEXT"), ("score", "REAL"),
         ("active", "BOOLEAN"), ("name", "TEXT")],
        primary_key=["id"],
    )
    database.create_table(
        "orders",
        [("id", "INT"), ("customer_id", "INT"), ("region_id", "INT"), ("status", "TEXT"),
         ("amount", "REAL"), ("quantity", "INT")],
        primary_key=["id"],
    )
    database.create_table(
        "rates",
        [("region_id", "INT"), ("status", "TEXT"), ("fee", "REAL")],
    )

    region_count = 40
    database.table("regions").insert_rows(
        [(i + 1, f"region_{i + 1}", ZONES[i % len(ZONES)]) for i in range(region_count)]
    )
    database.table("customers").insert_rows(
        [
            (
                i + 1,
                rng.randint(1, region_count),
                rng.choice(SEGMENTS),
                round(rng.uniform(0, 100), 2),
                rng.random() < 0.8,
                f"customer_{i + 1}",
            )
            for i in range(customers)
        ]
    )
    database.table("orders").insert_rows(
        [
            (
                i + 1,
                rng.randint(1, customers),
                rng.randint(1, region_count) if rng.random() > 0.05 else None,
                rng.choice(STATUSES),
                round(rng.uniform(1, 5000), 2),
                rng.randint(1, 20),
            )
            for i in range(orders)
        ]
    )
    database.table("rates").insert_rows(
        [
            (rng.randint(1, region_count), rng.choice(STATUSES), round(rng.uniform(0.5, 9.5), 2))
            for _ in range(rates)
        ]
    )
    return database


def build_bench_queries() -> list[str]:
    """The harness's 53 join/aggregate-heavy queries."""
    queries: list[str] = []
    # scans with compiled-friendly predicates
    for threshold in (250, 750, 1500, 2500, 3500, 4500):
        queries.append(
            f"SELECT id, amount * 1.07 FROM orders WHERE amount > {threshold} "
            f"AND status IN ('open', 'shipped') ORDER BY amount DESC LIMIT 50"
        )
    for pattern in ("customer_1%", "customer_2%", "customer_3%"):
        queries.append(
            f"SELECT name, score FROM customers WHERE name LIKE '{pattern}' AND active = TRUE"
        )
    # single-key equi joins + aggregation
    for threshold in (250, 500, 1000, 1500, 2000, 3000, 4000):
        queries.append(
            "SELECT c.segment, COUNT(*), SUM(o.amount), AVG(o.quantity) "
            "FROM orders o JOIN customers c ON o.customer_id = c.id "
            f"WHERE o.amount > {threshold} GROUP BY c.segment "
            "HAVING COUNT(*) >= 1 ORDER BY 3 DESC"
        )
    for status in STATUSES:
        queries.append(
            "SELECT r.zone, COUNT(*), SUM(o.amount) "
            "FROM orders o JOIN regions r ON o.region_id = r.id "
            f"WHERE o.status = '{status}' GROUP BY r.zone ORDER BY 2 DESC"
        )
    # three-table join chains
    for segment in SEGMENTS:
        queries.append(
            "SELECT r.zone, COUNT(*), AVG(o.amount) "
            "FROM orders o JOIN customers c ON o.customer_id = c.id "
            "JOIN regions r ON c.region_id = r.id "
            f"WHERE c.segment = '{segment}' GROUP BY r.zone ORDER BY 3 DESC"
        )
    # multi-key hash joins (AND-of-equalities)
    for threshold in (100, 1000, 2500):
        queries.append(
            "SELECT o.id, t.fee, o.amount * t.fee / 100 "
            "FROM orders o JOIN rates t ON o.region_id = t.region_id AND o.status = t.status "
            f"WHERE o.amount > {threshold} ORDER BY 3 DESC LIMIT 25"
        )
    queries.append(
        "SELECT t.status, COUNT(*), SUM(o.amount * t.fee) "
        "FROM orders o JOIN rates t ON o.region_id = t.region_id AND o.status = t.status "
        "GROUP BY t.status ORDER BY 1"
    )
    # equality keys plus residual conjuncts
    queries.append(
        "SELECT COUNT(*) FROM orders o JOIN rates t "
        "ON o.region_id = t.region_id AND o.status = t.status AND o.amount > t.fee * 100"
    )
    # outer joins with equality keys plus a residual conjunct
    for threshold in (1000, 3000):
        queries.append(
            "SELECT t.status, COUNT(o.id) FROM rates t "
            "LEFT JOIN orders o ON o.region_id = t.region_id AND o.status = t.status "
            f"AND o.amount > {threshold} GROUP BY t.status ORDER BY 2 DESC, 1"
        )
    queries.append(
        "SELECT c.segment, COUNT(o.id) FROM customers c "
        "LEFT JOIN orders o ON o.customer_id = c.id "
        "GROUP BY c.segment ORDER BY 2 DESC, 1"
    )
    # grouping on expressions, CASE projections
    for divisor in (500, 1000):
        queries.append(
            f"SELECT CAST(amount / {divisor} AS INT) AS bucket, COUNT(*), AVG(quantity) "
            f"FROM orders GROUP BY CAST(amount / {divisor} AS INT) ORDER BY 1"
        )
    queries.append(
        "SELECT CASE WHEN amount > 2500 THEN 'big' WHEN amount > 500 THEN 'mid' ELSE 'small' END AS band, "
        "COUNT(*) FROM orders "
        "GROUP BY CASE WHEN amount > 2500 THEN 'big' WHEN amount > 500 THEN 'mid' ELSE 'small' END "
        "ORDER BY 2 DESC"
    )
    # subqueries (uncorrelated: cached; correlated scalar: per-row)
    queries.append(
        "SELECT id, amount FROM orders WHERE amount > (SELECT AVG(amount) FROM orders) "
        "ORDER BY amount DESC LIMIT 30"
    )
    queries.append(
        "SELECT name FROM customers WHERE id IN "
        "(SELECT customer_id FROM orders WHERE amount > 4000) ORDER BY name"
    )
    queries.append(
        "SELECT segment, COUNT(*) FROM customers WHERE score > "
        "(SELECT AVG(score) FROM customers) GROUP BY segment ORDER BY 2 DESC"
    )
    # set operations and DISTINCT
    queries.append(
        "SELECT DISTINCT status FROM orders UNION SELECT DISTINCT segment FROM customers ORDER BY 1"
    )
    queries.append("SELECT DISTINCT region_id FROM orders INTERSECT SELECT region_id FROM customers")
    # CTE over an aggregate
    queries.append(
        "WITH totals AS (SELECT customer_id, SUM(amount) AS total FROM orders GROUP BY customer_id) "
        "SELECT COUNT(*), AVG(total) FROM totals"
    )
    # USING join
    queries.append(
        "SELECT COUNT(*) FROM orders JOIN customers USING (region_id)"
    )
    # BETWEEN / IS NULL / arithmetic ordering
    for low, high in ((100, 900), (500, 1500), (1000, 2000), (1500, 3000), (2000, 4000), (2500, 4900)):
        queries.append(
            f"SELECT id, quantity FROM orders WHERE amount BETWEEN {low} AND {high} "
            "AND region_id IS NOT NULL ORDER BY quantity * amount DESC LIMIT 20"
        )
    queries.append("SELECT COUNT(*) FROM orders WHERE region_id IS NULL")
    # per-status scan + expression ordering variations
    for status in STATUSES:
        queries.append(
            f"SELECT id, amount - quantity * 2 FROM orders WHERE status = '{status}' "
            "ORDER BY 2 DESC LIMIT 15"
        )
    return queries
