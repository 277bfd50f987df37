"""``sqlite3`` as an independent oracle for the engine.

:func:`load` copies an engine database into an in-memory SQLite database,
and :func:`classify` runs one statement on both and names how the results
relate under the scoring normalization: booleans become integers, floats
are rounded to 10 significant digits, row order counts only where the
statement's ORDER BY fixes it.
"""

from __future__ import annotations

import collections
import dataclasses
import sqlite3

from repro.engine import Database
from repro.engine.types import DataType
from repro.errors import ReproError
from repro.sql.ast_nodes import ColumnRef, Literal, Select, SelectItem
from repro.sql.printer import print_select

_SQLITE_TYPES = {
    DataType.INTEGER: "INTEGER",
    DataType.REAL: "REAL",
    DataType.TEXT: "TEXT",
    DataType.BOOLEAN: "INTEGER",
    DataType.DATE: "TEXT",
}

#: Agreements :func:`classify` reports; every other outcome is a divergence.
AGREEMENTS = ("equal as lists", "equal as multisets", "differ only in tie order")


def load(database: Database) -> sqlite3.Connection:
    """An in-memory SQLite copy of every table of ``database`` (caller closes it)."""
    connection = sqlite3.connect(":memory:")
    for name in database.table_names:
        table = database.table(name)
        columns = ", ".join(
            f'"{column.name}" {_SQLITE_TYPES[column.data_type]}' for column in table.columns
        )
        connection.execute(f'CREATE TABLE "{table.name}" ({columns})')
        marks = ", ".join("?" * len(table.columns))
        connection.executemany(f'INSERT INTO "{table.name}" VALUES ({marks})', table.rows)
    return connection


def _value(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return float(f"{value:.10g}")
    return value


def normalize(rows) -> list[tuple]:
    """Rows with booleans as integers and floats rounded to 10 significant digits."""
    return [tuple(_value(value) for value in row) for row in rows]


def _sort_key(row: tuple) -> list:
    return [
        (0, 0) if value is None else (1, value) if isinstance(value, (int, float)) else (2, value)
        for value in row
    ]


def multiset(rows: list[tuple]) -> list[tuple]:
    """Normalized rows in a canonical order (NULL < numbers < text)."""
    return sorted(rows, key=_sort_key)


def run_engine(database: Database, sql: str) -> list[tuple] | ReproError:
    try:
        return normalize(database.execute(sql).rows)
    except ReproError as exc:
        return exc


def run_sqlite(connection: sqlite3.Connection, sql: str) -> list[tuple] | sqlite3.Error:
    try:
        return normalize(connection.execute(sql).fetchall())
    except sqlite3.Error as exc:
        return exc


def _keyed(select: Select) -> Select:
    """``select`` with each ORDER BY key appended to its select list."""
    items = select.select_items
    keys = []
    for position, order in enumerate(select.order_by):
        expression = order.expression
        if isinstance(expression, Literal) and isinstance(expression.value, int):
            expression = items[expression.value - 1].expression
        elif isinstance(expression, ColumnRef) and expression.table is None:
            name = expression.name.lower()
            aliased = [item for item in items if (item.alias or "").lower() == name]
            if aliased:
                expression = aliased[0].expression
        keys.append(SelectItem(expression=expression, alias=f"order_key_{position}"))
    return dataclasses.replace(select, select_items=items + keys)


def _ties_only(database, connection, select: Select, engine_rows, sqlite_rows) -> bool:
    """Whether two equal-as-multiset results differ only within runs of equal ORDER BY keys.

    The keys are read by running the statement again with them appended to
    its select list; a set-operation chain is not rewritten.
    """
    if select.set_operator is not None:
        return False
    keyed = print_select(_keyed(select))
    width = len(select.select_items)
    engine_keyed = run_engine(database, keyed)
    sqlite_keyed = run_sqlite(connection, keyed)
    if not isinstance(engine_keyed, list) or not isinstance(sqlite_keyed, list):
        return False
    if [row[:width] for row in engine_keyed] != engine_rows:
        return False
    if multiset([row[:width] for row in sqlite_keyed]) != multiset(sqlite_rows):
        return False
    if [row[width:] for row in engine_keyed] != [row[width:] for row in sqlite_keyed]:
        return False
    runs: dict[int, tuple[list, list]] = collections.defaultdict(lambda: ([], []))
    run = 0
    for index, (engine_row, sqlite_row) in enumerate(zip(engine_keyed, sqlite_keyed)):
        if index and engine_row[width:] != engine_keyed[index - 1][width:]:
            run += 1
        runs[run][0].append(engine_row[:width])
        runs[run][1].append(sqlite_row[:width])
    return all(multiset(left) == multiset(right) for left, right in runs.values())


def classify(
    database: Database, connection: sqlite3.Connection, sql: str, oracle_sql: str | None = None
) -> str:
    """How ``sql``'s engine result relates to SQLite's result for ``oracle_sql``.

    ``oracle_sql`` (default: ``sql``) is the same statement spelled for
    SQLite; a statement with ORDER BY or LIMIT must use one text.  Returns
    one of :data:`AGREEMENTS`, ``"both error"``, or a divergence:
    ``"engine error"``, ``"sqlite error"``, ``"order"`` (same rows, ordered
    differently beyond ties), ``"limit cut"`` (the results agree without
    their LIMIT/OFFSET) or ``"values"``.
    """
    engine_rows = run_engine(database, sql)
    sqlite_rows = run_sqlite(connection, oracle_sql or sql)
    engine_failed = not isinstance(engine_rows, list)
    sqlite_failed = not isinstance(sqlite_rows, list)
    if engine_failed or sqlite_failed:
        if engine_failed and sqlite_failed:
            return "both error"
        return "engine error" if engine_failed else "sqlite error"
    if engine_rows == sqlite_rows:
        return "equal as lists"
    select = database.parse_cached(sql)
    if multiset(engine_rows) == multiset(sqlite_rows):
        if not select.order_by:
            return "equal as multisets"
        if _ties_only(database, connection, select, engine_rows, sqlite_rows):
            return "differ only in tie order"
        return "order"
    if select.limit is not None or select.offset is not None:
        whole = print_select(dataclasses.replace(select, limit=None, offset=None))
        if classify(database, connection, whole) in AGREEMENTS:
            return "limit cut"
    return "values"
