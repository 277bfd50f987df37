"""Database facade: catalog + storage + executor in one object.

:class:`Database` is the substrate on which every experiment runs: workload
generators populate databases, the execution-accuracy metric runs gold and
predicted SQL against them, and the backtranslation rubric re-executes
regenerated SQL.

SELECTs run on one executor, which compiles expressions to closures; see
:mod:`repro.engine.executor`.

Hot-path machinery (all transparent to callers):

* an LRU **statement cache** mapping SQL text to its parsed AST — parsing is
  pure, so re-executing the same SQL (the execution-accuracy loop does this
  constantly) skips the lexer/parser entirely.  Cached ASTs also keep stable
  object identities, which lets the executor reuse compiled plans and
  uncorrelated-subquery results across ``execute`` calls;
* a **catalog version** (bumped by CREATE/DROP) that invalidates compiled
  plans whose column indices may have moved, and a **data version** (bumped
  once per change to a table's rows: each row of a SQL INSERT, each DELETE
  that removes rows, each bulk :meth:`Database.insert` or direct
  ``StoredTable.insert_rows`` call) that invalidates cached subquery
  results — so DML never requires a full cache clear and read-only
  workloads never re-execute a cached subquery.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque

from repro.errors import CatalogError, ExecutionError
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.engine.executor import Executor, QueryResult
from repro.engine.runtime import is_true
from repro.engine.storage import StoredColumn, StoredTable
from repro.engine.types import DataType, SQLValue
from repro.sql.ast_nodes import (
    CreateTable,
    Delete,
    DropTable,
    Insert,
    Literal,
    Select,
    Statement,
    UnaryOp,
    UnaryOperator,
)
from repro.sql.parser import parse, parse_many

#: Default capacity of the SQL-text -> AST statement cache.
DEFAULT_STATEMENT_CACHE_SIZE = 256

#: Default ring capacity of the slow-query log.
DEFAULT_SLOW_QUERY_CAPACITY = 128


class Database:
    """An in-memory relational database with a SQL interface.

    Example:
        >>> db = Database("demo")
        >>> db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
        >>> db.execute("INSERT INTO t (id, name) VALUES (1, 'a'), (2, 'b')")
        >>> db.execute("SELECT COUNT(*) FROM t").rows
        [(2,)]
    """

    #: Observability sink for slow-query accounting (class-level no-op
    #: default; assign per instance to enable).
    telemetry: Telemetry = NULL_TELEMETRY

    def __init__(
        self,
        name: str = "main",
        statement_cache_size: int = DEFAULT_STATEMENT_CACHE_SIZE,
    ) -> None:
        self.name = name
        self._tables: dict[str, StoredTable] = {}
        #: Bumped by CREATE/DROP: compiled plans must re-resolve column indices.
        self.catalog_version = 0
        #: Bumped by any change to rows: cached subquery/gold results are stale.
        self.data_version = 0
        self._statement_cache: OrderedDict[str, Statement] = OrderedDict()
        self._statement_cache_size = statement_cache_size
        self.statement_cache_hits = 0
        self.statement_cache_misses = 0
        self._executor = Executor(self)
        #: Slow-query log; disabled (None threshold) keeps execute un-timed.
        self._slow_query_threshold: float | None = None
        self.slow_queries: deque[dict] = deque(maxlen=DEFAULT_SLOW_QUERY_CAPACITY)

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------

    @property
    def table_names(self) -> list[str]:
        """Names of all tables in creation order."""
        return [table.name for table in self._tables.values()]

    def has_table(self, name: str) -> bool:
        """Whether a table with this (case-insensitive) name exists."""
        return name.lower() in self._tables

    def table(self, name: str) -> StoredTable:
        """Look up a table by name.

        Raises:
            CatalogError: if the table does not exist.
        """
        try:
            return self._tables[name.lower()]
        except KeyError as exc:
            raise CatalogError(f"unknown table {name!r}") from exc

    def tables(self) -> list[StoredTable]:
        """All stored tables."""
        return list(self._tables.values())

    def create_table(
        self,
        name: str,
        columns: list[tuple[str, str]] | list[StoredColumn],
        primary_key: list[str] | None = None,
    ) -> StoredTable:
        """Create a table programmatically.

        ``columns`` is either a list of :class:`StoredColumn` or
        ``(name, sql_type)`` pairs.
        """
        if self.has_table(name):
            raise CatalogError(f"table {name!r} already exists")
        stored_columns: list[StoredColumn] = []
        for column in columns:
            if isinstance(column, StoredColumn):
                stored_columns.append(column)
            else:
                column_name, type_name = column
                stored_columns.append(
                    StoredColumn(name=column_name, data_type=DataType.from_sql(type_name))
                )
        if primary_key:
            pk_lower = {column.lower() for column in primary_key}
            for column in stored_columns:
                if column.name.lower() in pk_lower:
                    column.primary_key = True
                    column.not_null = True
        table = StoredTable(name=name, columns=stored_columns)
        self._register_table(table)
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table from the catalog."""
        if not self.has_table(name):
            raise CatalogError(f"unknown table {name!r}")
        del self._tables[name.lower()]
        self._mark_catalog_change()

    def insert(self, table_name: str, rows: list[dict[str, SQLValue]] | list[tuple]) -> int:
        """Insert rows programmatically; returns the number of rows inserted.

        The rows go in as one batch (:meth:`StoredTable.insert_rows`): all of
        them or, when one is bad, none, with one data-version bump.
        """
        table = self.table(table_name)
        table.insert_rows(rows)
        return len(rows)

    # ------------------------------------------------------------------
    # SQL interface
    # ------------------------------------------------------------------

    def parse_cached(self, sql: str) -> Statement:
        """Parse a statement through the LRU statement cache.

        Parsing is pure, so the same SQL text always maps to the same AST —
        callers must treat the returned tree as immutable.  Parse failures are
        not cached.
        """
        cache = self._statement_cache
        statement = cache.get(sql)
        if statement is not None:
            cache.move_to_end(sql)
            self.statement_cache_hits += 1
            return statement
        statement = parse(sql)
        self.statement_cache_misses += 1
        cache[sql] = statement
        if len(cache) > self._statement_cache_size:
            cache.popitem(last=False)
        return statement

    def execute(self, sql: str) -> QueryResult:
        """Parse (through the statement cache) and execute one statement.

        When a slow-query threshold is configured (:meth:`set_slow_query_log`)
        the statement is timed and logged if it runs at/over the threshold;
        with the log disabled — the default — no clock is read at all.
        """
        threshold = self._slow_query_threshold
        if threshold is None:
            return self.execute_statement(self.parse_cached(sql))
        started = time.perf_counter()
        result = self.execute_statement(self.parse_cached(sql))
        elapsed = time.perf_counter() - started
        if elapsed >= threshold:
            self.slow_queries.append(
                {"sql": sql, "seconds": round(elapsed, 9), "rows": len(result.rows)}
            )
            tel = self.telemetry
            if tel.enabled:
                tel.count("database_slow_queries_total", database=self.name)
                tel.event(
                    "slow_query",
                    database=self.name,
                    sql=sql,
                    seconds=round(elapsed, 6),
                )
        return result

    def set_slow_query_log(
        self,
        threshold_seconds: float | None,
        capacity: int = DEFAULT_SLOW_QUERY_CAPACITY,
    ) -> None:
        """Configure the slow-query log.

        Statements whose end-to-end ``execute`` takes at least
        ``threshold_seconds`` are recorded in the bounded :attr:`slow_queries`
        ring (newest last).  ``None`` disables logging and removes the timing
        overhead entirely; already-recorded entries are kept (re-bounded to
        ``capacity``).
        """
        if threshold_seconds is not None and threshold_seconds < 0:
            raise ValueError("slow-query threshold cannot be negative")
        if capacity < 1:
            raise ValueError("slow-query log capacity must be at least 1")
        self._slow_query_threshold = (
            float(threshold_seconds) if threshold_seconds is not None else None
        )
        self.slow_queries = deque(self.slow_queries, maxlen=capacity)

    def execute_script(self, sql: str) -> list[QueryResult]:
        """Execute a ``;``-separated script, returning one result per statement."""
        return [self.execute_statement(statement) for statement in parse_many(sql)]

    def execute_statement(self, statement: Statement) -> QueryResult:
        """Execute an already-parsed statement."""
        if isinstance(statement, Select):
            return self._executor.execute_select(statement)
        if isinstance(statement, CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, Insert):
            return self._execute_insert(statement)
        if isinstance(statement, Delete):
            return self._execute_delete(statement)
        if isinstance(statement, DropTable):
            return self._execute_drop_table(statement)
        raise ExecutionError(f"unsupported statement type {type(statement).__name__}")

    def query(self, sql: str) -> list[tuple[SQLValue, ...]]:
        """Execute a SELECT and return just the rows."""
        return self.execute(sql).rows

    def explain(self, sql: str, analyze: bool = False) -> dict:
        """Describe a statement without changing the database.

        For a SELECT the dict names the statement and (for a set operation)
        the operator; for anything else it carries the
        statement type plus the reason it is not described further.  Parsing
        only: a described INSERT does not run.

        With ``analyze=True`` (EXPLAIN ANALYZE) the SELECT is additionally
        *executed* under per-operator instrumentation, and the dict gains an
        ``"analyze"`` key: executed operators with wall time and rows in/out,
        total wall time, and the query's cache-counter deltas.  The analyzed
        execution observes but never perturbs evaluation, so the rows it
        produces are bit-identical to a plain ``execute``.
        """
        statement = self.parse_cached(sql)
        if not isinstance(statement, Select):
            return {
                "statement": type(statement).__name__,
                "reason": "not a SELECT statement",
            }
        info = self._executor.explain_select(statement)
        if analyze:
            info["analyze"] = self._executor.analyze_select(statement)
        return info

    # ------------------------------------------------------------------
    # cache invalidation
    # ------------------------------------------------------------------

    def _register_table(self, table: StoredTable) -> None:
        table.on_mutation = self._mark_data_change
        self._tables[table.name.lower()] = table
        self._mark_catalog_change()

    def _mark_data_change(self) -> None:
        self.data_version += 1

    def _mark_catalog_change(self) -> None:
        self.catalog_version += 1
        self.data_version += 1

    # ------------------------------------------------------------------
    # DDL / DML execution
    # ------------------------------------------------------------------

    def _execute_create_table(self, statement: CreateTable) -> QueryResult:
        if self.has_table(statement.name):
            if statement.if_not_exists:
                return QueryResult(columns=[], rows=[])
            raise CatalogError(f"table {statement.name!r} already exists")
        pk_from_table = {name.lower() for name in statement.primary_key}
        columns = []
        for column_def in statement.columns:
            column = StoredColumn(
                name=column_def.name,
                data_type=DataType.from_sql(column_def.type_name),
                not_null=column_def.not_null or column_def.primary_key,
                primary_key=column_def.primary_key or column_def.name.lower() in pk_from_table,
                unique=column_def.unique,
            )
            if column.primary_key:
                column.not_null = True
            columns.append(column)
        table = StoredTable(name=statement.name, columns=columns)
        self._register_table(table)
        return QueryResult(columns=[], rows=[])

    def _execute_insert(self, statement: Insert) -> QueryResult:
        """Insert every ``VALUES`` row, or none of them.

        All rows are evaluated and, under a column list, arity-checked
        before one :meth:`StoredTable.insert_rows` call checks and appends
        them, so a bad row leaves the table as it was (as in SQLite) and the
        statement bumps the data version once.
        """
        table = self.table(statement.table)
        rows = []
        for row in statement.rows:
            values = tuple(self._literal_value(expression) for expression in row)
            if statement.columns:
                if len(values) != len(statement.columns):
                    raise ExecutionError(
                        f"INSERT into {statement.table!r}: {len(statement.columns)} columns "
                        f"but {len(values)} values"
                    )
                rows.append(dict(zip(statement.columns, values)))
            else:
                rows.append(values)
        table.insert_rows(rows)
        return QueryResult(columns=["rows_inserted"], rows=[(len(rows),)])

    def _execute_delete(self, statement: Delete) -> QueryResult:
        table = self.table(statement.table)
        if statement.where is None:
            deleted = table.delete_rows()
        else:
            relation = table.to_relation()
            predicate = self._executor._row_evaluator(statement.where, relation, None)
            deleted = table.delete_rows(lambda row: is_true(predicate(row)))
        return QueryResult(columns=["rows_deleted"], rows=[(deleted,)])

    def _execute_drop_table(self, statement: DropTable) -> QueryResult:
        if not self.has_table(statement.name):
            if statement.if_exists:
                return QueryResult(columns=[], rows=[])
            raise CatalogError(f"unknown table {statement.name!r}")
        self.drop_table(statement.name)
        return QueryResult(columns=[], rows=[])

    @staticmethod
    def _literal_value(expression) -> SQLValue:
        if isinstance(expression, Literal):
            return expression.value
        if isinstance(expression, UnaryOp) and expression.op is UnaryOperator.NEG and isinstance(
            expression.operand, Literal
        ):
            value = expression.operand.value
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return -value
        raise ExecutionError("INSERT VALUES must be literal constants")

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def row_count(self, table_name: str) -> int:
        """Number of rows stored in a table."""
        return len(self.table(table_name))

    def total_rows(self) -> int:
        """Total number of rows across all tables."""
        return sum(len(table) for table in self._tables.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"Database({self.name!r}, tables={len(self._tables)}, rows={self.total_rows()})"
