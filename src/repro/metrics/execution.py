"""Execution-based SQL metrics.

Execution accuracy — "whether the result of executing the predicted SQL query
matches that of the gold SQL" — is the headline metric of Figure 1.  The
comparison is performed on our in-memory engine: both queries run against the
same populated database and their result multisets are compared (order-
insensitive unless the gold query specifies ORDER BY).

Hot-path structure: gold SQL is parsed once through the database's statement
cache and its ORDER BY-ness is read off that same AST (no second parse).
:class:`GoldResultCache` memoises two things for one run: gold executions, so
evaluating N models against the same gold set executes each gold query exactly
once, and whole comparisons keyed by the (gold SQL, predicted SQL) pair, so
two models that predict the same SQL for a question are executed and compared
once.  The cache is tagged with the database's data version, so any DML
between comparisons invalidates both automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.engine.database import Database
from repro.engine.executor import QueryResult
from repro.engine.types import values_equal
from repro.errors import ReproError
from repro.sql.ast_nodes import Select, Statement


@dataclass
class ExecutionComparison:
    """Outcome of executing and comparing a predicted query against gold."""

    gold_executed: bool
    predicted_executed: bool
    match: bool
    gold_rows: int = 0
    predicted_rows: int = 0
    error: str = ""


@dataclass
class GoldExecution:
    """Memoised execution of one gold query."""

    result: QueryResult | None
    error: str
    ordered: bool


class GoldResultCache:
    """Memoises gold-query executions and comparisons against one database.

    Gold entries are keyed by SQL text; comparisons are keyed by the (gold
    SQL, predicted SQL) pair and hold only the :class:`ExecutionComparison`,
    never the predicted result set.  Both are tagged with the database's data
    version: any DML (or DDL) between lookups drops the whole cache, so
    memoised results can never go stale.  Share one instance across every
    model being evaluated on the same workload to execute each gold query,
    and each distinct prediction of it, once.  ``hits`` counts comparisons
    whose gold result came from memory, a memoised comparison included;
    ``misses`` counts gold executions.
    """

    def __init__(self, database: Database) -> None:
        self._database = database
        self._version = database.data_version
        self._entries: dict[str, GoldExecution] = {}
        self._comparisons: dict[tuple[str, str | None], ExecutionComparison] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _validate(self) -> None:
        if self._version != self._database.data_version:
            self._entries.clear()
            self._comparisons.clear()
            self._version = self._database.data_version

    def get(self, sql: str) -> GoldExecution | None:
        """Return the memoised execution for ``sql``, if still valid."""
        self._validate()
        entry = self._entries.get(sql)
        if entry is not None:
            self.hits += 1
        return entry

    def put(self, sql: str, execution: GoldExecution) -> None:
        """Memoise one gold execution."""
        self._validate()
        self.misses += 1
        self._entries[sql] = execution

    def comparison(self, gold_sql: str, predicted_sql: str | None) -> ExecutionComparison | None:
        """A copy of the memoised comparison of this pair, if still valid."""
        self._validate()
        memo = self._comparisons.get((gold_sql, predicted_sql))
        if memo is None:
            return None
        self.hits += 1
        return replace(memo)

    def put_comparison(
        self, gold_sql: str, predicted_sql: str | None, comparison: ExecutionComparison
    ) -> None:
        """Memoise a copy of one pair's comparison."""
        self._validate()
        self._comparisons[(gold_sql, predicted_sql)] = replace(comparison)


def _unexpected_error(exc: Exception) -> str:
    """Message for a non-library exception, named even when its text is empty."""
    text = str(exc)
    name = type(exc).__name__
    return f"unexpected error: {name}: {text}" if text else f"unexpected error: {name}"


def execute_safely(database: Database, sql: str | None) -> tuple[QueryResult | None, str]:
    """Execute SQL, returning ``(result, error_message)`` instead of raising."""
    _, result, error = _parse_and_execute(database, sql)
    return result, error


def _parse_and_execute(
    database: Database, sql: str | None
) -> tuple[Statement | None, QueryResult | None, str]:
    """``(statement, result, error_message)`` of one statement, never raising.

    The statement is ``None`` when the SQL is empty or does not parse; the
    result is ``None`` whenever there is an error.
    """
    if sql is None or not str(sql).strip():
        return None, None, "empty query"
    statement: Statement | None = None
    try:
        statement = database.parse_cached(sql)
        return statement, database.execute_statement(statement), ""
    except ReproError as exc:
        return statement, None, str(exc)
    except Exception as exc:  # defensive until evaluation has a budget
        return statement, None, _unexpected_error(exc)


def _execute_gold(
    database: Database, gold_sql: str, gold_cache: GoldResultCache | None
) -> GoldExecution:
    """Execute a gold query, reading its ORDER BY-ness off the parsed AST.

    Parses at most once (through the database's statement cache) and consults
    the memoisation cache when one is provided.
    """
    if gold_cache is not None:
        cached = gold_cache.get(gold_sql)
        if cached is not None:
            return cached
    statement, result, error = _parse_and_execute(database, gold_sql)
    ordered = isinstance(statement, Select) and bool(statement.order_by)
    execution = GoldExecution(result=result, error=error, ordered=ordered)
    if gold_cache is not None:
        gold_cache.put(gold_sql, execution)
    return execution


def _normalise_cell(value: object) -> object:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, float):
        return round(value, 6)
    return value


def _row_multiset(result: QueryResult) -> dict[tuple, int]:
    counts: dict[tuple, int] = {}
    for row in result.rows:
        key = tuple(_normalise_cell(value) for value in row)
        counts[key] = counts.get(key, 0) + 1
    return counts


def results_match(gold: QueryResult, predicted: QueryResult, ordered: bool = False) -> bool:
    """Compare two result sets.

    ``ordered`` enforces row order (used when the gold query has ORDER BY);
    otherwise rows are compared as multisets.  Column names are ignored —
    only values matter, mirroring the execution-accuracy convention of
    Spider/Bird.
    """
    if len(gold.rows) != len(predicted.rows):
        return False
    if gold.rows and len(gold.rows[0]) != len(predicted.rows[0]):
        return False
    if ordered:
        return all(
            len(gold_row) == len(predicted_row)
            and all(values_equal(_normalise_cell(g), _normalise_cell(p))
                    for g, p in zip(gold_row, predicted_row))
            for gold_row, predicted_row in zip(gold.rows, predicted.rows)
        )
    return _row_multiset(gold) == _row_multiset(predicted)


def compare_execution(
    database: Database,
    gold_sql: str,
    predicted_sql: str | None,
    gold_cache: GoldResultCache | None = None,
) -> ExecutionComparison:
    """Execute gold and predicted SQL and compare their results.

    Pass a :class:`GoldResultCache` to memoise gold executions and whole
    comparisons across calls (e.g. when scoring several models against the
    same gold set).  A comparison during which the data changed (a DML gold
    or prediction) is not memoised.
    """
    if gold_cache is None:
        return _compare(database, gold_sql, predicted_sql, None)
    memo = gold_cache.comparison(gold_sql, predicted_sql)
    if memo is not None:
        return memo
    version = database.data_version
    comparison = _compare(database, gold_sql, predicted_sql, gold_cache)
    if database.data_version == version:
        gold_cache.put_comparison(gold_sql, predicted_sql, comparison)
    return comparison


def _compare(
    database: Database,
    gold_sql: str,
    predicted_sql: str | None,
    gold_cache: GoldResultCache | None,
) -> ExecutionComparison:
    gold = _execute_gold(database, gold_sql, gold_cache)
    predicted_result, predicted_error = execute_safely(database, predicted_sql)

    if gold.result is None:
        return ExecutionComparison(
            gold_executed=False,
            predicted_executed=predicted_result is not None,
            match=False,
            error=f"gold query failed: {gold.error}",
        )
    if predicted_result is None:
        return ExecutionComparison(
            gold_executed=True,
            predicted_executed=False,
            match=False,
            gold_rows=len(gold.result.rows),
            error=predicted_error,
        )

    match = results_match(gold.result, predicted_result, ordered=gold.ordered)
    return ExecutionComparison(
        gold_executed=True,
        predicted_executed=True,
        match=match,
        gold_rows=len(gold.result.rows),
        predicted_rows=len(predicted_result.rows),
    )

