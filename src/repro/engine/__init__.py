"""In-memory relational execution engine."""

from repro.engine.compiler import RowContext, compile_group_expression, compile_row_expression
from repro.engine.database import Database
from repro.engine.executor import Executor, QueryResult
from repro.engine.functions import call_aggregate
from repro.engine.storage import ColumnLabel, Relation, StoredColumn, StoredTable
from repro.engine.types import (
    DataType,
    SQLValue,
    coerce_value,
    compare_values,
    is_numeric,
    values_equal,
)

__all__ = [
    "Database",
    "DataType",
    "Executor",
    "QueryResult",
    "Relation",
    "RowContext",
    "SQLValue",
    "StoredColumn",
    "StoredTable",
    "ColumnLabel",
    "call_aggregate",
    "coerce_value",
    "compare_values",
    "compile_group_expression",
    "compile_row_expression",
    "is_numeric",
    "values_equal",
]
