"""In-memory relational execution engine."""

from repro.engine.compiler import compile_group_expression, compile_row_expression
from repro.engine.database import Database
from repro.engine.executor import Executor, QueryResult, RowContext
from repro.engine.functions import call_aggregate, call_scalar, is_scalar_function
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
    "call_scalar",
    "coerce_value",
    "compare_values",
    "compile_group_expression",
    "compile_row_expression",
    "is_numeric",
    "is_scalar_function",
    "values_equal",
]
