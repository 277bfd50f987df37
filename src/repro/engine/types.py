"""Value and type model for the in-memory relational engine.

The engine uses plain Python values at runtime (``None``, ``bool``, ``int``,
``float``, ``str``) and a small set of declared column types that matter for
schema profiling (Table 2's *data-type diversity* metric) and for coercion on
insert.
"""

from __future__ import annotations

from enum import Enum

from repro.errors import TypeMismatchError


class DataType(Enum):
    """Declared column types supported by the engine."""

    INTEGER = "INTEGER"
    REAL = "REAL"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"
    DATE = "DATE"

    @classmethod
    def from_sql(cls, type_name: str) -> "DataType":
        """Map a SQL type name (e.g. ``VARCHAR(255)``, ``NUMBER``) to a DataType."""
        base = type_name.upper().split("(")[0].strip()
        if base in _SQL_TYPE_ALIASES:
            return _SQL_TYPE_ALIASES[base]
        return cls.TEXT


_SQL_TYPE_ALIASES: dict[str, DataType] = {
    "INT": DataType.INTEGER,
    "INTEGER": DataType.INTEGER,
    "BIGINT": DataType.INTEGER,
    "SMALLINT": DataType.INTEGER,
    "TINYINT": DataType.INTEGER,
    "SERIAL": DataType.INTEGER,
    "NUMBER": DataType.REAL,
    "NUMERIC": DataType.REAL,
    "DECIMAL": DataType.REAL,
    "REAL": DataType.REAL,
    "FLOAT": DataType.REAL,
    "DOUBLE": DataType.REAL,
    "TEXT": DataType.TEXT,
    "VARCHAR": DataType.TEXT,
    "VARCHAR2": DataType.TEXT,
    "CHAR": DataType.TEXT,
    "NCHAR": DataType.TEXT,
    "NVARCHAR": DataType.TEXT,
    "STRING": DataType.TEXT,
    "CLOB": DataType.TEXT,
    "BOOLEAN": DataType.BOOLEAN,
    "BOOL": DataType.BOOLEAN,
    "DATE": DataType.DATE,
    "DATETIME": DataType.DATE,
    "TIMESTAMP": DataType.DATE,
    "TIME": DataType.DATE,
}

#: Runtime Python value type. ``None`` represents SQL NULL.
SQLValue = object

#: The Python type :func:`coerce_value` gives a non-NULL value of each
#: declared type; a value that already has it is stored unchanged.
STORED_TYPES: dict[DataType, type] = {
    DataType.INTEGER: int,
    DataType.REAL: float,
    DataType.TEXT: str,
    DataType.BOOLEAN: bool,
    DataType.DATE: str,
}


def coerce_value(value: SQLValue, data_type: DataType) -> SQLValue:
    """Coerce a Python value to the declared column type.

    ``None`` passes through (NULL is typeless).  Failed numeric coercions raise
    :class:`TypeMismatchError` so bad synthetic data is caught early.
    """
    if value is None:
        return None
    try:
        if data_type is DataType.INTEGER:
            if isinstance(value, bool):
                return int(value)
            return int(value)
        if data_type is DataType.REAL:
            return float(value)
        if data_type is DataType.BOOLEAN:
            if isinstance(value, str):
                return value.strip().lower() in ("1", "true", "t", "yes")
            return bool(value)
        if data_type in (DataType.TEXT, DataType.DATE):
            if isinstance(value, bool):
                return "TRUE" if value else "FALSE"
            return str(value)
    except (TypeError, ValueError) as exc:
        raise TypeMismatchError(
            f"cannot coerce {value!r} to {data_type.value}"
        ) from exc
    return value


def is_numeric(value: SQLValue) -> bool:
    """Return True for int/float values that are not booleans."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_values(left: SQLValue, right: SQLValue) -> int:
    """Three-way comparison used by ORDER BY and comparison operators.

    NULLs compare as smaller than everything (engine-internal convention; the
    executor handles SQL's NULL-propagation before calling this).  Numeric
    values compare numerically, everything else falls back to string
    comparison so heterogeneous columns never raise.
    """
    if left is None and right is None:
        return 0
    if left is None:
        return -1
    if right is None:
        return 1
    if is_numeric(left) and is_numeric(right):
        if left < right:
            return -1
        if left > right:
            return 1
        return 0
    if isinstance(left, bool) and isinstance(right, bool):
        return int(left) - int(right)
    left_str, right_str = str(left), str(right)
    if left_str < right_str:
        return -1
    if left_str > right_str:
        return 1
    return 0


def values_equal(left: SQLValue, right: SQLValue) -> bool:
    """SQL-style equality for result-set comparison (NULL equals NULL here)."""
    if left is None or right is None:
        return left is None and right is None
    if is_numeric(left) and is_numeric(right):
        return float(left) == float(right)
    return compare_values(left, right) == 0
