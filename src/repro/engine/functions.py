"""Scalar and aggregate function library for the execution engine."""

from __future__ import annotations

import math
import statistics

from repro.errors import ExecutionError
from repro.engine.types import SQLValue, is_numeric


# ---------------------------------------------------------------------------
# scalar functions
# ---------------------------------------------------------------------------


def _scalar_upper(args: list[SQLValue]) -> SQLValue:
    value = args[0]
    return None if value is None else str(value).upper()


def _scalar_lower(args: list[SQLValue]) -> SQLValue:
    value = args[0]
    return None if value is None else str(value).lower()


def _scalar_length(args: list[SQLValue]) -> SQLValue:
    value = args[0]
    return None if value is None else len(str(value))


def _scalar_abs(args: list[SQLValue]) -> SQLValue:
    value = args[0]
    if value is None:
        return None
    if not is_numeric(value):
        raise ExecutionError(f"ABS expects a numeric argument, got {value!r}")
    return abs(value)


def _scalar_round(args: list[SQLValue]) -> SQLValue:
    value = args[0]
    if value is None:
        return None
    digits = int(args[1]) if len(args) > 1 and args[1] is not None else 0
    if not is_numeric(value):
        raise ExecutionError(f"ROUND expects a numeric argument, got {value!r}")
    result = round(float(value), digits)
    return int(result) if digits == 0 else result


def _scalar_coalesce(args: list[SQLValue]) -> SQLValue:
    for value in args:
        if value is not None:
            return value
    return None


def _scalar_nullif(args: list[SQLValue]) -> SQLValue:
    if len(args) != 2:
        raise ExecutionError("NULLIF expects exactly two arguments")
    return None if args[0] == args[1] else args[0]

def _scalar_ifnull(args: list[SQLValue]) -> SQLValue:
    if len(args) != 2:
        raise ExecutionError("IFNULL expects exactly two arguments")
    return args[1] if args[0] is None else args[0]


def _scalar_substr(args: list[SQLValue]) -> SQLValue:
    value = args[0]
    if value is None:
        return None
    text = str(value)
    start = int(args[1]) if len(args) > 1 and args[1] is not None else 1
    start_index = max(start - 1, 0)
    if len(args) > 2 and args[2] is not None:
        length = int(args[2])
        return text[start_index : start_index + length]
    return text[start_index:]


def _scalar_trim(args: list[SQLValue]) -> SQLValue:
    value = args[0]
    return None if value is None else str(value).strip()


def _scalar_concat(args: list[SQLValue]) -> SQLValue:
    parts = [str(value) for value in args if value is not None]
    return "".join(parts)


def _scalar_floor(args: list[SQLValue]) -> SQLValue:
    value = args[0]
    if value is None:
        return None
    return math.floor(float(value))


def _scalar_ceil(args: list[SQLValue]) -> SQLValue:
    value = args[0]
    if value is None:
        return None
    return math.ceil(float(value))


def _scalar_sqrt(args: list[SQLValue]) -> SQLValue:
    value = args[0]
    if value is None:
        return None
    return math.sqrt(float(value))


def _scalar_mod(args: list[SQLValue]) -> SQLValue:
    if args[0] is None or args[1] is None:
        return None
    return float(args[0]) % float(args[1]) if isinstance(args[0], float) or isinstance(args[1], float) else int(args[0]) % int(args[1])


SCALAR_FUNCTIONS = {
    "UPPER": _scalar_upper,
    "LOWER": _scalar_lower,
    "LENGTH": _scalar_length,
    "LEN": _scalar_length,
    "ABS": _scalar_abs,
    "ROUND": _scalar_round,
    "COALESCE": _scalar_coalesce,
    "NULLIF": _scalar_nullif,
    "IFNULL": _scalar_ifnull,
    "NVL": _scalar_ifnull,
    "SUBSTR": _scalar_substr,
    "SUBSTRING": _scalar_substr,
    "TRIM": _scalar_trim,
    "CONCAT": _scalar_concat,
    "FLOOR": _scalar_floor,
    "CEIL": _scalar_ceil,
    "CEILING": _scalar_ceil,
    "SQRT": _scalar_sqrt,
    "MOD": _scalar_mod,
}


# ---------------------------------------------------------------------------
# aggregate functions
# ---------------------------------------------------------------------------


def aggregate_count(values: list[SQLValue], distinct: bool, count_star: bool) -> SQLValue:
    """``COUNT(*)``, ``COUNT(expr)`` or ``COUNT(DISTINCT expr)``."""
    if count_star:
        return len(values)
    non_null = [value for value in values if value is not None]
    if distinct:
        return len(set(non_null))
    return len(non_null)


def _numeric_values(values: list[SQLValue], function: str) -> list[float]:
    result: list[float] = []
    for value in values:
        if value is None:
            continue
        if not is_numeric(value):
            raise ExecutionError(f"{function} expects numeric inputs, got {value!r}")
        result.append(float(value))
    return result


def aggregate_sum(values: list[SQLValue], distinct: bool = False) -> SQLValue:
    """``SUM(expr)``; returns NULL over an empty/all-NULL input per SQL semantics."""
    numbers = _numeric_values(values, "SUM")
    if distinct:
        numbers = list(set(numbers))
    if not numbers:
        return None
    total = sum(numbers)
    if all(float(value).is_integer() for value in numbers):
        return int(total)
    return total


def aggregate_avg(values: list[SQLValue], distinct: bool = False) -> SQLValue:
    """``AVG(expr)``."""
    numbers = _numeric_values(values, "AVG")
    if distinct:
        numbers = list(set(numbers))
    if not numbers:
        return None
    return sum(numbers) / len(numbers)


def aggregate_min(values: list[SQLValue], distinct: bool = False) -> SQLValue:
    """``MIN(expr)``."""
    non_null = [value for value in values if value is not None]
    if not non_null:
        return None
    return min(non_null, key=_sort_key)


def aggregate_max(values: list[SQLValue], distinct: bool = False) -> SQLValue:
    """``MAX(expr)``."""
    non_null = [value for value in values if value is not None]
    if not non_null:
        return None
    return max(non_null, key=_sort_key)


def aggregate_group_concat(values: list[SQLValue], distinct: bool = False) -> SQLValue:
    """``GROUP_CONCAT(expr)`` with ',' separator."""
    non_null = [str(value) for value in values if value is not None]
    if distinct:
        seen: set[str] = set()
        unique: list[str] = []
        for value in non_null:
            if value not in seen:
                seen.add(value)
                unique.append(value)
        non_null = unique
    if not non_null:
        return None
    return ",".join(non_null)


def aggregate_stddev(values: list[SQLValue], distinct: bool = False) -> SQLValue:
    """Sample standard deviation."""
    numbers = _numeric_values(values, "STDDEV")
    if distinct:
        numbers = list(set(numbers))
    if len(numbers) < 2:
        return None
    return statistics.stdev(numbers)


def aggregate_variance(values: list[SQLValue], distinct: bool = False) -> SQLValue:
    """Sample variance."""
    numbers = _numeric_values(values, "VARIANCE")
    if distinct:
        numbers = list(set(numbers))
    if len(numbers) < 2:
        return None
    return statistics.variance(numbers)


def aggregate_median(values: list[SQLValue], distinct: bool = False) -> SQLValue:
    """Median of non-NULL numeric values."""
    numbers = _numeric_values(values, "MEDIAN")
    if distinct:
        numbers = list(set(numbers))
    if not numbers:
        return None
    return statistics.median(numbers)


def _sort_key(value: SQLValue) -> tuple[int, object]:
    if is_numeric(value):
        return (0, float(value))
    return (1, str(value))


AGGREGATE_DISPATCH = {
    "SUM": aggregate_sum,
    "AVG": aggregate_avg,
    "MIN": aggregate_min,
    "MAX": aggregate_max,
    "GROUP_CONCAT": aggregate_group_concat,
    "STDDEV": aggregate_stddev,
    "VARIANCE": aggregate_variance,
    "MEDIAN": aggregate_median,
}


def call_aggregate(name: str, values: list[SQLValue], distinct: bool, count_star: bool = False) -> SQLValue:
    """Invoke an aggregate function over collected input values."""
    upper = name.upper()
    if upper == "COUNT":
        return aggregate_count(values, distinct, count_star)
    function = AGGREGATE_DISPATCH.get(upper)
    if function is None:
        raise ExecutionError(f"unknown aggregate function {name!r}")
    return function(values, distinct)
