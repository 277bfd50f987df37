"""Value-level runtime helpers of the compiler and the executor.

These functions implement the engine's SQL semantics on plain Python values:
three-valued truthiness, NULL-propagating unary operators and arithmetic,
LIKE matching, ``IN`` membership, hash-key normalisation and ORDER BY
comparison.
"""

from __future__ import annotations

import re
from typing import Iterable

from repro.errors import ExecutionError
from repro.engine.types import SQLValue, compare_values, is_numeric
from repro.sql.ast_nodes import OrderItem, UnaryOperator


def is_true(value: SQLValue) -> bool:
    """SQL three-valued truthiness collapsed to a filter decision."""
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    if is_numeric(value):
        return value != 0
    return bool(value)


def numeric_binary(left: SQLValue, right: SQLValue, operation) -> SQLValue:
    """Apply an arithmetic operation, coercing string operands to float."""
    try:
        left_number = float(left) if not is_numeric(left) else left
        right_number = float(right) if not is_numeric(right) else right
    except (TypeError, ValueError) as exc:
        raise ExecutionError(f"arithmetic on non-numeric values {left!r}, {right!r}") from exc
    result = operation(left_number, right_number)
    if isinstance(left_number, int) and isinstance(right_number, int) and isinstance(result, int):
        return result
    if isinstance(result, float) and result.is_integer() and isinstance(left_number, int) and isinstance(right_number, int):
        return int(result)
    return result


def apply_unary(op: UnaryOperator, operand: SQLValue) -> SQLValue:
    """Evaluate a unary operator with SQL NULL propagation."""
    if operand is None:
        return None
    if op is UnaryOperator.NEG:
        if not is_numeric(operand):
            raise ExecutionError(f"cannot negate non-numeric value {operand!r}")
        return -operand
    if op is UnaryOperator.POS:
        return operand
    if op is UnaryOperator.NOT:
        return not is_true(operand)
    raise ExecutionError(f"unsupported unary operator {op}")


def like_regex(pattern: str) -> str:
    """Translate a SQL LIKE pattern into an anchored regular expression."""
    regex_parts: list[str] = []
    for char in pattern:
        if char == "%":
            regex_parts.append(".*")
        elif char == "_":
            regex_parts.append(".")
        else:
            regex_parts.append(re.escape(char))
    return "^" + "".join(regex_parts) + "$"


def like_match(value: str, pattern: str) -> bool:
    """Case-insensitive SQL LIKE match."""
    return re.match(like_regex(pattern), value, flags=re.IGNORECASE) is not None


def hashable_key(value: SQLValue) -> object:
    """Normalise a value for use as a hash/group key (integral floats → int)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


class MemberSet:
    """Hashed ``IN`` membership that agrees exactly with ``compare_values``.

    ``contains(v)`` equals ``any(m is not None and compare_values(v, m) == 0
    for m in members)`` for every non-NULL ``v``.  ``compare_values`` compares
    two numbers numerically and everything else by ``str()``, so a numeric
    probe looks up the numeric members by value and the non-numeric members
    by ``str()`` (``1`` matches ``1.0`` and ``'1'``), while any other probe
    looks up the ``str()`` of every member (``'1'`` matches ``1`` but not
    ``1.0``; ``True`` matches ``True`` and ``'True'``).  A NaN member compares
    equal to every number, so a member list holding one is scanned linearly;
    ``hashed=False`` asks for that scan outright (a correlated subquery's
    per-row result, probed once, is not worth hashing).
    """

    __slots__ = ("_scan", "_numbers", "_other_strings", "_all_strings")

    def __init__(self, members: Iterable[SQLValue], hashed: bool = True) -> None:
        values = [member for member in members if member is not None]
        numbers = [value for value in values if is_numeric(value)]
        if not hashed or any(number != number for number in numbers):
            self._scan: tuple[SQLValue, ...] | None = tuple(values)
            return
        self._scan = None
        self._numbers = frozenset(numbers)
        self._other_strings = frozenset(str(value) for value in values if not is_numeric(value))
        self._all_strings = self._other_strings.union(str(number) for number in numbers)

    def contains(self, value: SQLValue) -> bool:
        """Whether a non-NULL ``value`` compares equal to some member."""
        if self._scan is not None:
            return any(compare_values(value, member) == 0 for member in self._scan)
        if is_numeric(value):
            if value != value:  # NaN compares equal to every number
                return bool(self._numbers) or str(value) in self._other_strings
            return value in self._numbers or str(value) in self._other_strings
        return str(value) in self._all_strings


def row_key(row: tuple[SQLValue, ...]) -> tuple:
    """Normalised hash key for a whole row (DISTINCT / set operations)."""
    return tuple(hashable_key(value) for value in row)


def distinct_rows(rows: list[tuple[SQLValue, ...]]) -> list[tuple[SQLValue, ...]]:
    """First-occurrence deduplication preserving row order."""
    seen: set[tuple] = set()
    unique: list[tuple[SQLValue, ...]] = []
    for row in rows:
        key = row_key(row)
        if key not in seen:
            seen.add(key)
            unique.append(row)
    return unique


def null_aware_compare(left: SQLValue, right: SQLValue, item: OrderItem) -> int:
    """Three-way ORDER BY comparison honouring NULLS FIRST/LAST."""
    if left is None and right is None:
        return 0
    if left is None:
        if item.nulls_first is True:
            return -1
        if item.nulls_first is False:
            return 1
        return -1 if item.ascending else 1
    if right is None:
        if item.nulls_first is True:
            return 1
        if item.nulls_first is False:
            return -1
        return 1 if item.ascending else -1
    return compare_values(left, right)
