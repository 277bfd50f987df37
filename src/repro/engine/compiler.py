"""Expression-to-closure compiler for the execution hot path.

The executor's tree-walking evaluator (``Executor._evaluate``) re-dispatches
on AST node type and resolves every column reference by string for every
row.  This module compiles an expression tree *once* per (expression,
relation) into a plain Python closure ``row -> value``:

* column references are resolved to tuple indices at compile time,
* operator dispatch happens at compile time (each node becomes one closure),
* LIKE patterns with literal patterns become precompiled regexes,
* IN-lists of literals become one hashed :class:`MemberSet`.

Compilation is best-effort: :func:`compile_row_expression` returns ``None``
for anything it cannot handle — outer column references, aggregates in row
position, bind parameters — and the executor falls back to the evaluator
*for that expression only*.  Subqueries (IN/EXISTS/scalar) compile when the
caller supplies a ``subqueries`` handler: the handler maps a subquery node to
a ``row -> QueryResult`` runner (the executor binds its cached-subquery
machinery there, so correlated subqueries execute through the compiled path
too).  Without a handler they fall back to the evaluator.  Every compiled
closure mirrors the corresponding evaluator branch exactly (including NULL
propagation quirks), so a fallback never changes a result;
``tests/test_engine_golden.py`` replays results recorded when a second,
fully tree-walking executor checked every statement.

:func:`compile_group_expression` is the aggregation-mode analogue: it
compiles an expression evaluated once per group (HAVING, aggregated select
items) into a closure ``(group_rows, representative_row) -> value``,
mirroring ``Executor._evaluate_aggregate_aware``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from repro.engine.functions import SCALAR_FUNCTIONS, call_aggregate
from repro.engine.runtime import (
    MemberSet,
    apply_binary,
    apply_unary,
    is_true,
    like_match,
    like_regex,
    numeric_binary,
)
from repro.engine.storage import Relation
from repro.engine.types import DataType, SQLValue, coerce_value, compare_values
from repro.errors import ExecutionError
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    BinaryOperator,
    CaseWhen,
    Cast,
    ColumnRef,
    Exists,
    Expression,
    FunctionCall,
    InList,
    InSubquery,
    IsNull,
    Like,
    Literal,
    ScalarSubquery,
    Star,
    UnaryOp,
)

#: Row-mode compiled expression: maps one row tuple to a value.
RowFn = Callable[[tuple], SQLValue]
#: Group-mode compiled expression: maps (group rows, representative row) to a value.
GroupFn = Callable[[list, tuple], SQLValue]
#: Subquery handler: maps a subquery Select node to a ``row -> QueryResult``
#: runner, or — called with ``members=True`` — to a ``row -> MemberSet``
#: runner over the subquery's first column.  Supplied by the executor, which
#: binds its own row context and cached-subquery machinery into the runner.
SubqueryHandler = Callable[..., Callable[[tuple], object]]

#: Aggregate function names (kept in sync with the executor's dispatch set).
AGGREGATE_NAMES = frozenset(
    {"COUNT", "SUM", "AVG", "MIN", "MAX", "GROUP_CONCAT", "STDDEV", "VARIANCE", "MEDIAN"}
)

#: Scalar function names that accept zero arguments.
_ZERO_ARG_SCALARS = frozenset({"CONCAT", "COALESCE"})


class CannotCompile(Exception):
    """Internal control flow: the expression must run on the interpreter."""


@dataclass
class CompileCounters:
    """Tallies of compile outcomes, shared by an executor across calls.

    EXPLAIN ANALYZE reports the per-query delta of these counters, making
    interpreter fallbacks (correlated subqueries, unknown functions, ...)
    visible without touching the compiled closures themselves.
    """

    compiled: int = 0
    fallbacks: int = 0


def compile_row_expression(
    expression: Expression,
    relation: Relation,
    subqueries: SubqueryHandler | None = None,
    counters: CompileCounters | None = None,
) -> RowFn | None:
    """Compile an expression against a relation, or ``None`` if unsupported."""
    try:
        compiled = _row(expression, relation, subqueries)
    except CannotCompile:
        if counters is not None:
            counters.fallbacks += 1
        return None
    if counters is not None:
        counters.compiled += 1
    return compiled


def compile_group_expression(
    expression: Expression,
    relation: Relation,
    subqueries: SubqueryHandler | None = None,
    counters: CompileCounters | None = None,
) -> GroupFn | None:
    """Compile an aggregation-mode expression, or ``None`` if unsupported."""
    try:
        compiled = _group(expression, relation, subqueries)
    except CannotCompile:
        if counters is not None:
            counters.fallbacks += 1
        return None
    if counters is not None:
        counters.compiled += 1
    return compiled


# ---------------------------------------------------------------------------
# row mode
# ---------------------------------------------------------------------------


def _row(
    expression: Expression, relation: Relation, subqueries: SubqueryHandler | None
) -> RowFn:
    if isinstance(expression, Literal):
        value = expression.value
        return lambda row: value

    if isinstance(expression, ColumnRef):
        try:
            index = relation.column_index(expression.name, expression.table)
        except ExecutionError as exc:
            # Not resolvable locally — may be an outer (correlated) reference,
            # which only the interpreter's context chain can resolve.
            raise CannotCompile(str(exc)) from exc
        return lambda row: row[index]

    if isinstance(expression, BinaryOp):
        return _row_binary(expression, relation, subqueries)

    if isinstance(expression, UnaryOp):
        operand = _row(expression.operand, relation, subqueries)
        op = expression.op
        return lambda row: apply_unary(op, operand(row))

    if isinstance(expression, FunctionCall):
        return _row_function(expression, relation, subqueries)

    if isinstance(expression, Cast):
        operand = _row(expression.operand, relation, subqueries)
        data_type = DataType.from_sql(expression.target_type)

        def cast_fn(row: tuple) -> SQLValue:
            value = operand(row)
            if value is None:
                return None
            return coerce_value(value, data_type)

        return cast_fn

    if isinstance(expression, CaseWhen):
        pairs = [
            (_row(condition, relation, subqueries), _row(result, relation, subqueries))
            for condition, result in expression.conditions
        ]
        else_fn = (
            _row(expression.else_result, relation, subqueries)
            if expression.else_result is not None
            else None
        )

        def case_fn(row: tuple) -> SQLValue:
            for condition_fn, result_fn in pairs:
                if is_true(condition_fn(row)):
                    return result_fn(row)
            return else_fn(row) if else_fn is not None else None

        return case_fn

    if isinstance(expression, IsNull):
        operand = _row(expression.operand, relation, subqueries)
        if expression.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None

    if isinstance(expression, InList):
        return _row_in_list(expression, relation, subqueries)

    if isinstance(expression, Between):
        operand = _row(expression.operand, relation, subqueries)
        low = _row(expression.low, relation, subqueries)
        high = _row(expression.high, relation, subqueries)
        negated = expression.negated

        def between_fn(row: tuple) -> SQLValue:
            value = operand(row)
            low_value = low(row)
            high_value = high(row)
            if value is None or low_value is None or high_value is None:
                return None
            in_range = (
                compare_values(value, low_value) >= 0
                and compare_values(value, high_value) <= 0
            )
            return not in_range if negated else in_range

        return between_fn

    if isinstance(expression, Like):
        return _row_like(expression, relation, subqueries)

    if isinstance(expression, InSubquery) and subqueries is not None:
        operand = _row(expression.operand, relation, subqueries)
        members = subqueries(expression.subquery, members=True)
        negated = expression.negated

        def in_subquery_fn(row: tuple) -> SQLValue:
            value = operand(row)
            if value is None:
                return None
            contained = members(row).contains(value)
            return not contained if negated else contained

        return in_subquery_fn

    if isinstance(expression, Exists) and subqueries is not None:
        run = subqueries(expression.subquery)
        negated = expression.negated

        def exists_fn(row: tuple) -> SQLValue:
            exists = len(run(row).rows) > 0
            return not exists if negated else exists

        return exists_fn

    if isinstance(expression, ScalarSubquery) and subqueries is not None:
        run = subqueries(expression.query)

        def scalar_subquery_fn(row: tuple) -> SQLValue:
            result = run(row)
            if not result.rows:
                return None
            if len(result.rows[0]) != 1:
                raise ExecutionError("scalar subquery must return exactly one column")
            return result.rows[0][0]

        return scalar_subquery_fn

    # Star, Parameter, unknown nodes — and subqueries when no handler was
    # supplied: the interpreter owns these (errors, correlated execution).
    raise CannotCompile(type(expression).__name__)


def _row_binary(
    expression: BinaryOp, relation: Relation, subqueries: SubqueryHandler | None
) -> RowFn:
    op = expression.op

    if op is BinaryOperator.AND:
        left = _row(expression.left, relation, subqueries)
        right = _row(expression.right, relation, subqueries)

        def and_fn(row: tuple) -> SQLValue:
            left_value = left(row)
            if left_value is False:
                return False
            right_value = right(row)
            if right_value is False:
                return False
            if left_value is None or right_value is None:
                return None
            return is_true(left_value) and is_true(right_value)

        return and_fn

    if op is BinaryOperator.OR:
        left = _row(expression.left, relation, subqueries)
        right = _row(expression.right, relation, subqueries)

        def or_fn(row: tuple) -> SQLValue:
            left_value = left(row)
            if is_true(left_value):
                return True
            right_value = right(row)
            if is_true(right_value):
                return True
            if left_value is None or right_value is None:
                return None
            return False

        return or_fn

    left = _row(expression.left, relation, subqueries)
    right = _row(expression.right, relation, subqueries)

    comparator = _COMPARISON_FACTORIES.get(op)
    if comparator is not None:
        return comparator(left, right)

    arithmetic = _ARITHMETIC_OPERATIONS.get(op)
    if arithmetic is not None:

        def arithmetic_fn(row: tuple) -> SQLValue:
            left_value = left(row)
            right_value = right(row)
            if left_value is None or right_value is None:
                return None
            return numeric_binary(left_value, right_value, arithmetic)

        return arithmetic_fn

    if op in (BinaryOperator.DIV, BinaryOperator.MOD):
        operation = (
            (lambda a, b: a / b) if op is BinaryOperator.DIV else (lambda a, b: a % b)
        )

        def div_fn(row: tuple) -> SQLValue:
            left_value = left(row)
            right_value = right(row)
            if left_value is None or right_value is None:
                return None
            if float(right_value) == 0.0:
                return None
            return numeric_binary(left_value, right_value, operation)

        return div_fn

    if op is BinaryOperator.CONCAT:

        def concat_fn(row: tuple) -> SQLValue:
            left_value = left(row)
            right_value = right(row)
            if left_value is None or right_value is None:
                return None
            return f"{left_value}{right_value}"

        return concat_fn

    return lambda row: apply_binary(op, left(row), right(row))


def _make_comparison(predicate) -> Callable[[RowFn, RowFn], RowFn]:
    def factory(left: RowFn, right: RowFn) -> RowFn:
        def compare_fn(row: tuple) -> SQLValue:
            left_value = left(row)
            right_value = right(row)
            if left_value is None or right_value is None:
                return None
            return predicate(compare_values(left_value, right_value))

        return compare_fn

    return factory


_COMPARISON_FACTORIES: dict[BinaryOperator, Callable[[RowFn, RowFn], RowFn]] = {
    BinaryOperator.EQ: _make_comparison(lambda c: c == 0),
    BinaryOperator.NEQ: _make_comparison(lambda c: c != 0),
    BinaryOperator.LT: _make_comparison(lambda c: c < 0),
    BinaryOperator.LTE: _make_comparison(lambda c: c <= 0),
    BinaryOperator.GT: _make_comparison(lambda c: c > 0),
    BinaryOperator.GTE: _make_comparison(lambda c: c >= 0),
}

_ARITHMETIC_OPERATIONS = {
    BinaryOperator.ADD: lambda a, b: a + b,
    BinaryOperator.SUB: lambda a, b: a - b,
    BinaryOperator.MUL: lambda a, b: a * b,
}


def _row_function(
    expression: FunctionCall, relation: Relation, subqueries: SubqueryHandler | None
) -> RowFn:
    upper = expression.upper_name
    if upper in AGGREGATE_NAMES:
        # Aggregates need group context; row mode cannot supply it.
        raise CannotCompile(upper)
    function = SCALAR_FUNCTIONS.get(upper)
    if function is None:
        # Unknown function: the interpreter raises the canonical error.
        raise CannotCompile(upper)
    if not expression.args and upper not in _ZERO_ARG_SCALARS:
        raise CannotCompile(f"{upper} with no arguments")
    arg_fns = [_row(arg, relation, subqueries) for arg in expression.args]
    if len(arg_fns) == 1:
        only = arg_fns[0]
        return lambda row: function([only(row)])
    return lambda row: function([arg_fn(row) for arg_fn in arg_fns])


def _row_in_list(
    expression: InList, relation: Relation, subqueries: SubqueryHandler | None
) -> RowFn:
    operand = _row(expression.operand, relation, subqueries)
    negated = expression.negated
    if all(isinstance(member, Literal) for member in expression.values):
        contains = MemberSet(member.value for member in expression.values).contains

        def static_in_fn(row: tuple) -> SQLValue:
            value = operand(row)
            if value is None:
                return None
            contained = contains(value)
            return not contained if negated else contained

        return static_in_fn

    member_fns = [_row(member, relation, subqueries) for member in expression.values]

    def dynamic_in_fn(row: tuple) -> SQLValue:
        value = operand(row)
        if value is None:
            return None
        contained = any(
            member is not None and compare_values(value, member) == 0
            for member in (member_fn(row) for member_fn in member_fns)
        )
        return not contained if negated else contained

    return dynamic_in_fn


def _row_like(
    expression: Like, relation: Relation, subqueries: SubqueryHandler | None
) -> RowFn:
    operand = _row(expression.operand, relation, subqueries)
    negated = expression.negated
    if isinstance(expression.pattern, Literal):
        pattern_value = expression.pattern.value
        if pattern_value is None:

            def null_pattern_fn(row: tuple) -> SQLValue:
                operand(row)  # evaluated for error parity with the interpreter
                return None

            return null_pattern_fn
        regex = re.compile(like_regex(str(pattern_value)), re.IGNORECASE)

        def static_like_fn(row: tuple) -> SQLValue:
            value = operand(row)
            if value is None:
                return None
            matched = regex.match(str(value)) is not None
            return not matched if negated else matched

        return static_like_fn

    pattern_fn = _row(expression.pattern, relation, subqueries)

    def dynamic_like_fn(row: tuple) -> SQLValue:
        value = operand(row)
        pattern = pattern_fn(row)
        if value is None or pattern is None:
            return None
        matched = like_match(str(value), str(pattern))
        return not matched if negated else matched

    return dynamic_like_fn


# ---------------------------------------------------------------------------
# aggregation mode
# ---------------------------------------------------------------------------


def _group(
    expression: Expression, relation: Relation, subqueries: SubqueryHandler | None
) -> GroupFn:
    if isinstance(expression, FunctionCall) and expression.upper_name in AGGREGATE_NAMES:
        upper = expression.upper_name
        distinct = expression.distinct
        count_star = bool(expression.args) and isinstance(expression.args[0], Star)
        if count_star or not expression.args:

            def star_fn(group_rows: list, representative: tuple) -> SQLValue:
                return call_aggregate(upper, [1] * len(group_rows), distinct, count_star)

            return star_fn

        arg_fn = _row(expression.args[0], relation, subqueries)

        def aggregate_fn(group_rows: list, representative: tuple) -> SQLValue:
            return call_aggregate(
                upper, [arg_fn(row) for row in group_rows], distinct, count_star
            )

        return aggregate_fn

    if isinstance(expression, BinaryOp):
        left = _group(expression.left, relation, subqueries)
        right = _group(expression.right, relation, subqueries)
        op = expression.op
        # NB: the interpreter's aggregate-aware path evaluates AND/OR through
        # apply_binary (no short-circuit); mirror that exactly.
        return lambda group_rows, representative: apply_binary(
            op, left(group_rows, representative), right(group_rows, representative)
        )

    if isinstance(expression, UnaryOp):
        operand = _group(expression.operand, relation, subqueries)
        op = expression.op
        return lambda group_rows, representative: apply_unary(
            op, operand(group_rows, representative)
        )

    if isinstance(expression, FunctionCall) and expression.upper_name in SCALAR_FUNCTIONS:
        function = SCALAR_FUNCTIONS[expression.upper_name]
        arg_fns = [_group(arg, relation, subqueries) for arg in expression.args]
        return lambda group_rows, representative: function(
            [arg_fn(group_rows, representative) for arg_fn in arg_fns]
        )

    if isinstance(expression, CaseWhen):
        pairs = [
            (_group(condition, relation, subqueries), _group(result, relation, subqueries))
            for condition, result in expression.conditions
        ]
        else_fn = (
            _group(expression.else_result, relation, subqueries)
            if expression.else_result is not None
            else None
        )

        def case_fn(group_rows: list, representative: tuple) -> SQLValue:
            for condition_fn, result_fn in pairs:
                if is_true(condition_fn(group_rows, representative)):
                    return result_fn(group_rows, representative)
            return else_fn(group_rows, representative) if else_fn is not None else None

        return case_fn

    if isinstance(expression, Cast):
        operand = _group(expression.operand, relation, subqueries)
        data_type = DataType.from_sql(expression.target_type)

        def cast_fn(group_rows: list, representative: tuple) -> SQLValue:
            value = operand(group_rows, representative)
            if value is None:
                return None
            return coerce_value(value, data_type)

        return cast_fn

    # Every other node falls through to plain row evaluation against the
    # group's representative row — but only when no aggregate hides inside
    # (the interpreter would aggregate it via the group context).
    if contains_aggregate(expression):
        raise CannotCompile(type(expression).__name__)
    row_fn = _row(expression, relation, subqueries)
    return lambda group_rows, representative: row_fn(representative)


def contains_aggregate(expression: Expression) -> bool:
    """Whether any aggregate function call appears anywhere in the tree."""
    from repro.sql.analyzer import iter_expressions

    for node in iter_expressions(expression):
        if isinstance(node, FunctionCall) and node.upper_name in AGGREGATE_NAMES:
            return True
    return False
