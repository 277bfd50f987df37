"""Expression-to-closure compiler: the engine's one expression evaluator.

Every expression the executor evaluates — WHERE predicates, join
conditions, projection items, grouping keys, ORDER BY keys, HAVING — is
compiled *once* per (expression, relation) into a plain Python closure
``row -> value``:

* column references are resolved to tuple indices at compile time; a name
  that does not resolve in the relation resolves against the enclosing
  queries' bound rows (``outer``, a :class:`RowContext` chain), which is how
  a correlated subquery reads its outer row,
* operator dispatch happens at compile time (each node becomes one closure),
* LIKE patterns with literal patterns become precompiled regexes,
* IN-lists of literals become one hashed :class:`MemberSet`,
* subqueries (IN/EXISTS/scalar) run through the caller's ``subqueries``
  handler, which maps a subquery node to a ``row -> QueryResult`` runner
  (the executor binds its cached-subquery machinery there).

Compilation is total.  What is an error in SQL — a column that resolves
nowhere, an unknown function or one called without arguments, an aggregate
outside aggregation, ``*`` outside ``COUNT(*)``, a bind parameter — compiles
to a closure that raises its :class:`ExecutionError` only when a row
reaches it, after evaluating its arguments.  So a filter that keeps no row
hides the error, and an ORDER BY key reads it as NULL (see
``Executor._sort_rows``).  ``tests/test_engine_golden.py`` replays results
recorded when a second, tree-walking evaluator checked every statement.

:func:`compile_group_expression` is the aggregation-mode analogue (HAVING,
aggregated select items): row mode over the group's representative row, in
which each aggregate call is a leaf that aggregates the current group.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, Sequence

from repro.engine.functions import SCALAR_FUNCTIONS, call_aggregate
from repro.engine.runtime import (
    MemberSet,
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
    Parameter,
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
#: binds the evaluating row as the subquery's outer context.
SubqueryHandler = Callable[..., Callable[[tuple], object]]

#: Aggregate function names (kept in sync with the executor's dispatch set).
AGGREGATE_NAMES = frozenset(
    {"COUNT", "SUM", "AVG", "MIN", "MAX", "GROUP_CONCAT", "STDDEV", "VARIANCE", "MEDIAN"}
)

#: Scalar function names that accept zero arguments.
_ZERO_ARG_SCALARS = frozenset({"CONCAT", "COALESCE"})


class RowContext(NamedTuple):
    """One bound row of an enclosing query, read by its correlated subqueries.

    ``parent`` is the context of the query enclosing that one.
    """

    relation: Relation
    row: tuple
    parent: "RowContext | None" = None


def compile_row_expression(
    expression: Expression,
    relation: Relation,
    subqueries: SubqueryHandler | None = None,
    outer: RowContext | None = None,
) -> RowFn:
    """Compile an expression evaluated once per row of ``relation``.

    ``subqueries`` is required when the expression holds a subquery.
    """
    return _Compiler(relation, subqueries, outer, None).compile(expression)


def compile_group_expression(
    expression: Expression,
    relation: Relation,
    subqueries: SubqueryHandler | None = None,
    outer: RowContext | None = None,
) -> GroupFn:
    """Compile an expression evaluated once per group of ``relation``'s rows.

    The closure stores the group's rows in a one-slot cell, then evaluates
    the row-mode closure on the representative row; each aggregate leaf
    reads the cell.  The cell is not re-entrant, and needs not be: an
    aggregate's argument compiles in row mode (a nested aggregate raises),
    a subquery compiles its own closures, so evaluating the closure never
    calls it again before it returns — and an executor, which caches it, is
    not shared between threads.
    """
    group: list = [None]
    row_fn = _Compiler(relation, subqueries, outer, group).compile(expression)

    def group_fn(group_rows: list, representative: tuple) -> SQLValue:
        group[0] = group_rows
        try:
            return row_fn(representative)
        finally:
            group[0] = None  # the cached closure must not keep the rows alive

    return group_fn


def contains_aggregate(expression: Expression) -> bool:
    """Whether any aggregate function call appears anywhere in the tree."""
    from repro.sql.analyzer import iter_expressions

    for node in iter_expressions(expression):
        if isinstance(node, FunctionCall) and node.upper_name in AGGREGATE_NAMES:
            return True
    return False


def _raises(message: str, arg_fns: Sequence[RowFn] = ()) -> RowFn:
    """A closure that evaluates ``arg_fns`` in order, then raises ``message``."""

    def raise_fn(row: tuple) -> SQLValue:
        for arg_fn in arg_fns:
            arg_fn(row)
        raise ExecutionError(message)

    return raise_fn


class _Compiler:
    """Compiles expressions against one relation, outer context and mode.

    ``group`` is the group-mode cell of :func:`compile_group_expression`,
    or ``None`` in row mode, where an aggregate call is an error.
    """

    def __init__(
        self,
        relation: Relation,
        subqueries: SubqueryHandler | None,
        outer: RowContext | None,
        group: list | None,
    ) -> None:
        self.relation = relation
        self.subqueries = subqueries
        self.outer = outer
        self.group = group

    def compile(self, expression: Expression) -> RowFn:
        if isinstance(expression, Literal):
            value = expression.value
            return lambda row: value

        if isinstance(expression, ColumnRef):
            return self._column(expression)

        if isinstance(expression, BinaryOp):
            return self._binary(expression)

        if isinstance(expression, UnaryOp):
            operand = self.compile(expression.operand)
            op = expression.op
            return lambda row: apply_unary(op, operand(row))

        if isinstance(expression, FunctionCall):
            return self._function(expression)

        if isinstance(expression, Cast):
            operand = self.compile(expression.operand)
            data_type = DataType.from_sql(expression.target_type)

            def cast_fn(row: tuple) -> SQLValue:
                value = operand(row)
                if value is None:
                    return None
                return coerce_value(value, data_type)

            return cast_fn

        if isinstance(expression, CaseWhen):
            pairs = [
                (self.compile(condition), self.compile(result))
                for condition, result in expression.conditions
            ]
            else_fn = (
                self.compile(expression.else_result)
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
            operand = self.compile(expression.operand)
            if expression.negated:
                return lambda row: operand(row) is not None
            return lambda row: operand(row) is None

        if isinstance(expression, InList):
            return self._in_list(expression)

        if isinstance(expression, Between):
            operand = self.compile(expression.operand)
            low = self.compile(expression.low)
            high = self.compile(expression.high)
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
            return self._like(expression)

        if isinstance(expression, InSubquery):
            operand = self.compile(expression.operand)
            members = self._subquery(expression.subquery, members=True)
            negated = expression.negated

            def in_subquery_fn(row: tuple) -> SQLValue:
                value = operand(row)
                if value is None:
                    return None
                contained = members(row).contains(value)
                return not contained if negated else contained

            return in_subquery_fn

        if isinstance(expression, Exists):
            run = self._subquery(expression.subquery)
            negated = expression.negated

            def exists_fn(row: tuple) -> SQLValue:
                exists = len(run(row).rows) > 0
                return not exists if negated else exists

            return exists_fn

        if isinstance(expression, ScalarSubquery):
            run = self._subquery(expression.query)

            def scalar_subquery_fn(row: tuple) -> SQLValue:
                result = run(row)
                if not result.rows:
                    return None
                if len(result.rows[0]) != 1:
                    raise ExecutionError("scalar subquery must return exactly one column")
                return result.rows[0][0]

            return scalar_subquery_fn

        if isinstance(expression, Star):
            return _raises("'*' is only valid inside COUNT(*) or the select list")
        if isinstance(expression, Parameter):
            return _raises("bind parameters are not supported during direct execution")
        return _raises(f"unsupported expression node {type(expression).__name__}")

    def _column(self, expression: ColumnRef) -> RowFn:
        name, table = expression.name, expression.table
        try:
            index = self.relation.column_index(name, table)
        except ExecutionError:
            pass
        else:
            return lambda row: row[index]
        # An outer reference: the enclosing query's row is bound for the
        # whole execution this closure is compiled for.
        context = self.outer
        while context is not None:
            try:
                value = context.row[context.relation.column_index(name, table)]
            except ExecutionError:
                context = context.parent
                continue
            return lambda row: value
        qualified = f"{table}.{name}" if table else name
        return _raises(f"unknown column reference {qualified!r}")

    def _subquery(self, subquery, members: bool = False) -> Callable[[tuple], object]:
        if self.subqueries is None:
            raise ValueError("compiling a subquery needs a subquery handler")
        return self.subqueries(subquery, members=members)

    def _binary(self, expression: BinaryOp) -> RowFn:
        op = expression.op
        left = self.compile(expression.left)
        right = self.compile(expression.right)

        if op is BinaryOperator.AND:

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

        # The one operator left: CONCAT.
        def concat_fn(row: tuple) -> SQLValue:
            left_value = left(row)
            right_value = right(row)
            if left_value is None or right_value is None:
                return None
            return f"{left_value}{right_value}"

        return concat_fn

    def _function(self, expression: FunctionCall) -> RowFn:
        upper = expression.upper_name
        if upper in AGGREGATE_NAMES:
            if self.group is None:
                return _raises(f"aggregate {upper} used outside aggregation context")
            return self._aggregate(expression)
        arg_fns = [self.compile(arg) for arg in expression.args]
        function = SCALAR_FUNCTIONS.get(upper)
        if function is None:
            return _raises(f"unknown scalar function {expression.name!r}", arg_fns)
        if not arg_fns and upper not in _ZERO_ARG_SCALARS:
            return _raises(f"scalar function {expression.name!r} expects at least one argument")
        if len(arg_fns) == 1:
            only = arg_fns[0]
            return lambda row: function([only(row)])
        return lambda row: function([arg_fn(row) for arg_fn in arg_fns])

    def _aggregate(self, expression: FunctionCall) -> RowFn:
        """An aggregate leaf: aggregates the rows of the group in the cell."""
        upper = expression.upper_name
        distinct = expression.distinct
        group = self.group
        count_star = bool(expression.args) and isinstance(expression.args[0], Star)
        if count_star or not expression.args:
            return lambda row: call_aggregate(upper, [1] * len(group[0]), distinct, count_star)
        # The argument is evaluated per group row, in row mode.
        arg_fn = _Compiler(self.relation, self.subqueries, self.outer, None).compile(
            expression.args[0]
        )
        return lambda row: call_aggregate(
            upper, [arg_fn(group_row) for group_row in group[0]], distinct, count_star
        )

    def _in_list(self, expression: InList) -> RowFn:
        operand = self.compile(expression.operand)
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

        member_fns = [self.compile(member) for member in expression.values]

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

    def _like(self, expression: Like) -> RowFn:
        operand = self.compile(expression.operand)
        negated = expression.negated
        if isinstance(expression.pattern, Literal):
            pattern_value = expression.pattern.value
            if pattern_value is None:

                def null_pattern_fn(row: tuple) -> SQLValue:
                    operand(row)  # evaluated for its errors
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

        pattern_fn = self.compile(expression.pattern)

        def dynamic_like_fn(row: tuple) -> SQLValue:
            value = operand(row)
            pattern = pattern_fn(row)
            if value is None or pattern is None:
                return None
            matched = like_match(str(value), str(pattern))
            return not matched if negated else matched

        return dynamic_like_fn


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
