"""Nested-query decomposition (paper step 3.5).

For nested SQL queries BenchPress rewrites the query into a series of Common
Table Expressions (CTEs), breaking it down into semantically logical
subqueries that are easier to describe independently.  This module implements
that rewrite plus the bookkeeping needed by the annotation loop:

* :func:`decompose` returns a :class:`DecompositionResult` containing the
  rewritten query (all derived tables and expression subqueries lifted into
  named CTEs) and one :class:`QueryUnit` per logical block, in dependency
  order (leaves first, the outer query last).
* Non-nested queries produce a single unit and an unchanged query, so the
  pipeline can call this unconditionally.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property

from repro.sql.analyzer import extract_references, is_nested
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    Cast,
    CaseWhen,
    CTE,
    ColumnRef,
    Exists,
    Expression,
    FunctionCall,
    InList,
    InSubquery,
    IsNull,
    Join,
    Like,
    Literal,
    OrderItem,
    Relation,
    ScalarSubquery,
    Select,
    SelectItem,
    SubqueryRef,
    TableRef,
    UnaryOp,
)
from repro.sql.normalizer import QueryKeys, sql_keys, token_keys
from repro.sql.printer import PrintedToken, print_select, print_select_tokens


@dataclass
class QueryUnit:
    """A semantically self-contained block of the decomposed query.

    ``tables`` and ``columns`` are :func:`extract_references` of ``query``;
    ``tokens`` are the ``(kind, value)`` pairs the printer wrote ``sql``
    with (its lex, ``None`` if it does not lex) and ``keys`` its retrieval
    keys.
    """

    name: str
    sql: str
    query: Select
    role: str  # "cte", "derived_table", "where_subquery", "scalar_subquery", "outer"
    tables: list[str] = field(default_factory=list)
    columns: list[str] = field(default_factory=list)
    depends_on: list[str] = field(default_factory=list)
    tokens: list[PrintedToken] | None = None
    keys: QueryKeys | None = None


@dataclass
class DecompositionResult:
    """Result of decomposing one query.

    ``original_query`` is the tree that was decomposed, left unchanged;
    :attr:`original_sql` prints it on first access.
    """

    original_query: Select
    decomposed_sql: str
    units: list[QueryUnit] = field(default_factory=list)
    was_nested: bool = False

    @cached_property
    def original_sql(self) -> str:
        """The decomposed query as printed before the rewrite."""
        return print_select(self.original_query)

    @property
    def outer_unit(self) -> QueryUnit:
        """The unit representing the outer (recomposed) query block."""
        return self.units[-1]

    @property
    def subquery_units(self) -> list[QueryUnit]:
        """Units other than the outer block."""
        return self.units[:-1]


class _Decomposer:
    """Stateful helper that lifts nested blocks into CTEs with fresh names."""

    def __init__(self) -> None:
        self._counter = 0
        self._units: list[QueryUnit] = []
        self._existing_names: set[str] = set()

    def decompose(self, select: Select) -> DecompositionResult:
        nested = is_nested(select)
        working = _copy_select(select)
        self._existing_names = {cte.name.lower() for cte in working.ctes}

        # Existing CTEs already are logical units: record them first.
        for cte in working.ctes:
            self._record_unit(cte.name, cte.query, role="cte")

        new_ctes: list[CTE] = []
        self._rewrite_select(working, new_ctes, rewrite_from=True)
        working.ctes = list(working.ctes) + new_ctes

        outer_unit = self._record_unit("main_query", working, role="outer")
        outer_unit.depends_on = [unit.name for unit in self._units if unit is not outer_unit]

        return DecompositionResult(
            original_query=select,
            decomposed_sql=outer_unit.sql,
            units=self._units,
            was_nested=nested,
        )

    # ------------------------------------------------------------------

    def _fresh_name(self, hint: str) -> str:
        base = hint.lower().strip("_") or "subquery"
        candidate = base
        while candidate.lower() in self._existing_names:
            self._counter += 1
            candidate = f"{base}_{self._counter}"
        self._existing_names.add(candidate.lower())
        return candidate

    def _record_unit(self, name: str, query: Select, role: str) -> QueryUnit:
        tables, columns = extract_references(query)
        sql, tokens = print_select_tokens(query)
        unit = QueryUnit(
            name=name,
            sql=sql,
            query=query,
            role=role,
            tables=tables,
            columns=columns,
            tokens=tokens,
            keys=token_keys(tokens) if tokens is not None else sql_keys(sql),
        )
        self._units.append(unit)
        return unit

    # ------------------------------------------------------------------
    # rewriting
    # ------------------------------------------------------------------

    def _rewrite_select(self, select: Select, ctes: list[CTE], rewrite_from: bool) -> None:
        if rewrite_from and select.from_relation is not None:
            select.from_relation = self._rewrite_relation(select.from_relation, ctes)

        select.where = self._rewrite_expression(select.where, ctes)
        select.having = self._rewrite_expression(select.having, ctes)
        for item in select.select_items:
            item.expression = self._rewrite_expression(item.expression, ctes) or item.expression
        select.group_by = [
            self._rewrite_expression(expression, ctes) or expression for expression in select.group_by
        ]
        for order_item in select.order_by:
            order_item.expression = (
                self._rewrite_expression(order_item.expression, ctes) or order_item.expression
            )
        if select.set_right is not None:
            self._rewrite_select(select.set_right, ctes, rewrite_from=True)

    def _rewrite_relation(self, relation: Relation, ctes: list[CTE]) -> Relation:
        if isinstance(relation, Join):
            relation.left = self._rewrite_relation(relation.left, ctes)
            relation.right = self._rewrite_relation(relation.right, ctes)
            if relation.condition is not None:
                relation.condition = (
                    self._rewrite_expression(relation.condition, ctes) or relation.condition
                )
            return relation
        if isinstance(relation, SubqueryRef):
            inner = relation.query
            self._rewrite_select(inner, ctes, rewrite_from=True)
            name = self._fresh_name(f"{relation.alias}_block")
            ctes.append(CTE(name=name, query=inner))
            self._record_unit(name, inner, role="derived_table")
            return TableRef(name=name, alias=relation.alias)
        return relation

    def _rewrite_expression(
        self, expression: Expression | None, ctes: list[CTE]
    ) -> Expression | None:
        if expression is None:
            return None
        if isinstance(expression, BinaryOp):
            expression.left = self._rewrite_expression(expression.left, ctes) or expression.left
            expression.right = self._rewrite_expression(expression.right, ctes) or expression.right
            return expression
        if isinstance(expression, UnaryOp):
            expression.operand = (
                self._rewrite_expression(expression.operand, ctes) or expression.operand
            )
            return expression
        if isinstance(expression, FunctionCall):
            expression.args = [
                self._rewrite_expression(arg, ctes) or arg for arg in expression.args
            ]
            return expression
        if isinstance(expression, Cast):
            expression.operand = (
                self._rewrite_expression(expression.operand, ctes) or expression.operand
            )
            return expression
        if isinstance(expression, CaseWhen):
            expression.conditions = [
                (
                    self._rewrite_expression(condition, ctes) or condition,
                    self._rewrite_expression(result, ctes) or result,
                )
                for condition, result in expression.conditions
            ]
            if expression.else_result is not None:
                expression.else_result = (
                    self._rewrite_expression(expression.else_result, ctes) or expression.else_result
                )
            return expression
        if isinstance(expression, (IsNull, Like, Between, InList)):
            expression.operand = (
                self._rewrite_expression(expression.operand, ctes) or expression.operand
            )
            return expression
        if isinstance(expression, InSubquery):
            inner = expression.subquery
            self._rewrite_select(inner, ctes, rewrite_from=True)
            self._record_unit(self._fresh_name("filter_set"), inner, role="where_subquery")
            return expression
        if isinstance(expression, Exists):
            inner = expression.subquery
            self._rewrite_select(inner, ctes, rewrite_from=True)
            self._record_unit(self._fresh_name("existence_check"), inner, role="where_subquery")
            return expression
        if isinstance(expression, ScalarSubquery):
            inner = expression.query
            self._rewrite_select(inner, ctes, rewrite_from=True)
            self._record_unit(self._fresh_name("scalar_value"), inner, role="scalar_subquery")
            return expression
        return expression


def _copy_select(select: Select) -> Select:
    """Copy a SELECT tree node by node; the decomposer rewrites the copy in place.

    Parsed trees share no nodes, so unlike ``copy.deepcopy`` this keeps no
    memo.  Leaves other than columns and literals (``*``, parameters) and
    node types not listed below go through ``copy.deepcopy``.
    """
    return Select(
        select_items=[
            SelectItem(_copy_expression(item.expression), item.alias)
            for item in select.select_items
        ],
        distinct=select.distinct,
        from_relation=_copy_relation(select.from_relation),
        where=_copy_expression(select.where),
        group_by=[_copy_expression(expression) for expression in select.group_by],
        having=_copy_expression(select.having),
        order_by=[
            OrderItem(_copy_expression(item.expression), item.ascending, item.nulls_first)
            for item in select.order_by
        ],
        limit=select.limit,
        offset=select.offset,
        ctes=[
            CTE(cte.name, _copy_select(cte.query), list(cte.column_names))
            for cte in select.ctes
        ],
        set_operator=select.set_operator,
        set_right=None if select.set_right is None else _copy_select(select.set_right),
    )


def _copy_relation(relation: Relation | None) -> Relation | None:
    kind = type(relation)
    if kind is TableRef:
        return TableRef(relation.name, relation.alias)
    if kind is Join:
        return Join(
            relation.join_type,
            _copy_relation(relation.left),
            _copy_relation(relation.right),
            _copy_expression(relation.condition),
            list(relation.using_columns),
        )
    if kind is SubqueryRef:
        return SubqueryRef(_copy_select(relation.query), relation.alias)
    return copy.deepcopy(relation)


def _copy_expression(node: Expression | None) -> Expression | None:
    kind = type(node)
    if kind is ColumnRef:
        return ColumnRef(node.name, node.table)
    if kind is Literal:
        return Literal(node.value)
    if kind is BinaryOp:
        return BinaryOp(node.op, _copy_expression(node.left), _copy_expression(node.right))
    if kind is FunctionCall:
        return FunctionCall(node.name, [_copy_expression(arg) for arg in node.args], node.distinct)
    if kind is UnaryOp:
        return UnaryOp(node.op, _copy_expression(node.operand))
    if kind is Cast:
        return Cast(_copy_expression(node.operand), node.target_type)
    if kind is CaseWhen:
        return CaseWhen(
            [
                (_copy_expression(condition), _copy_expression(result))
                for condition, result in node.conditions
            ],
            _copy_expression(node.else_result),
        )
    if kind is IsNull:
        return IsNull(_copy_expression(node.operand), node.negated)
    if kind is InList:
        values = [_copy_expression(value) for value in node.values]
        return InList(_copy_expression(node.operand), values, node.negated)
    if kind is InSubquery:
        subquery = _copy_select(node.subquery)
        return InSubquery(_copy_expression(node.operand), subquery, node.negated)
    if kind is Exists:
        return Exists(_copy_select(node.subquery), node.negated)
    if kind is ScalarSubquery:
        return ScalarSubquery(_copy_select(node.query))
    if kind is Between:
        return Between(
            _copy_expression(node.operand),
            _copy_expression(node.low),
            _copy_expression(node.high),
            node.negated,
        )
    if kind is Like:
        pattern = _copy_expression(node.pattern)
        return Like(_copy_expression(node.operand), pattern, node.negated)
    return copy.deepcopy(node)


def decompose(select_or_sql: Select | str) -> DecompositionResult:
    """Decompose a query into CTE-style logical units.

    Accepts either a parsed :class:`Select` or SQL text.
    """
    if isinstance(select_or_sql, str):
        from repro.sql.parser import parse_select

        select = parse_select(select_or_sql)
    else:
        select = select_or_sql
    return _Decomposer().decompose(select)
