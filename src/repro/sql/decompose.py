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

from repro.sql.analyzer import extract_columns, extract_tables, is_nested
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    Cast,
    CaseWhen,
    CTE,
    Exists,
    Expression,
    FunctionCall,
    InList,
    InSubquery,
    IsNull,
    Join,
    Like,
    Relation,
    ScalarSubquery,
    Select,
    SubqueryRef,
    TableRef,
    UnaryOp,
)
from repro.sql.printer import print_select


@dataclass
class QueryUnit:
    """A semantically self-contained block of the decomposed query."""

    name: str
    sql: str
    query: Select
    role: str  # "cte", "derived_table", "where_subquery", "scalar_subquery", "outer"
    tables: list[str] = field(default_factory=list)
    columns: list[str] = field(default_factory=list)
    depends_on: list[str] = field(default_factory=list)


@dataclass
class DecompositionResult:
    """Result of decomposing one query."""

    original_sql: str
    decomposed_sql: str
    units: list[QueryUnit] = field(default_factory=list)
    was_nested: bool = False

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
        original_sql = print_select(select)
        nested = is_nested(select)
        working = copy.deepcopy(select)
        self._existing_names = {cte.name.lower() for cte in working.ctes}

        # Existing CTEs already are logical units: record them first.
        for cte in working.ctes:
            self._record_unit(cte.name, cte.query, role="cte")

        new_ctes: list[CTE] = []
        self._rewrite_select(working, new_ctes, rewrite_from=True)
        working.ctes = list(working.ctes) + new_ctes

        outer_unit = self._record_unit("main_query", working, role="outer")
        outer_unit.depends_on = [unit.name for unit in self._units if unit is not outer_unit]

        decomposed_sql = print_select(working)
        return DecompositionResult(
            original_sql=original_sql,
            decomposed_sql=decomposed_sql,
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
        unit = QueryUnit(
            name=name,
            sql=print_select(query),
            query=query,
            role=role,
            tables=extract_tables(query),
            columns=extract_columns(query),
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
