"""Static analysis over SQL ASTs.

Provides the building blocks used throughout BenchPress:

* :func:`extract_tables` / :func:`extract_columns` — schema linking inputs and
  the retrieval step's "relevant tables" (paper step 4),
* :func:`analyze_query` — the query-level complexity metrics reported in
  Table 1 of the paper (#keywords, #tokens, #tables, #columns, #aggregations,
  #nestings),
* :func:`iter_subqueries` — enumeration of nested subqueries, used by the
  decomposition step and by the complexity metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    Cast,
    CaseWhen,
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
    Parameter,
    Relation,
    ScalarSubquery,
    Select,
    Star,
    SubqueryRef,
    TableRef,
    UnaryOp,
)
from repro.sql.lexer import tokenize
from repro.sql.parser import parse_select
from repro.sql.tokens import TokenKind

#: SQL aggregate function names recognised by the analyzer and the engine.
AGGREGATE_FUNCTIONS: frozenset[str] = frozenset(
    {"COUNT", "SUM", "AVG", "MIN", "MAX", "GROUP_CONCAT", "STDDEV", "VARIANCE", "MEDIAN"}
)


@dataclass
class QueryComplexity:
    """Query-level complexity metrics (one row of the paper's Table 1)."""

    keywords: int = 0
    tokens: int = 0
    tables: int = 0
    columns: int = 0
    aggregations: int = 0
    nestings: int = 0
    joins: int = 0
    predicates: int = 0
    ctes: int = 0
    has_group_by: bool = False
    has_order_by: bool = False
    has_set_operation: bool = False

    def as_dict(self) -> dict[str, float]:
        """Return the metrics as a plain dict (handy for aggregation)."""
        return {
            "keywords": self.keywords,
            "tokens": self.tokens,
            "tables": self.tables,
            "columns": self.columns,
            "aggregations": self.aggregations,
            "nestings": self.nestings,
            "joins": self.joins,
            "predicates": self.predicates,
            "ctes": self.ctes,
        }


@dataclass
class QueryProfile:
    """Full static profile of a query: complexity plus referenced objects."""

    complexity: QueryComplexity
    tables: list[str] = field(default_factory=list)
    columns: list[str] = field(default_factory=list)
    aggregate_calls: list[str] = field(default_factory=list)
    literals: list[object] = field(default_factory=list)


# ---------------------------------------------------------------------------
# expression / relation walking
# ---------------------------------------------------------------------------


def iter_expressions(expression: Expression | None) -> Iterator[Expression]:
    """Yield ``expression`` and every nested expression (not descending into subqueries)."""
    if expression is None:
        return
    yield expression
    if isinstance(expression, BinaryOp):
        yield from iter_expressions(expression.left)
        yield from iter_expressions(expression.right)
    elif isinstance(expression, UnaryOp):
        yield from iter_expressions(expression.operand)
    elif isinstance(expression, FunctionCall):
        for arg in expression.args:
            yield from iter_expressions(arg)
    elif isinstance(expression, Cast):
        yield from iter_expressions(expression.operand)
    elif isinstance(expression, CaseWhen):
        for condition, result in expression.conditions:
            yield from iter_expressions(condition)
            yield from iter_expressions(result)
        yield from iter_expressions(expression.else_result)
    elif isinstance(expression, IsNull):
        yield from iter_expressions(expression.operand)
    elif isinstance(expression, InList):
        yield from iter_expressions(expression.operand)
        for value in expression.values:
            yield from iter_expressions(value)
    elif isinstance(expression, InSubquery):
        yield from iter_expressions(expression.operand)
    elif isinstance(expression, Between):
        yield from iter_expressions(expression.operand)
        yield from iter_expressions(expression.low)
        yield from iter_expressions(expression.high)
    elif isinstance(expression, Like):
        yield from iter_expressions(expression.operand)
        yield from iter_expressions(expression.pattern)


def iter_expression_subqueries(expression: Expression | None) -> Iterator[Select]:
    """Yield SELECTs embedded in an expression (IN/EXISTS/scalar subqueries)."""
    for node in iter_expressions(expression):
        if isinstance(node, InSubquery):
            yield node.subquery
        elif isinstance(node, Exists):
            yield node.subquery
        elif isinstance(node, ScalarSubquery):
            yield node.query


def iter_relations(relation: Relation | None) -> Iterator[Relation]:
    """Yield every relation node in a FROM tree (joins, tables, derived tables)."""
    if relation is None:
        return
    yield relation
    if isinstance(relation, Join):
        yield from iter_relations(relation.left)
        yield from iter_relations(relation.right)


def iter_subqueries(select: Select, include_ctes: bool = True) -> Iterator[Select]:
    """Yield every SELECT nested inside ``select`` (depth-first, excluding itself)."""
    if include_ctes:
        for cte in select.ctes:
            yield cte.query
            yield from iter_subqueries(cte.query, include_ctes)

    for relation in iter_relations(select.from_relation):
        if isinstance(relation, SubqueryRef):
            yield relation.query
            yield from iter_subqueries(relation.query, include_ctes)

    expression_sources: list[Expression | None] = [select.where, select.having]
    expression_sources.extend(item.expression for item in select.select_items)
    expression_sources.extend(select.group_by)
    expression_sources.extend(item.expression for item in select.order_by)
    for source in expression_sources:
        for subquery in iter_expression_subqueries(source):
            yield subquery
            yield from iter_subqueries(subquery, include_ctes)

    if select.set_right is not None:
        yield select.set_right
        yield from iter_subqueries(select.set_right, include_ctes)


def _all_expressions(select: Select) -> Iterator[Expression]:
    """Yield every expression reachable from ``select`` including nested subqueries."""
    queries = [select]
    queries.extend(iter_subqueries(select))
    for query in queries:
        sources: list[Expression | None] = [query.where, query.having]
        sources.extend(item.expression for item in query.select_items)
        sources.extend(query.group_by)
        sources.extend(item.expression for item in query.order_by)
        for relation in iter_relations(query.from_relation):
            if isinstance(relation, Join) and relation.condition is not None:
                sources.append(relation.condition)
        for source in sources:
            yield from iter_expressions(source)


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def extract_tables(select: Select) -> list[str]:
    """Return the distinct base-table names referenced anywhere in the query.

    CTE names are excluded since they are query-local definitions rather than
    database tables.
    """
    cte_names = {cte.name.lower() for cte in select.ctes}
    for subquery in iter_subqueries(select):
        cte_names.update(cte.name.lower() for cte in subquery.ctes)

    tables: list[str] = []
    seen: set[str] = set()
    queries = [select]
    queries.extend(iter_subqueries(select))
    for query in queries:
        for relation in iter_relations(query.from_relation):
            if isinstance(relation, TableRef):
                key = relation.name.lower()
                if key not in seen and key not in cte_names:
                    seen.add(key)
                    tables.append(relation.name)
    return tables


def extract_columns(select: Select) -> list[str]:
    """Return distinct column names referenced anywhere in the query (unqualified)."""
    columns: list[str] = []
    seen: set[str] = set()
    for expression in _all_expressions(select):
        if isinstance(expression, ColumnRef):
            key = expression.name.lower()
            if key not in seen:
                seen.add(key)
                columns.append(expression.name)
    return columns


def extract_aggregates(select: Select) -> list[str]:
    """Return every aggregate function call (as printed name) in the query."""
    calls: list[str] = []
    for expression in _all_expressions(select):
        if isinstance(expression, FunctionCall) and expression.upper_name in AGGREGATE_FUNCTIONS:
            calls.append(expression.upper_name)
    return calls


def extract_literals(select: Select) -> list[object]:
    """Return literal values used in the query (filters, limits, etc.)."""
    return [
        expression.value
        for expression in _all_expressions(select)
        if isinstance(expression, Literal) and expression.value is not None
    ]


def nesting_depth(select: Select) -> int:
    """Return the number of nested query blocks (subqueries + CTEs + set branches)."""
    return sum(1 for _ in iter_subqueries(select))


def count_joins(select: Select) -> int:
    """Return the total number of join operators across all query blocks."""
    total = 0
    queries = [select]
    queries.extend(iter_subqueries(select))
    for query in queries:
        for relation in iter_relations(query.from_relation):
            if isinstance(relation, Join):
                total += 1
    return total


def count_predicates(select: Select) -> int:
    """Return the number of atomic predicates (comparisons, IN, LIKE, BETWEEN...)."""
    from repro.sql.ast_nodes import BinaryOperator

    comparison_ops = {
        BinaryOperator.EQ,
        BinaryOperator.NEQ,
        BinaryOperator.LT,
        BinaryOperator.LTE,
        BinaryOperator.GT,
        BinaryOperator.GTE,
    }
    total = 0
    for expression in _all_expressions(select):
        if isinstance(expression, BinaryOp) and expression.op in comparison_ops:
            total += 1
        elif isinstance(expression, (InList, InSubquery, Like, Between, IsNull, Exists)):
            total += 1
    return total


# ---------------------------------------------------------------------------
# complexity metrics (Table 1)
# ---------------------------------------------------------------------------


def count_keywords(sql: str) -> int:
    """Count SQL keyword tokens in the raw query text."""
    return sum(1 for token in tokenize(sql) if token.kind is TokenKind.KEYWORD)


def count_tokens(sql: str) -> int:
    """Count all lexical tokens in the raw query text."""
    return len(tokenize(sql))


def analyze_query(sql: str | Select, select: Select | None = None) -> QueryProfile:
    """Compute the full static profile of a query.

    ``sql`` is the query text and ``select`` optionally its already-parsed
    tree, which saves the parse; the profile is the same either way.  Keyword
    and token counts always come from lexing ``sql`` itself, so comments,
    spacing and keyword spelling count exactly as written.  A bare
    :class:`Select` passed as ``sql`` (no text at hand) is counted from its
    printed form.
    """
    if isinstance(sql, Select):
        from repro.sql.printer import print_select

        select = sql
        sql = print_select(select)
    elif select is None:
        select = parse_select(sql)
    tokens = tokenize(sql)

    tables = extract_tables(select)
    columns = extract_columns(select)
    aggregates = extract_aggregates(select)

    has_set_operation = select.set_operator is not None or any(
        subquery.set_operator is not None for subquery in iter_subqueries(select)
    )

    complexity = QueryComplexity(
        keywords=sum(1 for token in tokens if token.kind is TokenKind.KEYWORD),
        tokens=len(tokens),
        tables=len(tables),
        columns=len(columns),
        aggregations=len(aggregates),
        nestings=nesting_depth(select),
        joins=count_joins(select),
        predicates=count_predicates(select),
        ctes=len(select.ctes),
        has_group_by=bool(select.group_by),
        has_order_by=bool(select.order_by),
        has_set_operation=has_set_operation,
    )
    return QueryProfile(
        complexity=complexity,
        tables=tables,
        columns=columns,
        aggregate_calls=aggregates,
        literals=extract_literals(select),
    )


def is_nested(select: Select) -> bool:
    """Return True if the query contains any nested query blocks.

    This is the trigger condition for BenchPress's optional decomposition step
    (paper step 3.5).
    """
    return nesting_depth(select) > 0
