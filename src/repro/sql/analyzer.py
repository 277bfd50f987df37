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
    BinaryOperator,
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
    Relation,
    ScalarSubquery,
    Select,
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

#: Comparisons and predicate nodes, each counted as one atomic predicate.
_COMPARISONS = frozenset(BinaryOperator(op) for op in ("=", "<>", "<", "<=", ">", ">="))
_PREDICATE_NODES = (InList, InSubquery, Like, Between, IsNull, Exists)


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


def _collect_expressions(
    roots: list[Expression | None], out: list[Expression], subqueries: list[Select]
) -> None:
    """Append each root and its nested expressions to ``out``, in preorder.

    Subqueries are not descended into: the SELECT of every IN/EXISTS/scalar
    subquery met goes to ``subqueries`` instead, also in preorder.
    """
    stack = roots[::-1]
    push = stack.append
    while stack:
        node = stack.pop()
        if node is None:
            continue
        out.append(node)
        if isinstance(node, (ColumnRef, Literal)):
            continue
        if isinstance(node, BinaryOp):
            stack.extend((node.right, node.left))
        elif isinstance(node, (UnaryOp, Cast, IsNull)):
            push(node.operand)
        elif isinstance(node, FunctionCall):
            stack.extend(reversed(node.args))
        elif isinstance(node, CaseWhen):
            push(node.else_result)
            for condition, result in reversed(node.conditions):
                push(result)
                push(condition)
        elif isinstance(node, InList):
            stack.extend(reversed(node.values))
            push(node.operand)
        elif isinstance(node, Between):
            stack.extend((node.high, node.low, node.operand))
        elif isinstance(node, Like):
            stack.extend((node.pattern, node.operand))
        elif isinstance(node, InSubquery):
            push(node.operand)
            subqueries.append(node.subquery)
        elif isinstance(node, Exists):
            subqueries.append(node.subquery)
        elif isinstance(node, ScalarSubquery):
            subqueries.append(node.query)


def _collect_relations(relation: Relation | None, out: list[Relation]) -> None:
    """Append every node of a FROM tree to ``out`` in preorder."""
    if relation is None:
        return
    out.append(relation)
    if isinstance(relation, Join):
        _collect_relations(relation.left, out)
        _collect_relations(relation.right, out)


def iter_expressions(expression: Expression | None) -> Iterator[Expression]:
    """Yield ``expression`` and every nested expression (not descending into subqueries)."""
    nodes: list[Expression] = []
    _collect_expressions([expression], nodes, [])
    return iter(nodes)


class _QueryWalk:
    """One pass over a query tree, collecting everything the metrics read.

    ``blocks`` holds ``select`` followed by every nested SELECT depth-first:
    per block its CTEs, then derived tables, then the subqueries of WHERE,
    HAVING, the select list, GROUP BY and ORDER BY, then the set-operation
    branch.  ``relations`` and ``expressions`` hold every FROM node and every
    expression of those blocks, block by block; a block's expressions are its
    WHERE, HAVING, select list, GROUP BY and ORDER BY, then its join
    conditions.  Subqueries inside join conditions are not blocks.
    """

    __slots__ = ("blocks", "relations", "expressions")

    def __init__(self, select: Select, include_ctes: bool = True) -> None:
        self.blocks: list[Select] = []
        self.relations: list[Relation] = []
        self.expressions: list[Expression] = []
        self._visit(select, include_ctes)

    def _visit(self, select: Select, include_ctes: bool) -> None:
        self.blocks.append(select)
        first_relation = len(self.relations)
        _collect_relations(select.from_relation, self.relations)
        relations = self.relations[first_relation:]

        subqueries: list[Select] = []
        sources = [select.where, select.having]
        sources += [item.expression for item in select.select_items]
        sources += select.group_by
        sources += [item.expression for item in select.order_by]
        _collect_expressions(sources, self.expressions, subqueries)
        conditions = [relation.condition for relation in relations if isinstance(relation, Join)]
        _collect_expressions(conditions, self.expressions, [])

        children = [cte.query for cte in select.ctes] if include_ctes else []
        children += [relation.query for relation in relations if isinstance(relation, SubqueryRef)]
        children += subqueries
        if select.set_right is not None:
            children.append(select.set_right)
        for child in children:
            self._visit(child, include_ctes)


def iter_subqueries(select: Select, include_ctes: bool = True) -> Iterator[Select]:
    """Yield every SELECT nested inside ``select`` (depth-first, excluding itself)."""
    return iter(_QueryWalk(select, include_ctes).blocks[1:])


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def _distinct(names: Iterator[str]) -> list[str]:
    """First spelling of every case-insensitively distinct name, in order."""
    first: dict[str, str] = {}
    for name in names:
        first.setdefault(name.lower(), name)
    return list(first.values())


def _tables(walk: _QueryWalk) -> list[str]:
    cte_names = {cte.name.lower() for block in walk.blocks for cte in block.ctes}
    return _distinct(
        relation.name
        for relation in walk.relations
        if isinstance(relation, TableRef) and relation.name.lower() not in cte_names
    )


def _columns(nodes: list[Expression]) -> list[str]:
    return _distinct(node.name for node in nodes if isinstance(node, ColumnRef))


def _aggregates(nodes: list[Expression]) -> list[str]:
    names = (node.upper_name for node in nodes if isinstance(node, FunctionCall))
    return [name for name in names if name in AGGREGATE_FUNCTIONS]


def _literals(nodes: list[Expression]) -> list[object]:
    return [node.value for node in nodes if isinstance(node, Literal) and node.value is not None]


def _predicates(nodes: list[Expression]) -> int:
    return sum(
        isinstance(node, _PREDICATE_NODES)
        or (isinstance(node, BinaryOp) and node.op in _COMPARISONS)
        for node in nodes
    )


def extract_tables(select: Select) -> list[str]:
    """Return the distinct base-table names referenced anywhere in the query.

    CTE names are excluded since they are query-local definitions rather than
    database tables.
    """
    return _tables(_QueryWalk(select))


def extract_columns(select: Select) -> list[str]:
    """Return distinct column names referenced anywhere in the query (unqualified)."""
    return _columns(_QueryWalk(select).expressions)


def extract_references(select: Select) -> tuple[list[str], list[str]]:
    """``(extract_tables(select), extract_columns(select))`` from one walk."""
    walk = _QueryWalk(select)
    return _tables(walk), _columns(walk.expressions)


def extract_aggregates(select: Select) -> list[str]:
    """Return every aggregate function call (as printed name) in the query."""
    return _aggregates(_QueryWalk(select).expressions)


def extract_literals(select: Select) -> list[object]:
    """Return literal values used in the query (filters, limits, etc.)."""
    return _literals(_QueryWalk(select).expressions)


def nesting_depth(select: Select) -> int:
    """Return the number of nested query blocks (subqueries + CTEs + set branches)."""
    return len(_QueryWalk(select).blocks) - 1


def count_joins(select: Select) -> int:
    """Return the total number of join operators across all query blocks."""
    return sum(isinstance(relation, Join) for relation in _QueryWalk(select).relations)


def count_predicates(select: Select) -> int:
    """Return the number of atomic predicates (comparisons, IN, LIKE, BETWEEN...)."""
    return _predicates(_QueryWalk(select).expressions)


# ---------------------------------------------------------------------------
# complexity metrics (Table 1)
# ---------------------------------------------------------------------------


def count_keywords(sql: str) -> int:
    """Count SQL keyword tokens in the raw query text."""
    return sum(1 for token in tokenize(sql) if token.kind is TokenKind.KEYWORD)


def count_tokens(sql: str) -> int:
    """Count all lexical tokens in the raw query text."""
    return len(tokenize(sql))


def analyze_query(
    sql: str | Select,
    select: Select | None = None,
    tokens: list[tuple[TokenKind, str]] | None = None,
) -> QueryProfile:
    """Compute the full static profile of a query.

    ``sql`` is the query text and ``select`` optionally its already-parsed
    tree, which saves the parse; the profile is the same either way.  Keyword
    and token counts always come from the lex of ``sql`` itself, so
    comments, spacing and keyword spelling count exactly as written;
    ``tokens`` may supply that lex as ``(kind, value)`` pairs.  A bare
    :class:`Select` passed as ``sql`` (no text at hand) is counted from the
    tokens of its printed form.
    """
    if isinstance(sql, Select):
        from repro.sql.printer import print_select_tokens

        select = sql
        sql, tokens = print_select_tokens(select)
    elif select is None:
        select = parse_select(sql)
    if tokens is None:
        kinds = [token.kind for token in tokenize(sql)]
    else:
        kinds = [kind for kind, _ in tokens]

    walk = _QueryWalk(select)
    tables = _tables(walk)
    columns = _columns(walk.expressions)
    aggregates = _aggregates(walk.expressions)

    complexity = QueryComplexity(
        keywords=kinds.count(TokenKind.KEYWORD),
        tokens=len(kinds),
        tables=len(tables),
        columns=len(columns),
        aggregations=len(aggregates),
        nestings=len(walk.blocks) - 1,
        joins=sum(isinstance(relation, Join) for relation in walk.relations),
        predicates=_predicates(walk.expressions),
        ctes=len(select.ctes),
        has_group_by=bool(select.group_by),
        has_order_by=bool(select.order_by),
        has_set_operation=any(block.set_operator is not None for block in walk.blocks),
    )
    return QueryProfile(
        complexity=complexity,
        tables=tables,
        columns=columns,
        aggregate_calls=aggregates,
        literals=_literals(walk.expressions),
    )


def is_nested(select: Select) -> bool:
    """Return True if the query contains any nested query blocks.

    This is the trigger condition for BenchPress's optional decomposition step
    (paper step 3.5).
    """
    return nesting_depth(select) > 0
