"""AST node definitions for the SQL dialect used throughout the library.

The AST is deliberately small but complete enough to represent the enterprise
queries BenchPress annotates: SELECT with joins, nested subqueries (in FROM,
WHERE and the select list), CTEs (``WITH``), set operations, aggregation with
GROUP BY / HAVING, ORDER BY / LIMIT, CASE expressions, CAST, IN/EXISTS/BETWEEN
/LIKE predicates, plus the DDL/DML needed by the execution engine
(CREATE TABLE, INSERT, DELETE, DROP TABLE).

Every node is an immutable-ish dataclass; tree walks are implemented by the
analyzer, printer, decomposer and executor rather than by methods on the nodes
themselves, which keeps this module dependency-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expression:
    """Base class for all expression nodes."""


@dataclass
class Literal(Expression):
    """A constant value: number, string, boolean or NULL."""

    value: object  # int | float | str | bool | None


@dataclass
class ColumnRef(Expression):
    """A (possibly qualified) column reference, e.g. ``t.user_id``."""

    name: str
    table: str | None = None


@dataclass
class Star(Expression):
    """The ``*`` or ``t.*`` projection."""

    table: str | None = None


@dataclass
class Parameter(Expression):
    """A bind parameter (``?`` or ``:name``)."""

    name: str


class BinaryOperator(Enum):
    """Binary operators supported by the expression evaluator."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    CONCAT = "||"
    EQ = "="
    NEQ = "<>"
    LT = "<"
    LTE = "<="
    GT = ">"
    GTE = ">="
    AND = "AND"
    OR = "OR"


class UnaryOperator(Enum):
    """Unary operators."""

    NEG = "-"
    POS = "+"
    NOT = "NOT"


@dataclass
class BinaryOp(Expression):
    """A binary operation ``left <op> right``."""

    op: BinaryOperator
    left: Expression
    right: Expression


@dataclass
class UnaryOp(Expression):
    """A unary operation ``<op> operand``."""

    op: UnaryOperator
    operand: Expression


@dataclass
class FunctionCall(Expression):
    """A scalar or aggregate function call.

    ``COUNT(*)`` is represented with a single :class:`Star` argument.
    """

    name: str
    args: list[Expression] = field(default_factory=list)
    distinct: bool = False

    @property
    def upper_name(self) -> str:
        """Function name in upper case (SQL function names are case-insensitive)."""
        return self.name.upper()


@dataclass
class Cast(Expression):
    """``CAST(expr AS type)``."""

    operand: Expression
    target_type: str


@dataclass
class CaseWhen(Expression):
    """A searched CASE expression."""

    conditions: list[tuple[Expression, Expression]] = field(default_factory=list)
    else_result: Expression | None = None


@dataclass
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False


@dataclass
class InList(Expression):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expression
    values: list[Expression] = field(default_factory=list)
    negated: bool = False


@dataclass
class InSubquery(Expression):
    """``expr [NOT] IN (SELECT ...)``."""

    operand: Expression
    subquery: "Select" = None  # type: ignore[assignment]
    negated: bool = False


@dataclass
class Exists(Expression):
    """``[NOT] EXISTS (SELECT ...)``."""

    subquery: "Select" = None  # type: ignore[assignment]
    negated: bool = False


@dataclass
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression = None  # type: ignore[assignment]
    high: Expression = None  # type: ignore[assignment]
    negated: bool = False


@dataclass
class Like(Expression):
    """``expr [NOT] LIKE pattern``."""

    operand: Expression
    pattern: Expression = None  # type: ignore[assignment]
    negated: bool = False


@dataclass
class ScalarSubquery(Expression):
    """A subquery used as a scalar expression, e.g. in the select list."""

    query: "Select" = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Relations (FROM clause items)
# ---------------------------------------------------------------------------


@dataclass
class TableRef:
    """A base-table reference with an optional alias."""

    name: str
    alias: str | None = None

    @property
    def effective_name(self) -> str:
        """Name the relation is visible under in the enclosing query."""
        return self.alias or self.name


@dataclass
class SubqueryRef:
    """A derived table: ``(SELECT ...) AS alias``."""

    query: "Select"
    alias: str

    @property
    def effective_name(self) -> str:
        """Alias the derived table is visible under."""
        return self.alias


class JoinType(Enum):
    """Join flavours supported by the parser and executor."""

    INNER = "INNER"
    LEFT = "LEFT"
    RIGHT = "RIGHT"
    FULL = "FULL"
    CROSS = "CROSS"


@dataclass
class Join:
    """A join between an accumulated left relation and a right relation."""

    join_type: JoinType
    left: "Relation"
    right: "Relation"
    condition: Expression | None = None
    using_columns: list[str] = field(default_factory=list)

    @property
    def effective_name(self) -> str:
        """Joins have no single visible name; used only for uniform typing."""
        return ""


Relation = Union[TableRef, SubqueryRef, Join]


# ---------------------------------------------------------------------------
# Query structure
# ---------------------------------------------------------------------------


@dataclass
class SelectItem:
    """One entry of the select list: an expression with an optional alias."""

    expression: Expression
    alias: str | None = None


@dataclass
class OrderItem:
    """One entry of ORDER BY."""

    expression: Expression
    ascending: bool = True
    nulls_first: bool | None = None


@dataclass
class CTE:
    """One common table expression of a WITH clause."""

    name: str
    query: "Select"
    column_names: list[str] = field(default_factory=list)


class SetOperator(Enum):
    """Set operations combining two SELECTs."""

    UNION = "UNION"
    UNION_ALL = "UNION ALL"
    INTERSECT = "INTERSECT"
    EXCEPT = "EXCEPT"


@dataclass
class Select:
    """A full SELECT statement (optionally with CTEs and set operations).

    When ``set_operator`` is set, ``set_right`` holds the right-hand SELECT and
    the remaining clauses describe the left-hand side.
    """

    select_items: list[SelectItem] = field(default_factory=list)
    distinct: bool = False
    from_relation: Relation | None = None
    where: Expression | None = None
    group_by: list[Expression] = field(default_factory=list)
    having: Expression | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    offset: int | None = None
    ctes: list[CTE] = field(default_factory=list)
    set_operator: SetOperator | None = None
    set_right: "Select | None" = None


# ---------------------------------------------------------------------------
# DDL / DML
# ---------------------------------------------------------------------------


@dataclass
class ColumnDef:
    """A column definition inside CREATE TABLE."""

    name: str
    type_name: str
    not_null: bool = False
    primary_key: bool = False
    unique: bool = False
    default: Expression | None = None
    references: tuple[str, str] | None = None  # (table, column)


@dataclass
class CreateTable:
    """``CREATE TABLE`` statement."""

    name: str
    columns: list[ColumnDef] = field(default_factory=list)
    primary_key: list[str] = field(default_factory=list)
    foreign_keys: list[tuple[list[str], str, list[str]]] = field(default_factory=list)
    if_not_exists: bool = False


@dataclass
class Insert:
    """``INSERT INTO`` statement with literal VALUES rows."""

    table: str
    columns: list[str] = field(default_factory=list)
    rows: list[list[Expression]] = field(default_factory=list)


@dataclass
class Delete:
    """``DELETE FROM`` statement with an optional WHERE filter."""

    table: str
    where: Expression | None = None


@dataclass
class DropTable:
    """``DROP TABLE [IF EXISTS]`` statement."""

    name: str
    if_exists: bool = False


Statement = Union[Select, CreateTable, Insert, Delete, DropTable]
