"""Render SQL ASTs back to SQL text.

The printer produces deterministic, normalised SQL, which the rest of the
library relies on for:

* round-tripping trees through the parser: the printed text of a SELECT
  parses back to an identical tree (same ``repr``), which lets the
  annotation drain hand the decomposer's unit trees downstream instead of
  parsing their text again,
* presenting decomposed CTEs to annotators,
* exact-match comparison of normalised SQL strings.
"""

from __future__ import annotations

from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    BinaryOperator,
    Cast,
    CaseWhen,
    ColumnDef,
    ColumnRef,
    CreateTable,
    Exists,
    Expression,
    FunctionCall,
    Insert,
    InList,
    InSubquery,
    IsNull,
    Join,
    JoinType,
    Like,
    Literal,
    OrderItem,
    Parameter,
    Relation,
    ScalarSubquery,
    Select,
    SelectItem,
    Star,
    Statement,
    SubqueryRef,
    TableRef,
    UnaryOp,
    UnaryOperator,
)
from repro.sql.lexer import is_bare_identifier


def print_statement(statement: Statement) -> str:
    """Render any supported statement to SQL text."""
    if isinstance(statement, Select):
        return print_select(statement)
    if isinstance(statement, CreateTable):
        return _print_create_table(statement)
    if isinstance(statement, Insert):
        return _print_insert(statement)
    raise TypeError(f"unsupported statement type: {type(statement).__name__}")


def print_select(select: Select) -> str:
    """Render a SELECT statement (including WITH clause and set operations)."""
    parts: list[str] = []
    if select.ctes:
        cte_parts = []
        for cte in select.ctes:
            columns = f" ({_names(cte.column_names)})" if cte.column_names else ""
            cte_parts.append(f"{_name(cte.name)}{columns} AS ({print_select(cte.query)})")
        parts.append("WITH " + ", ".join(cte_parts))
    parts.append(_print_select_body(select))
    return " ".join(parts)


def _print_select_body(select: Select) -> str:
    clauses: list[str] = []
    distinct = "DISTINCT " if select.distinct else ""
    items = ", ".join(_print_select_item(item) for item in select.select_items)
    clauses.append(f"SELECT {distinct}{items}")
    if select.from_relation is not None:
        clauses.append(f"FROM {print_relation(select.from_relation)}")
    if select.where is not None:
        clauses.append(f"WHERE {print_expression(select.where)}")
    if select.group_by:
        clauses.append("GROUP BY " + ", ".join(print_expression(e) for e in select.group_by))
    if select.having is not None:
        clauses.append(f"HAVING {print_expression(select.having)}")

    body = " ".join(clauses)

    if select.set_operator is not None and select.set_right is not None:
        body = f"{body} {select.set_operator.value} {_print_select_body(select.set_right)}"

    trailing: list[str] = []
    if select.order_by:
        trailing.append("ORDER BY " + ", ".join(_print_order_item(item) for item in select.order_by))
    if select.limit is not None:
        limit_clause = f"LIMIT {select.limit}"
        if select.offset is not None:
            limit_clause += f" OFFSET {select.offset}"
        trailing.append(limit_clause)
    if trailing:
        body = body + " " + " ".join(trailing)
    return body


def _print_select_item(item: SelectItem) -> str:
    text = print_expression(item.expression)
    if item.alias:
        return f"{text} AS {_name(item.alias)}"
    return text


def _print_order_item(item: OrderItem) -> str:
    text = print_expression(item.expression)
    text += " ASC" if item.ascending else " DESC"
    if item.nulls_first is True:
        text += " NULLS FIRST"
    elif item.nulls_first is False:
        text += " NULLS LAST"
    return text


def print_relation(relation: Relation) -> str:
    """Render a FROM-clause relation."""
    if isinstance(relation, TableRef):
        if relation.alias:
            return f"{_name(relation.name)} AS {_name(relation.alias)}"
        return _name(relation.name)
    if isinstance(relation, SubqueryRef):
        return f"({print_select(relation.query)}) AS {_name(relation.alias)}"
    if isinstance(relation, Join):
        left = print_relation(relation.left)
        right = print_relation(relation.right)
        if relation.join_type is JoinType.CROSS and relation.condition is None and not relation.using_columns:
            return f"{left} CROSS JOIN {right}"
        keyword = {
            JoinType.INNER: "JOIN",
            JoinType.LEFT: "LEFT JOIN",
            JoinType.RIGHT: "RIGHT JOIN",
            JoinType.FULL: "FULL JOIN",
            JoinType.CROSS: "CROSS JOIN",
        }[relation.join_type]
        text = f"{left} {keyword} {right}"
        if relation.condition is not None:
            text += f" ON {print_expression(relation.condition)}"
        elif relation.using_columns:
            text += f" USING ({_names(relation.using_columns)})"
        return text
    raise TypeError(f"unsupported relation type: {type(relation).__name__}")


_NEEDS_PARENS = (BinaryOp,)


def print_expression(expression: Expression) -> str:
    """Render an expression to SQL text."""
    if isinstance(expression, Literal):
        return _print_literal(expression.value)
    if isinstance(expression, ColumnRef):
        if expression.table:
            return f"{_name(expression.table)}.{_name(expression.name)}"
        return _name(expression.name)
    if isinstance(expression, Star):
        return f"{_name(expression.table)}.*" if expression.table else "*"
    if isinstance(expression, Parameter):
        return expression.name
    if isinstance(expression, BinaryOp):
        left = _print_operand(expression.left)
        right = _print_operand(expression.right)
        return f"{left} {expression.op.value} {right}"
    if isinstance(expression, UnaryOp):
        operand = _print_operand(expression.operand)
        if expression.op is UnaryOperator.NOT:
            return f"NOT {operand}"
        return f"{expression.op.value}{operand}"
    if isinstance(expression, FunctionCall):
        if len(expression.args) == 1 and isinstance(expression.args[0], Star) and expression.args[0].table is None:
            inner = "*"
        else:
            inner = ", ".join(print_expression(arg) for arg in expression.args)
        distinct = "DISTINCT " if expression.distinct else ""
        return f"{expression.upper_name}({distinct}{inner})"
    if isinstance(expression, Cast):
        return f"CAST({print_expression(expression.operand)} AS {expression.target_type})"
    if isinstance(expression, CaseWhen):
        parts = ["CASE"]
        for condition, result in expression.conditions:
            parts.append(f"WHEN {print_expression(condition)} THEN {print_expression(result)}")
        if expression.else_result is not None:
            parts.append(f"ELSE {print_expression(expression.else_result)}")
        parts.append("END")
        return " ".join(parts)
    if isinstance(expression, IsNull):
        negation = " NOT" if expression.negated else ""
        return f"{_print_operand(expression.operand)} IS{negation} NULL"
    if isinstance(expression, InList):
        negation = "NOT " if expression.negated else ""
        values = ", ".join(print_expression(v) for v in expression.values)
        return f"{_print_operand(expression.operand)} {negation}IN ({values})"
    if isinstance(expression, InSubquery):
        negation = "NOT " if expression.negated else ""
        return f"{_print_operand(expression.operand)} {negation}IN ({print_select(expression.subquery)})"
    if isinstance(expression, Exists):
        negation = "NOT " if expression.negated else ""
        return f"{negation}EXISTS ({print_select(expression.subquery)})"
    if isinstance(expression, Between):
        negation = "NOT " if expression.negated else ""
        return (
            f"{_print_operand(expression.operand)} {negation}BETWEEN "
            f"{_print_operand(expression.low)} AND {_print_operand(expression.high)}"
        )
    if isinstance(expression, Like):
        negation = "NOT " if expression.negated else ""
        return f"{_print_operand(expression.operand)} {negation}LIKE {print_expression(expression.pattern)}"
    if isinstance(expression, ScalarSubquery):
        return f"({print_select(expression.query)})"
    raise TypeError(f"unsupported expression type: {type(expression).__name__}")


def _print_operand(expression: Expression) -> str:
    """Print an operand, parenthesising compound operands to preserve grouping."""
    text = print_expression(expression)
    if isinstance(expression, _NEEDS_PARENS):
        return f"({text})"
    return text


def _name(name: str) -> str:
    """An identifier as text the lexer reads back as that same name.

    Bare when it already lexes as itself, else double-quoted; a name holding
    a double quote is backtick-quoted instead, and a name holding both quote
    characters is double-quoted with each ``"`` doubled, the standard SQL
    spelling, which the lexer reads back as one ``"``.
    """
    if is_bare_identifier(name):
        return name
    if '"' not in name:
        return f'"{name}"'
    if "`" not in name:
        return f"`{name}`"
    return '"' + name.replace('"', '""') + '"'


def _names(names: list[str]) -> str:
    return ", ".join(_name(name) for name in names)


def _print_literal(value: object) -> str:
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, float) and value.is_integer():
        return str(value)
    return str(value)


def _print_create_table(statement: CreateTable) -> str:
    elements = [_print_column_def(column) for column in statement.columns]
    if statement.primary_key:
        elements.append(f"PRIMARY KEY ({', '.join(statement.primary_key)})")
    for local_columns, ref_table, ref_columns in statement.foreign_keys:
        clause = f"FOREIGN KEY ({', '.join(local_columns)}) REFERENCES {ref_table}"
        if ref_columns:
            clause += f" ({', '.join(ref_columns)})"
        elements.append(clause)
    if_not_exists = "IF NOT EXISTS " if statement.if_not_exists else ""
    return f"CREATE TABLE {if_not_exists}{statement.name} ({', '.join(elements)})"


def _print_column_def(column: ColumnDef) -> str:
    parts = [column.name, column.type_name]
    if column.primary_key:
        parts.append("PRIMARY KEY")
    elif column.not_null:
        parts.append("NOT NULL")
    if column.unique:
        parts.append("UNIQUE")
    if column.default is not None:
        parts.append(f"DEFAULT {print_expression(column.default)}")
    if column.references is not None:
        ref_table, ref_column = column.references
        clause = f"REFERENCES {ref_table}"
        if ref_column:
            clause += f" ({ref_column})"
        parts.append(clause)
    return " ".join(parts)


def _print_insert(statement: Insert) -> str:
    columns = f" ({', '.join(statement.columns)})" if statement.columns else ""
    rows = ", ".join(
        "(" + ", ".join(print_expression(value) for value in row) + ")" for row in statement.rows
    )
    return f"INSERT INTO {statement.table}{columns} VALUES {rows}"
