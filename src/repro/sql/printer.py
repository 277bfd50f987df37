"""Render SQL ASTs back to SQL text.

The printer produces deterministic, normalised SQL, which the rest of the
library relies on for:

* round-tripping trees through the parser: the printed text of a SELECT
  parses back to an identical tree (same ``repr``), which lets the
  annotation drain hand the decomposer's unit trees downstream instead of
  parsing their text again,
* presenting decomposed CTEs to annotators.

A SELECT or expression is printed as a stream of tokens: each token's
``(kind, value)`` pair, as :func:`~repro.sql.lexer.tokenize` reads it back
from the text, together with its spelling.  The text is the spellings joined
with single spaces, except after an opening parenthesis, a dot or a prefix
sign and before a closing parenthesis, a comma, a dot or a call's opening
parenthesis.  A minus sign before text that starts with one keeps its space,
as ``--`` would start a comment.  :func:`print_select_tokens` hands out both, so a caller that
needs the tokens of a printed query (its retrieval keys) does not lex the
text again.
"""

from __future__ import annotations

import re

from repro.errors import LexError
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
    JoinType,
    Like,
    Literal,
    OrderItem,
    Parameter,
    Relation,
    ScalarSubquery,
    Select,
    Star,
    SubqueryRef,
    TableRef,
    UnaryOp,
    UnaryOperator,
)
from repro.sql.lexer import tokenize, word_kind
from repro.sql.tokens import TokenKind

#: One printed token: its lexical kind and value.
PrintedToken = tuple[TokenKind, str]

_KEYWORD = TokenKind.KEYWORD
_IDENTIFIER = TokenKind.IDENTIFIER
_QUOTED_IDENTIFIER = TokenKind.QUOTED_IDENTIFIER
_NUMBER = TokenKind.NUMBER
_STRING = TokenKind.STRING
_OPERATOR = TokenKind.OPERATOR
_PUNCTUATION = TokenKind.PUNCTUATION

#: ``str`` of an ``int`` or a finite ``float``: one NUMBER token.
_NUMBER_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?")

_BINARY_KINDS = {
    op: _KEYWORD if op in (BinaryOperator.AND, BinaryOperator.OR) else _OPERATOR
    for op in BinaryOperator
}

_JOIN_KEYWORDS = {
    JoinType.INNER: ("JOIN",),
    JoinType.LEFT: ("LEFT", "JOIN"),
    JoinType.RIGHT: ("RIGHT", "JOIN"),
    JoinType.FULL: ("FULL", "JOIN"),
    JoinType.CROSS: ("CROSS", "JOIN"),
}


def print_select(select: Select) -> str:
    """Render a SELECT statement (including WITH clause and set operations)."""
    printer = _Printer()
    printer.select(select)
    return "".join(printer.parts)


def print_select_tokens(select: Select) -> tuple[str, list[PrintedToken] | None]:
    """The text of :func:`print_select` and the tokens it lexes to.

    The tokens equal ``[(t.kind, t.value) for t in tokenize(text)]`` for
    every tree whose text parses back to it.  They are ``None`` when the
    text does not lex at all (a function or type name holding characters
    the lexer rejects).
    """
    printer = _Printer()
    printer.select(select)
    return "".join(printer.parts), printer.tokens if printer.lexes else None


def print_expression(expression: Expression) -> str:
    """Render an expression to SQL text."""
    printer = _Printer()
    printer.expression(expression)
    return "".join(printer.parts)


class _Printer:
    """Prints one tree as a token stream and the text that spells it.

    ``glued`` drops the space before the next token; it is set at the start
    and after an opening parenthesis, a dot and a prefix sign.
    """

    __slots__ = ("tokens", "parts", "glued", "lexes")

    def __init__(self) -> None:
        self.tokens: list[PrintedToken] = []
        self.parts: list[str] = []
        self.glued = True
        self.lexes = True

    # -- tokens ---------------------------------------------------------

    def add(self, kind: TokenKind, value: str, text: str | None = None) -> None:
        """One token, spelt ``text`` (default: its value)."""
        self.tokens.append((kind, value))
        if text is None:
            text = value
        self.parts.append(text if self.glued else " " + text)
        self.glued = False

    def keywords(self, *words: str) -> None:
        for word in words:
            self.add(_KEYWORD, word)

    def attach(self, char: str) -> None:
        """Punctuation written directly after the previous token."""
        self.tokens.append((_PUNCTUATION, char))
        self.parts.append(char)
        self.glued = False

    def open(self) -> None:
        self.add(_PUNCTUATION, "(")
        self.glued = True

    def open_call(self) -> None:
        self.attach("(")
        self.glued = True

    def name(self, name: str) -> None:
        """An identifier as text the lexer reads back as that same name.

        Bare when it already lexes as itself, else double-quoted; a name
        holding a double quote is backtick-quoted instead, and a name holding
        both quote characters is double-quoted with each ``"`` doubled, the
        standard SQL spelling, which the lexer reads back as one ``"``.
        """
        if word_kind(name) is _IDENTIFIER:
            self.add(_IDENTIFIER, name)
        elif '"' not in name:
            self.add(_QUOTED_IDENTIFIER, name, f'"{name}"')
        elif "`" not in name:
            self.add(_QUOTED_IDENTIFIER, name, f"`{name}`")
        else:
            self.add(_QUOTED_IDENTIFIER, name, '"' + name.replace('"', '""') + '"')

    def names(self, names: list[str]) -> None:
        """A parenthesised name list."""
        self.open()
        for index, name in enumerate(names):
            if index:
                self.attach(",")
            self.name(name)
        self.attach(")")

    def verbatim(self, text: str) -> None:
        """Text printed as it is: a number, a function or type name, a parameter."""
        if _NUMBER_RE.fullmatch(text):
            self.add(_NUMBER, text)
            return
        kind = word_kind(text)
        if kind is not None:
            self.add(kind, text.upper() if kind is _KEYWORD else text)
            return
        # Anything else (``DECIMAL(10,2)``, ``-5``, ``inf``, ``:name``) is
        # rare enough to lex on its own; it always sits between separators.
        try:
            self.tokens.extend((token.kind, token.value) for token in tokenize(text))
        except LexError:
            self.lexes = False
        self.parts.append(text if self.glued else " " + text)
        self.glued = False

    # -- statements -----------------------------------------------------

    def select(self, select: Select) -> None:
        if select.ctes:
            self.keywords("WITH")
            for index, cte in enumerate(select.ctes):
                if index:
                    self.attach(",")
                self.name(cte.name)
                if cte.column_names:
                    self.names(cte.column_names)
                self.keywords("AS")
                self.subquery(cte.query)
        self.select_body(select)

    def select_body(self, select: Select) -> None:
        self.keywords("SELECT")
        if select.distinct:
            self.keywords("DISTINCT")
        for index, item in enumerate(select.select_items):
            if index:
                self.attach(",")
            self.expression(item.expression)
            if item.alias:
                self.keywords("AS")
                self.name(item.alias)
        if select.from_relation is not None:
            self.keywords("FROM")
            self.relation(select.from_relation)
        if select.where is not None:
            self.keywords("WHERE")
            self.expression(select.where)
        if select.group_by:
            self.keywords("GROUP", "BY")
            self.expressions(select.group_by)
        if select.having is not None:
            self.keywords("HAVING")
            self.expression(select.having)
        if select.set_operator is not None and select.set_right is not None:
            self.keywords(*select.set_operator.value.split())
            self.select_body(select.set_right)
        if select.order_by:
            self.keywords("ORDER", "BY")
            for index, item in enumerate(select.order_by):
                if index:
                    self.attach(",")
                self.order_item(item)
        if select.limit is not None:
            self.keywords("LIMIT")
            self.verbatim(str(select.limit))
            if select.offset is not None:
                self.keywords("OFFSET")
                self.verbatim(str(select.offset))

    def order_item(self, item: OrderItem) -> None:
        self.expression(item.expression)
        self.keywords("ASC" if item.ascending else "DESC")
        if item.nulls_first is True:
            self.keywords("NULLS", "FIRST")
        elif item.nulls_first is False:
            self.keywords("NULLS", "LAST")

    def relation(self, relation: Relation) -> None:
        if isinstance(relation, TableRef):
            self.name(relation.name)
            if relation.alias:
                self.keywords("AS")
                self.name(relation.alias)
        elif isinstance(relation, SubqueryRef):
            self.subquery(relation.query)
            self.keywords("AS")
            self.name(relation.alias)
        elif isinstance(relation, Join):
            self.relation(relation.left)
            self.keywords(*_JOIN_KEYWORDS[relation.join_type])
            self.relation(relation.right)
            if relation.condition is not None:
                self.keywords("ON")
                self.expression(relation.condition)
            elif relation.using_columns:
                self.keywords("USING")
                self.names(relation.using_columns)
        else:
            raise TypeError(f"unsupported relation type: {type(relation).__name__}")

    # -- expressions ----------------------------------------------------

    def expressions(self, expressions: list[Expression]) -> None:
        for index, expression in enumerate(expressions):
            if index:
                self.attach(",")
            self.expression(expression)

    def operand(self, expression: Expression) -> None:
        """An operand, parenthesised when compound to preserve grouping."""
        if isinstance(expression, BinaryOp):
            self.open()
            self.expression(expression)
            self.attach(")")
        else:
            self.expression(expression)

    def subquery(self, select: Select) -> None:
        self.open()
        self.select(select)
        self.attach(")")

    def expression(self, expression: Expression) -> None:
        if isinstance(expression, Literal):
            self.literal(expression.value)
        elif isinstance(expression, ColumnRef):
            if expression.table:
                self.name(expression.table)
                self.attach(".")
                self.glued = True
            self.name(expression.name)
        elif isinstance(expression, Star):
            if expression.table:
                self.name(expression.table)
                self.attach(".")
                self.glued = True
            self.add(_OPERATOR, "*")
        elif isinstance(expression, Parameter):
            self.verbatim(expression.name)
        elif isinstance(expression, BinaryOp):
            self.operand(expression.left)
            self.add(_BINARY_KINDS[expression.op], expression.op.value)
            self.operand(expression.right)
        elif isinstance(expression, UnaryOp):
            if expression.op is UnaryOperator.NOT:
                self.keywords("NOT")
                self.operand(expression.operand)
            else:
                self.add(_OPERATOR, expression.op.value)
                self.glued = True
                start = len(self.parts)
                self.operand(expression.operand)
                if expression.op is UnaryOperator.NEG and self.parts[start][0] == "-":
                    self.parts[start] = " " + self.parts[start]
        elif isinstance(expression, FunctionCall):
            self.verbatim(expression.upper_name)
            self.open_call()
            if expression.distinct:
                self.keywords("DISTINCT")
            self.expressions(expression.args)
            self.attach(")")
        elif isinstance(expression, Cast):
            self.keywords("CAST")
            self.open_call()
            self.expression(expression.operand)
            self.keywords("AS")
            self.verbatim(expression.target_type)
            self.attach(")")
        elif isinstance(expression, CaseWhen):
            self.keywords("CASE")
            for condition, result in expression.conditions:
                self.keywords("WHEN")
                self.expression(condition)
                self.keywords("THEN")
                self.expression(result)
            if expression.else_result is not None:
                self.keywords("ELSE")
                self.expression(expression.else_result)
            self.keywords("END")
        elif isinstance(expression, IsNull):
            self.operand(expression.operand)
            self.keywords("IS")
            self.negation(expression.negated)
            self.keywords("NULL")
        elif isinstance(expression, InList):
            self.operand(expression.operand)
            self.negation(expression.negated)
            self.keywords("IN")
            self.open()
            self.expressions(expression.values)
            self.attach(")")
        elif isinstance(expression, InSubquery):
            self.operand(expression.operand)
            self.negation(expression.negated)
            self.keywords("IN")
            self.subquery(expression.subquery)
        elif isinstance(expression, Exists):
            self.negation(expression.negated)
            self.keywords("EXISTS")
            self.subquery(expression.subquery)
        elif isinstance(expression, Between):
            self.operand(expression.operand)
            self.negation(expression.negated)
            self.keywords("BETWEEN")
            self.operand(expression.low)
            self.keywords("AND")
            self.operand(expression.high)
        elif isinstance(expression, Like):
            self.operand(expression.operand)
            self.negation(expression.negated)
            self.keywords("LIKE")
            self.expression(expression.pattern)
        elif isinstance(expression, ScalarSubquery):
            self.subquery(expression.query)
        else:
            raise TypeError(f"unsupported expression type: {type(expression).__name__}")

    def negation(self, negated: bool) -> None:
        if negated:
            self.keywords("NOT")

    def literal(self, value: object) -> None:
        if value is None:
            self.keywords("NULL")
        elif value is True:
            self.keywords("TRUE")
        elif value is False:
            self.keywords("FALSE")
        elif isinstance(value, str):
            self.add(_STRING, value, "'" + value.replace("'", "''") + "'")
        else:
            self.verbatim(str(value))
