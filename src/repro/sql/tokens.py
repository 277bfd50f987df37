"""Token definitions for the SQL lexer.

The lexer produces a flat list of :class:`Token` objects which the
recursive-descent parser in :mod:`repro.sql.parser` consumes.  Keeping the
token model tiny and explicit (kind + normalised value + source position)
keeps both the lexer and the parser easy to reason about.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto


class TokenKind(Enum):
    """Lexical category of a token."""

    KEYWORD = auto()
    IDENTIFIER = auto()
    QUOTED_IDENTIFIER = auto()
    NUMBER = auto()
    STRING = auto()
    OPERATOR = auto()
    PUNCTUATION = auto()
    PARAMETER = auto()
    EOF = auto()


#: Reserved words recognised by the lexer.  Anything else alphabetic becomes an
#: IDENTIFIER.  The set intentionally covers the SQL dialect used by the
#: BenchPress workloads (SELECT queries with CTEs, subqueries, set operations,
#: window-free aggregation) plus enough DDL/DML for the execution engine.
KEYWORDS: frozenset[str] = frozenset(
    {
        "SELECT",
        "DISTINCT",
        "ALL",
        "FROM",
        "WHERE",
        "GROUP",
        "BY",
        "HAVING",
        "ORDER",
        "ASC",
        "DESC",
        "LIMIT",
        "OFFSET",
        "JOIN",
        "INNER",
        "LEFT",
        "RIGHT",
        "FULL",
        "OUTER",
        "CROSS",
        "ON",
        "USING",
        "AS",
        "AND",
        "OR",
        "NOT",
        "IN",
        "EXISTS",
        "BETWEEN",
        "LIKE",
        "IS",
        "NULL",
        "TRUE",
        "FALSE",
        "CASE",
        "WHEN",
        "THEN",
        "ELSE",
        "END",
        "UNION",
        "INTERSECT",
        "EXCEPT",
        "WITH",
        "RECURSIVE",
        "CAST",
        "CREATE",
        "TABLE",
        "PRIMARY",
        "KEY",
        "FOREIGN",
        "REFERENCES",
        "UNIQUE",
        "DEFAULT",
        "CHECK",
        "INSERT",
        "INTO",
        "VALUES",
        "UPDATE",
        "SET",
        "DELETE",
        "DROP",
        "IF",
        "NULLS",
        "FIRST",
        "LAST",
    }
)

#: Multi-character operators, longest first so the lexer can greedily match.
MULTI_CHAR_OPERATORS: tuple[str, ...] = ("<>", "!=", ">=", "<=", "||")

#: Single-character operators.
SINGLE_CHAR_OPERATORS: frozenset[str] = frozenset({"=", "<", ">", "+", "-", "*", "/", "%"})

#: Punctuation characters that become PUNCTUATION tokens.
PUNCTUATION_CHARS: frozenset[str] = frozenset({"(", ")", ",", ".", ";"})


@dataclass(frozen=True, slots=True)
class Token:
    """A single lexical token.

    Attributes:
        kind: Lexical category.
        value: Normalised token text.  Keywords are upper-cased, identifiers
            keep their original case (SQL identifiers are matched
            case-insensitively later), strings hold the unquoted content.
        position: Character offset of the token start in the source text.
        line: 1-based line number of the token start.
    """

    kind: TokenKind
    value: str
    position: int = 0
    line: int = 1

    def is_keyword(self, *names: str) -> bool:
        """Return ``True`` if this token is one of the given keywords."""
        return self.kind is TokenKind.KEYWORD and self.value in names

    def is_punctuation(self, char: str) -> bool:
        """Return ``True`` if this token is the given punctuation character."""
        return self.kind is TokenKind.PUNCTUATION and self.value == char

    def is_operator(self, *ops: str) -> bool:
        """Return ``True`` if this token is one of the given operators."""
        return self.kind is TokenKind.OPERATOR and self.value in ops

    def __str__(self) -> str:  # pragma: no cover - debugging convenience
        return f"{self.kind.name}({self.value!r})"


EOF_TOKEN = Token(TokenKind.EOF, "", -1, -1)
