"""SQL normalisation utilities.

Normalisation serves two purposes in the reproduction:

* *exact-match* evaluation of SQL strings (paper step 7 mentions exact match
  as an automatic metric) needs whitespace/case/alias-insensitive comparison,
* the example store keys retrieved annotations by a normalised query skeleton
  so trivially different queries still retrieve each other.
"""

from __future__ import annotations

import re

from repro.sql.lexer import tokenize
from repro.sql.parser import parse_select
from repro.sql.printer import print_select
from repro.sql.tokens import TokenKind


def normalize_sql(sql: str) -> str:
    """Return a canonical form of the SQL text.

    The query is parsed and re-printed, which removes comment/whitespace
    differences and normalises keyword case.  If parsing fails the text is
    normalised lexically instead (tokens joined by single spaces, keywords
    upper-cased) so the function never raises on slightly out-of-dialect SQL.
    """
    try:
        return print_select(parse_select(sql))
    except Exception:
        return lexical_normalize(sql)


def lexical_normalize(sql: str) -> str:
    """Whitespace/case normalisation that does not require parsing."""
    try:
        tokens = tokenize(sql)
    except Exception:
        return re.sub(r"\s+", " ", sql).strip()
    parts: list[str] = []
    for token in tokens:
        if token.kind is TokenKind.KEYWORD:
            parts.append(token.value.upper())
        elif token.kind is TokenKind.STRING:
            escaped = token.value.replace("'", "''")
            parts.append(f"'{escaped}'")
        elif token.kind is TokenKind.QUOTED_IDENTIFIER:
            # Kept quoted: ``"a b"`` must not collide with the two bare
            # identifiers ``a b``.
            escaped = token.value.lower().replace('"', '""')
            parts.append(f'"{escaped}"')
        elif token.kind is TokenKind.IDENTIFIER:
            parts.append(token.value.lower())
        else:
            parts.append(token.value)
    return " ".join(parts)


def query_skeleton(sql: str) -> str:
    """Return a literal-free skeleton of the query.

    All string/number literals are replaced by placeholders so that queries
    differing only in constants map to the same skeleton.  Used by the example
    store to deduplicate retrieved context.
    """
    try:
        tokens = tokenize(sql)
    except Exception:
        return re.sub(r"\s+", " ", sql).strip().lower()
    parts: list[str] = []
    for token in tokens:
        if token.kind is TokenKind.STRING:
            parts.append("'?'")
        elif token.kind is TokenKind.NUMBER:
            parts.append("?")
        elif token.kind is TokenKind.KEYWORD:
            parts.append(token.value.upper())
        elif token.kind in (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER):
            parts.append(token.value.lower())
        else:
            parts.append(token.value)
    return " ".join(parts)


def queries_equal(left: str, right: str) -> bool:
    """Structural equality of two SQL strings after normalisation."""
    return normalize_sql(left) == normalize_sql(right)
