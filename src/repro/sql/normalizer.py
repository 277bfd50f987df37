"""SQL normalisation utilities.

Normalisation serves two purposes in the reproduction:

* *exact-match* evaluation of SQL strings (paper step 7 mentions exact match
  as an automatic metric) needs whitespace/case/alias-insensitive comparison,
* the example store keys retrieved annotations by a normalised query skeleton
  so trivially different queries still retrieve each other.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

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


# Enum members read once: attribute lookups on the class cost more than the
# comparisons in the per-token loop below.
_IDENTIFIER = TokenKind.IDENTIFIER
_QUOTED_IDENTIFIER = TokenKind.QUOTED_IDENTIFIER
_STRING = TokenKind.STRING
_NUMBER = TokenKind.NUMBER


class QueryKeys(NamedTuple):
    """The two lexical keys of one query text."""

    #: Literal-free form: queries differing only in constants share it.
    skeleton: str
    #: Whitespace/case normal form, literals kept.
    lexical: str


def token_keys(tokens: Iterable[tuple[TokenKind, str]]) -> QueryKeys:
    """Both keys of a query from its lex, as ``(kind, value)`` pairs.

    Keywords (already upper case) stay, identifiers are lower-cased, and a
    quoted identifier stays quoted, so ``"a b"`` never collides with the two
    identifiers ``a b``.  The skeleton masks strings as ``'?'`` and numbers
    as ``?``; the lexical key keeps them, strings quoted again.
    """
    lexical: list[str] = []
    masks: list[tuple[int, str]] = []  # (position, placeholder) of each literal
    for kind, value in tokens:
        if kind is _IDENTIFIER:
            value = value.lower()
        elif kind is _STRING:
            masks.append((len(lexical), "'?'"))
            value = "'" + value.replace("'", "''") + "'"
        elif kind is _NUMBER:
            masks.append((len(lexical), "?"))
        elif kind is _QUOTED_IDENTIFIER:
            value = '"' + value.lower().replace('"', '""') + '"'
        lexical.append(value)
    skeleton = lexical.copy()
    for position, placeholder in masks:
        skeleton[position] = placeholder
    return QueryKeys(" ".join(skeleton), " ".join(lexical))


def sql_keys(sql: str) -> QueryKeys:
    """:func:`token_keys` of the text's (cached) lex; never raises.

    Text that does not lex keys by its whitespace-collapsed form, lower-cased
    in the skeleton.
    """
    try:
        tokens = tokenize(sql)
    except Exception:
        collapsed = re.sub(r"\s+", " ", sql).strip()
        return QueryKeys(collapsed.lower(), collapsed)
    return token_keys((token.kind, token.value) for token in tokens)


def lexical_normalize(sql: str) -> str:
    """Whitespace/case normalisation that does not require parsing."""
    return sql_keys(sql).lexical


def query_skeleton(sql: str) -> str:
    """A literal-free skeleton of the query, which the example store uses to
    keep the annotated query itself out of its retrieved context."""
    return sql_keys(sql).skeleton


def queries_equal(left: str, right: str) -> bool:
    """Structural equality of two SQL strings after normalisation."""
    return normalize_sql(left) == normalize_sql(right)
