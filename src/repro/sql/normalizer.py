"""Lexical query keys.

The example store keys annotated queries by a literal-free skeleton, so that
a query differing only in its constants never retrieves its own annotation,
and schema linking caches its results under a whitespace/case normal form.
Both keys come from one lex of the query text.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from repro.sql.lexer import tokenize
from repro.sql.tokens import TokenKind


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
