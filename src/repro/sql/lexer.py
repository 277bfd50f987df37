"""SQL lexer.

Turns SQL source text into a list of :class:`~repro.sql.tokens.Token` objects.
Supports:

* single-quoted string literals with ``''`` escaping,
* double-quoted and backtick-quoted identifiers,
* integer and decimal numeric literals (including scientific notation),
* line comments (``-- ...``) and block comments (``/* ... */``),
* multi-character comparison operators and string concatenation ``||``,
* named (``:name``) and positional (``?``) parameters.

One compiled regular expression does the scanning: each match is one token
(or one lexical error) preceded by any whitespace and comments.  Character
classes follow ``str`` semantics: ``\\s`` is ``str.isspace``, ``\\d`` is
``str.isdecimal`` and ``\\w`` is ``str.isalnum`` plus ``_``.  The two gaps
(digits that are not decimal, such as ``²``, and numeric characters that are
neither digits nor letters, such as ``½``) are closed by scanning a stand-in
text in which those characters are mapped to ``0`` and ``½``.  Token values
are always sliced from the original text.

Lexing is pure and tokens are frozen, so :func:`tokenize` shares one lex per
distinct text through a small LRU cache.
"""

from __future__ import annotations

import re
from functools import lru_cache

from repro.errors import LexError
from repro.sql.tokens import KEYWORDS, Token, TokenKind

_TOKEN_RE = re.compile(
    r"""
    (?:\s+|--[^\n]*|/\*.*?\*/)*+                    # whitespace and comments
    (?:
        (?P<word>[^\W\d\xbd][\w$]*)
      | (?P<number>(?:\d|\.(?=\d))[\d.]*(?:[eE][+-]?\d+)?)
      | (?P<string>'(?:[^']|'')*+')                 # possessive: no retry at an inner ''
      | (?P<quoted>"[^"]*"|`[^`]*`)
      | (?P<bad_comment>/\*)                        # before the operators' "/"
      | (?P<operator><>|>=|<=|\|\||[=<>+\-*/%])
      | (?P<not_equal>!=)
      | (?P<punctuation>[(),.;])
      | (?P<parameter>:[^\W\d\xbd]\w*|\?)
      | (?P<end>\Z)
      | (?P<bad_string>')
      | (?P<bad_quoted>["`])
      | (?P<bad_char>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

_SIMPLE_KINDS = {
    "operator": TokenKind.OPERATOR,
    "punctuation": TokenKind.PUNCTUATION,
    "parameter": TokenKind.PARAMETER,
}

#: Distinct texts whose token tuples :func:`tokenize` keeps.
LEX_CACHE_SIZE = 64


class _StandIns(dict):
    """``str.translate`` table mapping each code point to its lexing stand-in.

    Non-decimal digits lex like ``0``; other numeric characters that are not
    letters lex like ``½`` (which the word and parameter classes exclude);
    every other character stands for itself.  Only ASCII and the (about a
    thousand) remapped code points are stored, so the table stays small
    whatever text it sees.
    """

    def __missing__(self, code: int) -> int:
        char = chr(code)
        if char.isalnum() and not char.isalpha() and not char.isdecimal():
            self[code] = 0x30 if char.isdigit() else 0xBD
            return self[code]
        raise LookupError(code)  # translate keeps the character


_STAND_INS = _StandIns((code, code) for code in range(128))


class Lexer:
    """Converts SQL text into tokens.

    Example:
        >>> Lexer("SELECT 1").tokenize()[0].value
        'SELECT'
    """

    def __init__(self, text: str) -> None:
        self._text = text

    def tokenize(self) -> list[Token]:
        """Tokenize the entire input and return the token list (without EOF)."""
        text = self._text
        scanned = text if text.isascii() else text.translate(_STAND_INS)
        tokens: list[Token] = []
        line = 1
        counted = 0
        for match in _TOKEN_RE.finditer(scanned):
            kind = match.lastgroup
            start, stop = match.span(kind)
            line += text.count("\n", counted, start)
            counted = start
            value = text[start:stop]
            if kind == "word":
                upper = value.upper()
                if upper in KEYWORDS:
                    tokens.append(Token(TokenKind.KEYWORD, upper, start, line))
                else:
                    tokens.append(Token(TokenKind.IDENTIFIER, value, start, line))
            elif kind in _SIMPLE_KINDS:
                tokens.append(Token(_SIMPLE_KINDS[kind], value, start, line))
            elif kind == "number":
                if value.count(".") > 1:
                    raise LexError(f"malformed number {value!r}", start, line)
                tokens.append(Token(TokenKind.NUMBER, value, start, line))
            elif kind == "string":
                tokens.append(
                    Token(TokenKind.STRING, value[1:-1].replace("''", "'"), start, line)
                )
            elif kind == "quoted":
                tokens.append(Token(TokenKind.QUOTED_IDENTIFIER, value[1:-1], start, line))
            elif kind == "not_equal":
                tokens.append(Token(TokenKind.OPERATOR, "<>", start, line))
            elif kind == "end":
                break
            elif kind == "bad_comment":
                raise LexError(
                    "unterminated block comment", len(text), text.count("\n") + 1
                )
            elif kind == "bad_string":
                raise LexError("unterminated string literal", start, line)
            elif kind == "bad_quoted":
                raise LexError("unterminated quoted identifier", start, line)
            else:
                raise LexError(f"unexpected character {value!r}", start, line)
        return tokens


@lru_cache(maxsize=LEX_CACHE_SIZE)
def _lex(sql: str) -> tuple[Token, ...]:
    return tuple(Lexer(sql).tokenize())


def tokenize(sql: str) -> list[Token]:
    """Tokenize SQL text.  Repeated texts share one cached lex."""
    return list(_lex(sql))
