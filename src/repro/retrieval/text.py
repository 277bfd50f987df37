"""Text normalisation and tokenisation shared by retrieval and metrics."""

from __future__ import annotations

import re

#: The tokens of :func:`tokenize_text`, before lower-casing, in one pass.
#: The tokenizer's words are ASCII identifiers (``[A-Za-z_][A-Za-z_0-9]*``)
#: and numbers (``\d+(\.\d+)?``, Unicode digits); an identifier splits at
#: underscores and before each capital that follows a lower-case letter or a
#: digit.  An ASCII digit right after an identifier character belongs to that
#: identifier, so a number may start there only with a non-ASCII digit.
_TOKEN = re.compile(
    r"(?<![A-Za-z_0-9])\d+(?:\.\d+)?"  # a number outside an identifier
    r"|(?![0-9])\d+(?:\.\d+)?"  # a number starting with a non-ASCII digit
    r"|[A-Z]+[a-z0-9]*"  # an identifier part starting with capitals
    r"|[a-z0-9]+"  # an identifier part without capitals
)

#: Words carrying little semantic weight for similarity purposes.
STOPWORDS: frozenset[str] = frozenset(
    {
        "a",
        "an",
        "the",
        "of",
        "in",
        "on",
        "for",
        "to",
        "and",
        "or",
        "is",
        "are",
        "was",
        "were",
        "be",
        "by",
        "with",
        "as",
        "at",
        "that",
        "this",
        "it",
        "from",
        "select",
        "where",
        "group",
        "order",
    }
)


def tokenize_text(text: str, remove_stopwords: bool = False) -> list[str]:
    """Tokenise arbitrary text (NL or SQL) into lower-case word tokens.

    Identifiers in snake_case or CamelCase are split into their constituent
    words so ``MOIRA_LIST_NAME`` and "Moira list name" share tokens.
    """
    tokens = [part.lower() for part in _TOKEN.findall(text)]
    if remove_stopwords:
        return [token for token in tokens if token not in STOPWORDS]
    return tokens


def character_ngrams(text: str, n: int = 3) -> list[str]:
    """Character n-grams of the lower-cased text (robust to abbreviations)."""
    compact = normalize_whitespace(text.lower())
    if len(compact) < n:
        return [compact] if compact else []
    return [compact[i : i + n] for i in range(len(compact) - n + 1)]


def normalize_whitespace(text: str) -> str:
    """Collapse runs of whitespace into single spaces and strip the ends."""
    return " ".join(text.split())  # str.split() splits where regex \s+ matches
