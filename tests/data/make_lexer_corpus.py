"""Build the lexer golden corpus replayed by ``tests/test_sql_lexer.py``.

The committed ``lexer_corpus.json`` was written by the character-at-a-time
lexer that preceded the single-regex one, so replaying it checks that the
rewrite kept every token and every ``LexError`` (message, position, line).
Regenerating it with the current lexer only re-records today's behaviour.

    PYTHONPATH=src python tests/data/make_lexer_corpus.py [--seed 14] [--count 2000]
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

from repro.errors import LexError
from repro.sql.lexer import tokenize

#: SQL-shaped fragments that lex cleanly on their own.
FRAGMENTS = [
    "SELECT", "select", "From", "where", "a", "t1", "_x", "x$y", "MyCol", "e", "E",
    "1", "42", "3.14", ".5", "1.", "1e5", "1.5E-3", "1e", "1e+", "2e+7",
    "'a'", "'it''s'", "''", "'x\ny'", '"Q"', '""', "`b`",
    "-- c\n", "/* x */", "/*\n*/", "/**/",
    "<>", "!=", ">=", "<=", "||", "=", "<", ">", "+", "-", "*", "/", "%",
    "(", ")", ",", ".", ";", ":p", ":_q", "?",
    " ", "  ", "\n", "\t", "\r\n", "\x0b",
    "é", "ß", "²", "٣", "\u00a0", "\u2028", "ſ", "İ", "一", "x²", "a½",
    ":é", ".²", "1²", "1e²", "²0", "٣.٣", "'é'", '"ß"', "ﬁ",
]

#: Fragments that make the lexer raise (or sit on an error boundary).
BROKEN = [
    "1.2.3", "'a'' ", "'", '"', "`", "--", "/*", "/*/", "!", "|", ":", "@", "#",
    "$", "\\", "~", "^", "&", "½", "Ⅳ", "①", "¹", ":²", ":½",
]

#: Single characters for unstructured strings; the last ones raise.
CHARS = list("abcEexyz_$019.-/*:?<>=+%(),; \n\t") + [
    "é", "ß", "²", "٣", "\u00a0", "\u2028", "ſ", "一", "'", "''", '""', "``", "||", "!=",
]
RARE_CHARS = ["'", '"', "`", "!", "|", "@", "#", "½", "Ⅳ", "①"]


def make_texts(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    texts: list[str] = []
    for index in range(count):
        if index % 2 == 0:
            parts = [
                rng.choice(BROKEN if rng.random() < 0.04 else FRAGMENTS)
                for _ in range(rng.randint(1, 10))
            ]
            texts.append("".join(part + rng.choice(["", " ", " ", "\n"]) for part in parts))
        else:
            texts.append("".join(
                rng.choice(RARE_CHARS if rng.random() < 0.02 else CHARS)
                for _ in range(rng.randint(1, 20))
            ))
    return texts


def record(text: str) -> dict:
    try:
        tokens = tokenize(text)
    except LexError as error:
        return {"text": text, "error": [str(error), error.position, error.line]}
    return {
        "text": text,
        "tokens": [[t.kind.name, t.value, t.position, t.line] for t in tokens],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=14)
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--out", default=str(Path(__file__).with_name("lexer_corpus.json")))
    args = parser.parse_args()
    cases = [record(text) for text in make_texts(args.seed, args.count)]
    payload = {"seed": args.seed, "count": args.count, "cases": cases}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, ensure_ascii=False, separators=(",", ":"))
        handle.write("\n")
    errors = sum(1 for case in cases if "error" in case)
    print(f"wrote {len(cases)} cases ({errors} lex errors) to {args.out}")


if __name__ == "__main__":
    main()
