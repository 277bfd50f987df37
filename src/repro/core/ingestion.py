"""Dataset ingestion (paper step 2).

Users upload SQL logs for a project's schema; this module splits an uploaded
log into the statements that are submitted for annotation.
"""

from __future__ import annotations

from repro.sql.lexer import scan


def split_sql_log(log_text: str) -> list[str]:
    """Split raw log text into individual SQL statements.

    A log holding a ``;`` outside quoted text and comments is a script that
    splits at each such ``;``; any other log holds one statement per line.
    Comments are dropped and each run of whitespace between two tokens
    becomes one space; quoted literals and identifiers are kept as written.
    A statement that does not lex is split and kept the same way, so it
    fails on its own when it is annotated.
    """
    spans = list(scan(log_text))
    scripted = any(
        kind == "punctuation" and log_text[start] == ";" for kind, start, _ in spans
    )
    statements: list[str] = []
    parts: list[str] = []
    stop = 0
    for kind, start, end in spans:
        semicolon = kind == "punctuation" and log_text[start] == ";"
        if parts and (semicolon if scripted else "\n" in log_text[stop:start]):
            statements.append("".join(parts))
            parts = []
        if not semicolon:
            token = log_text[start:end]
            parts.append(" " + token if parts and stop < start else token)
        stop = end
    if parts:
        statements.append("".join(parts))
    return statements
