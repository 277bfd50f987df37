"""Replay the engine results golden (``tests/data/engine_golden.json``).

The golden was recorded while a second, tree-walking executor still checked
every statement; see ``tests/data/make_engine_golden.py``.  Each section's
database must still run the same statements, and each statement must still
return the same columns, rows, row order and cell types, or raise the same
error class with the same message.  Analyzed in order on a freshly built
database, each section's statements must also report the same EXPLAIN
ANALYZE operators (``tests/data/engine_analyze_golden.json``).
"""

from __future__ import annotations

import functools
import json

import pytest

from tests.data.make_engine_golden import (
    ANALYZE_PATH,
    GOLDEN_PATH,
    SECTIONS,
    analyze_section,
    record,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="ascii"))
ANALYZE_GOLDEN = json.loads(ANALYZE_PATH.read_text(encoding="ascii"))
CASES = [(name, index) for name in sorted(GOLDEN) for index in range(len(GOLDEN[name]))]


@functools.lru_cache(maxsize=None)
def section(name: str):
    """The section's database and statements, built once (statements only read)."""
    return SECTIONS[name]()


def test_golden_has_every_section():
    assert sorted(GOLDEN) == sorted(SECTIONS)
    assert sorted(ANALYZE_GOLDEN) == sorted(SECTIONS)


@pytest.mark.parametrize("name", sorted(SECTIONS))
def test_section_statements_match_golden(name):
    _, statements = section(name)
    assert statements == [entry["sql"] for entry in GOLDEN[name]]


@pytest.mark.parametrize("name, index", CASES, ids=[f"{name}-{index}" for name, index in CASES])
def test_statement_matches_golden(name, index):
    database, _ = section(name)
    expected = GOLDEN[name][index]
    assert record(database, expected["sql"]) == expected


@pytest.mark.parametrize("name", sorted(SECTIONS))
def test_section_analyze_matches_golden(name):
    # A fresh database: cached subquery results make the operator lists
    # depend on what the database ran before.
    assert analyze_section(*SECTIONS[name]()) == ANALYZE_GOLDEN[name]
