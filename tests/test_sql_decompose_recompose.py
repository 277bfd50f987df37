"""Tests for nested-query decomposition and recomposition (paper steps 3.5 / 5.5)."""

import copy
import dataclasses
import importlib
from enum import Enum
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.sql import decompose, parse_select, print_select, recompose
from repro.workloads import BENCHMARK_NAMES
from tests.data.make_analyzer_corpus import fixture_statements

# ``repro.sql.decompose`` the module (the package re-exports the function).
decompose_module = importlib.import_module("repro.sql.decompose")

NESTED = (
    "SELECT d.dept_name, COUNT(*) FROM employees e "
    "JOIN departments d ON e.dept_id = d.dept_id "
    "WHERE e.salary > (SELECT AVG(salary) FROM employees) "
    "AND e.dept_id IN (SELECT dept_id FROM departments WHERE budget > 100) "
    "GROUP BY d.dept_name"
)


class TestDecompose:
    def test_flat_query_single_unit(self):
        result = decompose("SELECT a FROM t WHERE b = 1")
        assert not result.was_nested
        assert len(result.units) == 1
        assert result.outer_unit.role == "outer"

    def test_nested_query_produces_subquery_units(self):
        result = decompose(NESTED)
        assert result.was_nested
        assert len(result.subquery_units) >= 2
        roles = {unit.role for unit in result.subquery_units}
        assert roles <= {"cte", "derived_table", "where_subquery", "scalar_subquery"}

    def test_derived_table_lifted_into_cte(self):
        result = decompose("SELECT x.n FROM (SELECT COUNT(*) AS n FROM t) AS x")
        assert "WITH" in result.decomposed_sql
        assert any(unit.role == "derived_table" for unit in result.units)

    def test_decomposed_sql_still_parses(self):
        result = decompose(NESTED)
        reparsed = parse_select(result.decomposed_sql)
        assert print_select(reparsed)

    def test_existing_ctes_become_units(self):
        result = decompose(
            "WITH top AS (SELECT dept_id FROM departments) SELECT * FROM employees "
            "WHERE dept_id IN (SELECT dept_id FROM top)"
        )
        assert any(unit.role == "cte" and unit.name == "top" for unit in result.units)

    def test_unit_metadata(self):
        result = decompose(NESTED)
        outer = result.outer_unit
        assert "employees" in [t.lower() for t in outer.tables] or outer.tables
        assert outer.depends_on == [unit.name for unit in result.subquery_units]
        for unit in result.units:
            assert unit.sql
            assert parse_select(unit.sql)

    def test_accepts_parsed_ast(self):
        result = decompose(parse_select(NESTED))
        assert result.was_nested

    def test_original_sql_preserved(self):
        result = decompose(NESTED)
        assert result.original_sql == print_select(parse_select(NESTED))

    def test_original_sql_is_printed_on_first_access(self):
        result = decompose(NESTED)
        assert "original_sql" not in vars(result)
        assert result.original_sql == print_select(parse_select(NESTED))
        assert "original_sql" in vars(result)


def tree_nodes(node, found=None):
    """Every AST node (dataclass instance) reachable from ``node``, repeats included."""
    found = [] if found is None else found
    if isinstance(node, (list, tuple)):
        for item in node:
            tree_nodes(item, found)
    elif dataclasses.is_dataclass(node) and not isinstance(node, (type, Enum)):
        found.append(node)
        for item in dataclasses.fields(node):
            tree_nodes(getattr(node, item.name), found)
    return found


def decomposition_state(result):
    """Everything a caller reads from a decomposition, as plain data."""
    return (
        result.original_sql,
        result.decomposed_sql,
        result.was_nested,
        [
            (unit.name, unit.sql, unit.role, unit.tables, unit.columns, unit.depends_on)
            for unit in result.units
        ],
    )


def reference_decompose(select):
    """The decomposer with the ``copy.deepcopy`` it used before the typed copy."""
    with mock.patch.object(decompose_module, "_copy_select", copy.deepcopy):
        return decompose(select)


def with_derived_tables(first, second):
    """Statements that lift derived tables, the only blocks the rewrite replaces."""
    return [
        f"SELECT * FROM ({first}) AS d0",
        f"SELECT d0.* FROM ({first}) AS d0 JOIN ({second}) AS d1 ON 1 = 1 "
        f"WHERE EXISTS (SELECT * FROM ({second}) AS d2)",
        f"WITH c AS ({first}) SELECT (SELECT COUNT(*) FROM ({second}) AS d3) "
        f"FROM c, ({first}) AS d4",
    ]


DERIVED = (
    "SELECT x.n, y.m FROM (SELECT COUNT(*) AS n FROM t WHERE a IN "
    "(SELECT a FROM (SELECT a FROM u) AS inner_u)) AS x "
    "JOIN (SELECT MAX(b) AS m FROM v) AS y ON x.n > (SELECT 1 FROM (SELECT 1 AS k) AS z) "
    "UNION SELECT q.c, 1 FROM (SELECT c FROM w) AS q"
)


class TestDecomposeCopy:
    """The typed tree copy against the ``deepcopy`` it replaced."""

    def check(self, sql):
        select = parse_select(sql)
        nodes = tree_nodes(select)
        assert len({id(node) for node in nodes}) == len(nodes), "parser shared a node"
        before = copy.deepcopy(select)
        printed = print_select(select)
        result = decompose(select)
        assert select == before and print_select(select) == printed, "input was mutated"
        assert [id(node) for node in tree_nodes(select)] == [id(node) for node in nodes]
        assert decomposition_state(result) == decomposition_state(reference_decompose(before))
        for unit in result.units:
            assert not {id(node) for node in tree_nodes(unit.query)} & {id(n) for n in nodes}
        copied = decompose_module._copy_select(select)
        assert copied == select
        assert not {id(node) for node in tree_nodes(copied)} & {id(node) for node in nodes}

    def test_fixture_statements(self):
        for _, sql in fixture_statements()[1]:
            self.check(sql)

    @pytest.mark.parametrize(
        "sql", [DERIVED, *with_derived_tables("SELECT a FROM t", "SELECT b FROM u")]
    )
    def test_derived_tables_are_lifted_like_before(self, sql):
        self.check(sql)
        assert decompose(sql).decomposed_sql != decompose(sql).original_sql

    @given(
        family=st.sampled_from(BENCHMARK_NAMES),
        seed=st.integers(min_value=0, max_value=2),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_generated_workloads(self, generated_sql, family, seed, data):
        statements = generated_sql[family, seed]
        first = data.draw(st.sampled_from(statements))
        second = data.draw(st.sampled_from(statements))
        for sql in [first, *with_derived_tables(first, second)]:
            self.check(sql)


class TestRecompose:
    def test_flat_query_returns_outer_description(self):
        decomposition = decompose("SELECT a FROM t")
        merged = recompose(decomposition, {decomposition.outer_unit.name: "List the a values."})
        assert merged.text == "List the a values."
        assert not merged.was_nested

    def test_nested_descriptions_are_merged(self):
        decomposition = decompose(NESTED)
        descriptions = {unit.name: f"compute block {index}" for index, unit in
                        enumerate(decomposition.subquery_units)}
        descriptions[decomposition.outer_unit.name] = "Report the department head counts"
        merged = recompose(decomposition, descriptions)
        assert merged.was_nested
        assert "Then," in merged.text
        assert "department head counts" in merged.text
        for index in range(len(decomposition.subquery_units)):
            assert f"compute block {index}" in merged.text

    def test_missing_outer_description_uses_fallback(self):
        decomposition = decompose("SELECT a FROM t")
        merged = recompose(decomposition, {})
        assert merged.text
        assert "t" in merged.text

    def test_missing_unit_descriptions_are_skipped(self):
        decomposition = decompose(NESTED)
        merged = recompose(
            decomposition, {decomposition.outer_unit.name: "Count per department."}
        )
        assert merged.text.startswith("Count per department") or "Count per department" in merged.text
