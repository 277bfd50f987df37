"""Tests for the schema model, DDL parsing, profiler and linking."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.snapshot import schema_from_state, schema_to_state
from repro.engine import Database
from repro.errors import IngestionError, SchemaError
from repro.schema import (
    ColumnSchema,
    DatabaseSchema,
    TableSchema,
    link_sql_to_schema,
    link_text_to_schema,
    parse_ddl_script,
    profile_database,
    split_identifier,
)
from repro.sql import parse_select
from repro.sql.analyzer import extract_references


class TestSchemaModel:
    def test_table_lookup_case_insensitive(self, hr_schema):
        assert hr_schema.table("EMPLOYEES").name == "employees"
        assert hr_schema.has_table("Departments")

    def test_missing_table_raises(self, hr_schema):
        with pytest.raises(SchemaError):
            hr_schema.table("missing")

    def test_column_lookup(self, hr_schema):
        employees = hr_schema.table("employees")
        assert employees.column("SALARY").name == "salary"
        assert employees.has_column("dept_id")
        with pytest.raises(SchemaError):
            employees.column("missing")

    def test_add_duplicate_table_raises(self, hr_schema):
        with pytest.raises(SchemaError):
            hr_schema.add_table(TableSchema(name="employees"))



def scan_column(table, name):
    """The linear scan the name index replaced."""
    return next((c for c in table.columns if c.name.lower() == name.lower()), None)


def scan_table(schema, name):
    return next((t for t in schema.tables if t.name.lower() == name.lower()), None)


def assert_lookups_match_scan(schema, names):
    for name in names:
        expected = scan_table(schema, name)
        assert schema.has_table(name) is (expected is not None)
        if expected is None:
            with pytest.raises(SchemaError):
                schema.table(name)
        else:
            assert schema.table(name) is expected
        for table in schema.tables:
            expected = scan_column(table, name)
            assert table.has_column(name) is (expected is not None)
            if expected is None:
                with pytest.raises(SchemaError):
                    table.column(name)
            else:
                assert table.column(name) is expected


LOOKUP_NAMES = st.sampled_from(["id", "ID", "Id", "name", "NAME", "x", "t", "T", "Straße", "İd"])


class TestNameIndex:
    """Dict lookups behind table()/column() against the linear scans."""

    def test_first_declaration_wins_on_case_variants(self):
        columns = [ColumnSchema("Id"), ColumnSchema("ID"), ColumnSchema("id")]
        table = TableSchema("t", columns=columns)
        assert table.column("id") is table.columns[0]
        assert table.column("iD") is table.columns[0]
        schema = DatabaseSchema("s", tables=[TableSchema("T"), TableSchema("t")])
        assert schema.table("t") is schema.tables[0]

    def test_sees_add_table_and_column_appends_after_a_lookup(self, hr_schema):
        assert not hr_schema.has_table("projects")
        hr_schema.add_table(TableSchema("Projects"))
        assert hr_schema.table("PROJECTS").name == "Projects"
        with pytest.raises(SchemaError):
            hr_schema.add_table(TableSchema("projects"))
        table = hr_schema.table("projects")
        assert not table.has_column("budget")
        table.columns.append(ColumnSchema("Budget", "REAL"))
        assert table.column("budget").name == "Budget"
        hr_schema.tables = [hr_schema.tables[-1]]
        assert hr_schema.tables[0].name == "Projects" and not hr_schema.has_table("employees")

    def test_ddl_built_schema(self):
        schema = parse_ddl_script(
            "CREATE TABLE a (ID INT, id TEXT, Name TEXT); CREATE TABLE B (x INT)", "ddl"
        )
        assert_lookups_match_scan(schema, ["id", "ID", "name", "a", "b", "B", "x", "missing"])

    @given(
        steps=st.lists(
            st.tuples(st.sampled_from(["table", "column", "lookup"]), LOOKUP_NAMES),
            max_size=40,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_random_appends_and_lookups_match_the_scan(self, steps):
        schema = DatabaseSchema("s")
        for action, name in steps:
            if action == "table":
                schema.tables.append(TableSchema(name))
            elif action == "column" and schema.tables:
                schema.tables[len(name) % len(schema.tables)].columns.append(ColumnSchema(name))
            assert_lookups_match_scan(schema, [name, name.upper(), name.lower()])

    def test_index_is_invisible(self, hr_schema):
        fresh = dataclasses.replace(hr_schema)

        def views():
            return dataclasses.asdict(hr_schema), schema_to_state(hr_schema), repr(hr_schema)

        before = views()
        hr_schema.table("employees").column("salary")
        assert hr_schema.has_table("departments")
        assert views() == before
        assert hr_schema == fresh
        assert "_name_index" not in repr(hr_schema) + json.dumps(schema_to_state(hr_schema))


class TestSchemaState:
    def test_equals_asdict_byte_for_byte(self, hr_schema):
        hr_schema.tables[0].description = "people"
        hr_schema.tables[0].columns[1].description = "full name"
        hr_schema.description = "HR"
        state = schema_to_state(hr_schema)
        assert state == dataclasses.asdict(hr_schema)
        assert json.dumps(state) == json.dumps(dataclasses.asdict(hr_schema))
        assert schema_from_state(state) == hr_schema

    def test_returns_fresh_containers(self, hr_schema):
        first, second = schema_to_state(hr_schema), schema_to_state(hr_schema)
        first["tables"][0]["columns"].append({"name": "extra"})
        first["tables"][0]["columns"][0]["name"] = "renamed"
        first["tables"].clear()
        assert second == dataclasses.asdict(hr_schema)
        assert hr_schema.tables[0].columns[0].name == "emp_id"
        assert len(hr_schema.tables[0].columns) == 5


class TestDDLParser:
    def test_parses_multiple_tables(self):
        schema = parse_ddl_script(
            "CREATE TABLE a (id INT PRIMARY KEY); CREATE TABLE b (id INT, a_id INT REFERENCES a (id));"
        )
        assert [table.name for table in schema.tables] == ["a", "b"]
        assert schema.table("b").foreign_keys[0].referenced_table == "a"

    def test_table_level_constraints(self):
        schema = parse_ddl_script(
            "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a), FOREIGN KEY (b) REFERENCES u (x))"
        )
        assert schema.table("t").column("a").primary_key is True
        assert schema.table("t").foreign_keys[0].referenced_column == "x"

    def test_empty_script_raises(self):
        with pytest.raises(IngestionError):
            parse_ddl_script("SELECT 1")

    def test_invalid_ddl_raises(self):
        with pytest.raises(IngestionError):
            parse_ddl_script("CREATE TABLE ???")


class TestProfiler:
    def test_profile_database_metrics(self, hr_database):
        profile = profile_database(hr_database)
        assert profile.tables_per_db == 2
        assert profile.columns_per_table == 4.0
        assert profile.rows_per_table == 4.5
        # dept_id appears in both tables -> 1 duplicated name out of 7 distinct.
        assert profile.uniqueness == pytest.approx(6 / 7)
        assert 0 < profile.sparsity < 0.1
        assert profile.data_type_diversity >= 3

    def test_profile_empty_database_raises(self):
        with pytest.raises(SchemaError):
            profile_database(Database())

    def test_as_dict_keys_match_table2(self, hr_database):
        keys = profile_database(hr_database).as_dict()
        for key in ("columns_per_table", "rows_per_table", "tables_per_db", "uniqueness",
                    "sparsity", "data_types"):
            assert key in keys


class TestLinking:
    def test_split_identifier(self):
        assert split_identifier("MOIRA_LIST_NAME") == ["moira", "list", "name"]
        assert split_identifier("camelCaseName") == ["camel", "case", "name"]
        assert split_identifier("simple") == ["simple"]

    def test_link_sql_resolves_tables_and_columns(self, hr_schema):
        result = link_sql_to_schema(
            "SELECT e.name FROM employees e JOIN departments d ON e.dept_id = d.dept_id", hr_schema
        )
        assert set(result.tables) == {"employees", "departments"}
        assert ("employees", "name") in result.columns

    def test_link_sql_takes_supplied_references(self, hr_schema):
        sql = "SELECT e.name FROM employees e JOIN departments d ON e.dept_id = d.dept_id"
        select = parse_select(sql)
        references = extract_references(select)
        assert link_sql_to_schema(select, hr_schema, references=references) == (
            link_sql_to_schema(sql, hr_schema)
        )

    def test_link_sql_reports_unresolved(self, hr_schema):
        result = link_sql_to_schema("SELECT x FROM unknown_table", hr_schema)
        assert result.unresolved_tables == ["unknown_table"]
        assert "x" in result.unresolved_columns

    def test_link_text_finds_relevant_tables(self, hr_schema):
        result = link_text_to_schema("average salary of employees by department", hr_schema)
        assert "employees" in result.tables

    def test_link_text_respects_max_tables(self, hr_schema):
        result = link_text_to_schema("employees departments salary budget", hr_schema, max_tables=1)
        assert len(result.tables) == 1

    def test_link_text_no_match(self, hr_schema):
        assert link_text_to_schema("totally unrelated words", hr_schema).tables == []
