"""Tests for the database facade, storage layer, types and functions."""

import pytest

from repro.engine import (
    Database,
    DataType,
    StoredColumn,
    StoredTable,
    call_aggregate,
    coerce_value,
    compare_values,
    values_equal,
)
from repro.errors import CatalogError, ExecutionError, TypeMismatchError


class TestDatabaseCatalog:
    def test_create_table_programmatically(self):
        database = Database()
        database.create_table("t", [("id", "INT"), ("name", "VARCHAR(20)")], primary_key=["id"])
        assert database.has_table("t")
        assert database.table("T").columns[0].primary_key is True

    def test_duplicate_table_raises(self):
        database = Database()
        database.create_table("t", [("id", "INT")])
        with pytest.raises(CatalogError):
            database.create_table("T", [("id", "INT")])

    def test_create_table_if_not_exists_is_noop(self):
        database = Database()
        database.execute("CREATE TABLE t (id INT)")
        database.execute("CREATE TABLE IF NOT EXISTS t (id INT)")
        assert database.table_names == ["t"]

    def test_drop_table(self):
        database = Database()
        database.create_table("t", [("id", "INT")])
        database.drop_table("t")
        assert not database.has_table("t")
        with pytest.raises(CatalogError):
            database.drop_table("t")

    def test_unknown_table_lookup_raises(self):
        with pytest.raises(CatalogError):
            Database().table("missing")

    def test_row_count_and_total_rows(self, hr_database):
        assert hr_database.row_count("employees") == 6
        assert hr_database.total_rows() == 9

    def test_execute_script(self):
        database = Database()
        results = database.execute_script(
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2); SELECT COUNT(*) FROM t"
        )
        assert results[-1].rows == [(2,)]

    def test_insert_programmatic_dict_rows(self):
        database = Database()
        database.create_table("t", [("a", "INT"), ("b", "TEXT")])
        database.insert("t", [{"a": 1, "b": "x"}, {"a": 2}])
        assert database.query("SELECT b FROM t WHERE a = 2") == [(None,)]

    def test_insert_unknown_column_raises(self):
        database = Database()
        database.create_table("t", [("a", "INT")])
        with pytest.raises(CatalogError):
            database.insert("t", [{"nope": 1}])

    def test_insert_values_must_be_literals(self):
        database = Database()
        database.execute("CREATE TABLE t (a INT)")
        with pytest.raises(ExecutionError):
            database.execute("INSERT INTO t VALUES (a + 1)")

    def test_insert_negative_literal(self):
        database = Database()
        database.execute("CREATE TABLE t (a INT)")
        database.execute("INSERT INTO t VALUES (-5)")
        assert database.query("SELECT a FROM t") == [(-5,)]

    def test_not_null_violation(self):
        database = Database()
        database.execute("CREATE TABLE t (a INT NOT NULL)")
        with pytest.raises(ExecutionError):
            database.execute("INSERT INTO t VALUES (NULL)")

    def test_column_count_mismatch_raises(self):
        database = Database()
        database.execute("CREATE TABLE t (a INT, b INT)")
        with pytest.raises(ExecutionError):
            database.execute("INSERT INTO t (a) VALUES (1, 2)")


class TestStoredTable:
    def test_requires_columns(self):
        with pytest.raises(CatalogError):
            StoredTable("t", [])

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(CatalogError):
            StoredTable("t", [StoredColumn("a", DataType.INTEGER), StoredColumn("A", DataType.TEXT)])

    def test_column_position_case_insensitive(self):
        table = StoredTable("t", [StoredColumn("Alpha", DataType.INTEGER)])
        assert table.column_position("alpha") == 0
        with pytest.raises(CatalogError):
            table.column_position("beta")

    def test_positional_insert_length_checked(self):
        table = StoredTable("t", [StoredColumn("a", DataType.INTEGER)])
        with pytest.raises(ExecutionError):
            table.insert_rows([(1, 2)])

    def test_column_values(self):
        table = StoredTable("t", [StoredColumn("a", DataType.INTEGER)])
        table.insert_rows([(1,), (2,), (None,)])
        assert table.column_values("a") == [1, 2, None]

    def test_list_rows_are_stored_as_tuples(self):
        table = StoredTable("t", [StoredColumn("a", DataType.INTEGER)])
        table.insert_rows([[1], [2]])
        assert table.rows == [(1,), (2,)]

    def test_to_relation_uses_alias(self):
        table = StoredTable("t", [StoredColumn("a", DataType.INTEGER)])
        relation = table.to_relation(alias="x")
        assert relation.labels[0].relation == "x"


class TestValueModel:
    def test_data_type_from_sql_aliases(self):
        assert DataType.from_sql("VARCHAR(255)") is DataType.TEXT
        assert DataType.from_sql("NUMBER") is DataType.REAL
        assert DataType.from_sql("bigint") is DataType.INTEGER
        assert DataType.from_sql("TIMESTAMP") is DataType.DATE
        assert DataType.from_sql("unknown_type") is DataType.TEXT

    def test_coerce_value(self):
        assert coerce_value("42", DataType.INTEGER) == 42
        assert coerce_value(1, DataType.BOOLEAN) is True
        assert coerce_value("yes", DataType.BOOLEAN) is True
        assert coerce_value("no", DataType.BOOLEAN) is False
        assert coerce_value(3, DataType.TEXT) == "3"
        assert coerce_value(None, DataType.INTEGER) is None

    def test_coerce_failure_raises(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("not-a-number", DataType.INTEGER)

    def test_compare_values_orders_nulls_first(self):
        assert compare_values(None, 1) == -1
        assert compare_values(1, None) == 1
        assert compare_values(None, None) == 0

    def test_compare_values_numeric_vs_string(self):
        assert compare_values(2, 10) < 0
        assert compare_values("2", "10") > 0  # lexicographic for strings

    def test_values_equal_floats_and_ints(self):
        assert values_equal(2, 2.0)
        assert not values_equal(2, 3)
        assert values_equal(None, None)
        assert not values_equal(None, 0)


def _scalar(expression: str):
    """The value of ``SELECT <expression>`` (no FROM: evaluated once)."""
    return Database("functions").execute(f"SELECT {expression}").rows[0][0]


class TestFunctions:
    def test_scalar_function_registry(self):
        # Scalar names resolve case-insensitively; an aggregate is not one.
        assert _scalar("upper('abc')") == "ABC"
        database = Database("functions")
        database.execute("CREATE TABLE t (id INT)")
        database.execute("INSERT INTO t (id) VALUES (1)")
        with pytest.raises(ExecutionError, match="aggregate COUNT used outside aggregation context"):
            database.execute("SELECT id FROM t WHERE COUNT(*) > 0")

    def test_scalar_functions(self):
        assert _scalar("UPPER('abc')") == "ABC"
        assert _scalar("LENGTH('abcd')") == 4
        assert _scalar("ROUND(3.456, 1)") == 3.5
        assert _scalar("COALESCE(NULL, NULL, 7)") == 7
        assert _scalar("SUBSTR('abcdef', 2, 3)") == "bcd"
        assert _scalar("NULLIF(5, 5)") is None
        assert _scalar("IFNULL(NULL, 'x')") == "x"
        assert _scalar("ABS(-4)") == 4
        assert _scalar("CONCAT('a', NULL, 'b')") == "ab"

    def test_scalar_null_propagation(self):
        assert _scalar("UPPER(NULL)") is None
        assert _scalar("LENGTH(NULL)") is None

    def test_unknown_scalar_raises(self):
        with pytest.raises(ExecutionError, match="unknown scalar function 'NO_SUCH_FN'"):
            _scalar("NO_SUCH_FN(1)")

    def test_aggregates(self):
        assert call_aggregate("COUNT", [1, None, 2], distinct=False, count_star=True) == 3
        assert call_aggregate("COUNT", [1, None, 2], distinct=False) == 2
        assert call_aggregate("COUNT", [1, 1, 2], distinct=True) == 2
        assert call_aggregate("SUM", [1, 2, 3], distinct=False) == 6
        assert call_aggregate("AVG", [2, 4], distinct=False) == 3
        assert call_aggregate("MIN", ["b", "a"], distinct=False) == "a"
        assert call_aggregate("MAX", [1, 5, None], distinct=False) == 5
        assert call_aggregate("MEDIAN", [1, 2, 9], distinct=False) == 2

    def test_aggregate_empty_inputs(self):
        assert call_aggregate("SUM", [], distinct=False) is None
        assert call_aggregate("AVG", [None, None], distinct=False) is None
        assert call_aggregate("COUNT", [], distinct=False) == 0

    def test_aggregate_type_error(self):
        with pytest.raises(ExecutionError):
            call_aggregate("SUM", ["text"], distinct=False)

    def test_unknown_aggregate_raises(self):
        with pytest.raises(ExecutionError):
            call_aggregate("WEIRD", [1], distinct=False)


def _bulk_table() -> StoredTable:
    return StoredTable(
        "t",
        [
            StoredColumn("a", DataType.INTEGER, not_null=True),
            StoredColumn("b", DataType.INTEGER),
            StoredColumn("c", DataType.TEXT),
        ],
    )


def _first_error_row_by_row(rows) -> BaseException | None:
    """The error inserting ``rows`` one at a time raises first, if any."""
    table = _bulk_table()
    try:
        for row in rows:
            table.insert_rows([row])
    except Exception as exc:
        return exc
    return None


class TestBulkInsert:
    """``StoredTable.insert_rows`` loads a batch column by column: all or nothing."""

    @pytest.mark.parametrize(
        "rows",
        [
            # A later column fails in an earlier row than an earlier column.
            [(1, 2, "x"), (2, "bad", "y"), (None, 3, "z")],
            # An earlier column fails in an earlier row than a later column.
            [(1, 2, "x"), (None, 3, "y"), (3, "bad", "z")],
            # Two bad cells in one row: the earlier column's error wins.
            [(1, 2, "x"), (None, "bad", "y")],
            # A bad cell before a row of the wrong shape, and the reverse.
            [(1, "bad", "x"), (1, 2)],
            [(1, 2, "x"), (1, 2), (None, "bad", "y")],
            [(1, 2, "x"), {"a": 2, "nope": 1}, (None, 2, "y")],
            [{"a": 1, "b": "bad"}, {"a": None}],
            [(1, 2, "x"), (float("inf"), 2, "y")],
        ],
    )
    def test_bad_batch_appends_nothing_and_raises_first_row_major_error(self, rows):
        expected = _first_error_row_by_row(rows)
        assert expected is not None
        database = Database()
        table = _bulk_table()
        database._register_table(table)
        table.insert_rows([(0, 0, "seed")])
        version = database.data_version
        with pytest.raises(type(expected)) as raised:
            table.insert_rows(rows)
        assert type(raised.value) is type(expected)
        assert str(raised.value) == str(expected)
        assert table.rows == [(0, 0, "seed")]
        assert database.data_version == version

    def test_values_are_coerced_per_declared_type(self):
        columns = [
            StoredColumn("i", DataType.INTEGER),
            StoredColumn("r", DataType.REAL),
            StoredColumn("t", DataType.TEXT),
            StoredColumn("b", DataType.BOOLEAN),
            StoredColumn("d", DataType.DATE),
        ]
        rows = [
            (1, 2.5, "x", True, "2020-01-01"),
            ("3", 4, 5, "yes", 20200101),
            (True, "6.5", False, 0, None),
            (None, None, None, None, None),
        ]
        table = StoredTable("t", columns)
        table.insert_rows(rows)
        expected = [
            tuple(coerce_value(value, column.data_type) for value, column in zip(row, columns))
            for row in rows
        ]
        assert table.rows == expected
        assert [[type(value) for value in row] for row in table.rows] == [
            [type(value) for value in row] for row in expected
        ]
        # A value that already has its column's type is stored as it is.
        assert all(stored is given for stored, given in zip(table.rows[0], rows[0]))
        assert table.rows[1][0] == 3 and type(table.rows[2][0]) is int

    def test_mapping_rows_fill_missing_columns_with_null(self):
        table = _bulk_table()
        table.insert_rows([{"A": 1, "c": "x"}, {"a": 2, "B": "7"}])
        assert table.rows == [(1, None, "x"), (2, 7, None)]

    def test_mapping_row_with_unknown_column_raises_catalog_error(self):
        table = _bulk_table()
        with pytest.raises(CatalogError, match=r"has no column\(s\) \['nope'\]"):
            table.insert_rows([{"a": 1}, {"a": 2, "Nope": 3}])
        assert table.rows == []

    def test_positional_rows_must_cover_every_column(self):
        table = _bulk_table()
        with pytest.raises(ExecutionError, match="expected 3 values for table 't', got 2"):
            table.insert_rows([(1, 2, "x"), (1, 2)])
        assert table.rows == []

    def test_each_call_bumps_the_data_version_once(self):
        database = Database()
        database.create_table("t", [("a", "INT"), ("b", "TEXT")])
        version = database.data_version
        assert database.insert("t", [(1, "x"), (2, "y"), (3, "z")]) == 3
        assert database.data_version == version + 1
        database.table("t").insert_rows([{"a": 4}, {"a": 5}])
        assert database.data_version == version + 2
        database.table("t").insert_rows([])
        assert database.data_version == version + 2
        # A SQL INSERT appends all its rows in one call, so it bumps once.
        database.execute("INSERT INTO t VALUES (6, 'u'), (7, 'v')")
        assert database.data_version == version + 3
        assert database.row_count("t") == 7
