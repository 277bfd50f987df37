"""Printer round-trip and normaliser tests, including property-based checks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sql import (
    normalize_sql,
    parse,
    parse_select,
    print_select,
    print_statement,
    queries_equal,
    query_skeleton,
    lexical_normalize,
)

ROUND_TRIP_QUERIES = [
    "SELECT a FROM t",
    "SELECT DISTINCT a, b AS alias FROM t WHERE a > 5 AND b = 'x'",
    "SELECT COUNT(*), MAX(a) FROM t GROUP BY b HAVING COUNT(*) > 1",
    "SELECT a FROM t ORDER BY a DESC LIMIT 10 OFFSET 2",
    "SELECT * FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.id = c.id",
    "SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE c = 1)",
    "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id)",
    "SELECT a FROM t WHERE a BETWEEN 1 AND 10 OR b LIKE 'x%'",
    "WITH x AS (SELECT a FROM t) SELECT * FROM x",
    "SELECT a FROM t UNION ALL SELECT b FROM u",
    "SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t",
    "SELECT CAST(a AS INT) FROM t",
    "SELECT (SELECT MAX(b) FROM u) AS top, a FROM t",
    "SELECT a FROM t WHERE a IS NOT NULL AND b NOT IN (1, 2)",
    "SELECT t.* FROM t CROSS JOIN u",
]


class TestRoundTrip:
    @pytest.mark.parametrize("sql", ROUND_TRIP_QUERIES)
    def test_print_parse_is_fixed_point(self, sql):
        first = print_select(parse_select(sql))
        second = print_select(parse_select(first))
        assert first == second

    @pytest.mark.parametrize("sql", ROUND_TRIP_QUERIES)
    def test_round_trip_preserves_equality(self, sql):
        assert queries_equal(sql, print_select(parse_select(sql)))

    def test_print_create_table_round_trip(self):
        sql = "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(50) NOT NULL)"
        printed = print_statement(parse(sql))
        reprinted = print_statement(parse(printed))
        assert printed == reprinted

    def test_print_insert_round_trip(self):
        sql = "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)"
        printed = print_statement(parse(sql))
        assert print_statement(parse(printed)) == printed

    def test_string_escaping_survives(self):
        sql = "SELECT a FROM t WHERE name = 'O''Brien'"
        printed = print_select(parse_select(sql))
        assert "O''Brien" in printed
        assert print_select(parse_select(printed)) == printed


class TestNormalizer:
    def test_whitespace_and_case_insensitive(self):
        assert queries_equal("select  a from T", "SELECT a FROM T")

    def test_different_queries_not_equal(self):
        assert not queries_equal("SELECT a FROM t", "SELECT b FROM t")

    def test_comments_removed(self):
        assert queries_equal("SELECT a FROM t -- comment", "SELECT a FROM t")

    def test_lexical_normalize_handles_unparseable(self):
        text = lexical_normalize("SELECT something UPDATE weird")
        assert "SELECT" in text

    def test_lexical_normalize_keeps_identifier_quotes(self):
        quoted = lexical_normalize('select "A b" FROM t')
        assert quoted == 'SELECT "a b" FROM t'
        assert quoted != lexical_normalize("SELECT a b FROM t")
        assert lexical_normalize("SELECT `a`\n FROM t") == lexical_normalize('SELECT "a" FROM t')

    def test_normalize_sql_falls_back_on_parse_failure(self):
        # Not valid in our dialect but should still be normalised lexically.
        result = normalize_sql("SELCT a FROM t")
        assert isinstance(result, str) and result

    def test_query_skeleton_masks_literals(self):
        left = query_skeleton("SELECT a FROM t WHERE b = 'x' AND c > 5")
        right = query_skeleton("SELECT a FROM t WHERE b = 'y' AND c > 99")
        assert left == right

    def test_query_skeleton_differs_for_structure(self):
        assert query_skeleton("SELECT a FROM t") != query_skeleton("SELECT a, b FROM t")


_identifier = st.text(alphabet="abcdefgh", min_size=1, max_size=6)


class TestPropertyBased:
    @given(
        columns=st.lists(_identifier, min_size=1, max_size=4, unique=True),
        table=_identifier,
        value=st.integers(min_value=-1000, max_value=1000),
        use_distinct=st.booleans(),
        limit=st.one_of(st.none(), st.integers(min_value=1, max_value=100)),
    )
    @settings(max_examples=60, deadline=None)
    def test_generated_selects_round_trip(self, columns, table, value, use_distinct, limit):
        distinct = "DISTINCT " if use_distinct else ""
        limit_clause = f" LIMIT {limit}" if limit else ""
        sql = (
            f"SELECT {distinct}{', '.join(columns)} FROM {table} "
            f"WHERE {columns[0]} > {value}{limit_clause}"
        )
        printed = print_select(parse_select(sql))
        assert print_select(parse_select(printed)) == printed

    @given(st.integers(min_value=-10**6, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_integer_literals_preserved(self, number):
        printed = print_select(parse_select(f"SELECT {number}"))
        assert str(number) in printed

    @given(st.text(alphabet="abc XYZ'", max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_string_literals_roundtrip_through_printer(self, text):
        escaped = text.replace("'", "''")
        sql = f"SELECT '{escaped}'"
        select = parse_select(sql)
        from repro.sql import Literal

        literal = select.select_items[0].expression
        assert isinstance(literal, Literal)
        assert literal.value == text
        assert print_select(parse_select(print_select(select))) == print_select(select)
