"""Printer and query-key tests, including property-based checks.

The parametrized print/parse round trips live in ``test_sql_roundtrip.py``.
"""

from hypothesis import given, settings, strategies as st

from repro.sql import parse_select, print_select
from repro.sql.normalizer import sql_keys


class TestRoundTrip:
    def test_string_escaping_survives(self):
        sql = "SELECT a FROM t WHERE name = 'O''Brien'"
        printed = print_select(parse_select(sql))
        assert "O''Brien" in printed
        assert print_select(parse_select(printed)) == printed


def lexical(sql):
    return sql_keys(sql).lexical


def skeleton(sql):
    return sql_keys(sql).skeleton


class TestQueryKeys:
    def test_whitespace_and_case_insensitive(self):
        assert lexical("select  a from T") == lexical("SELECT a FROM T")

    def test_different_queries_not_equal(self):
        assert lexical("SELECT a FROM t") != lexical("SELECT b FROM t")

    def test_comments_removed(self):
        assert lexical("SELECT a FROM t -- comment") == lexical("SELECT a FROM t")

    def test_lexical_key_handles_unparseable(self):
        assert lexical("SELECT something UPDATE weird") == "SELECT something UPDATE weird"

    def test_lexical_key_keeps_identifier_quotes(self):
        quoted = lexical('select "A b" FROM t')
        assert quoted == 'SELECT "a b" FROM t'
        assert quoted != lexical("SELECT a b FROM t")
        assert lexical("SELECT `a`\n FROM t") == lexical('SELECT "a" FROM t')

    def test_keys_fall_back_on_text_that_does_not_lex(self):
        # An unterminated literal does not lex: the keys collapse whitespace.
        assert sql_keys("SELECT  A FROM t WHERE b = 'open") == (
            "select a from t where b = 'open",
            "SELECT A FROM t WHERE b = 'open",
        )

    def test_skeleton_masks_literals(self):
        left = skeleton("SELECT a FROM t WHERE b = 'x' AND c > 5")
        right = skeleton("SELECT a FROM t WHERE b = 'y' AND c > 99")
        assert left == right

    def test_skeleton_differs_for_structure(self):
        assert skeleton("SELECT a FROM t") != skeleton("SELECT a, b FROM t")


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
