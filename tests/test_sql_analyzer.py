"""Unit tests for SQL static analysis (Table 1 complexity metrics inputs)."""

import pytest

from repro.sql import (
    analyze_query,
    count_joins,
    count_keywords,
    count_predicates,
    count_tokens,
    extract_aggregates,
    extract_columns,
    extract_literals,
    extract_tables,
    is_nested,
    nesting_depth,
    parse_select,
)
from repro.workloads import BENCHMARK_NAMES, build_benchmark

NESTED_QUERY = """
WITH DistinctLists AS (
  SELECT MOIRA_LIST_NAME, COUNT(DISTINCT MIT_ID) AS Member_Count
  FROM MOIRA_LIST WHERE MOIRA_LIST_NAME LIKE 'B%' GROUP BY MOIRA_LIST_NAME
)
SELECT COUNT(DISTINCT dl.MOIRA_LIST_NAME),
  (SELECT MAX(Member_Count) FROM DistinctLists)
FROM DistinctLists dl
"""


class TestExtraction:
    def test_extract_tables_simple(self):
        assert extract_tables(parse_select("SELECT a FROM t")) == ["t"]

    def test_extract_tables_join(self):
        tables = extract_tables(parse_select("SELECT * FROM a JOIN b ON a.id = b.id"))
        assert tables == ["a", "b"]

    def test_extract_tables_excludes_cte_names(self):
        tables = extract_tables(parse_select(NESTED_QUERY))
        assert tables == ["MOIRA_LIST"]

    def test_extract_tables_deduplicates(self):
        tables = extract_tables(
            parse_select("SELECT * FROM t WHERE a IN (SELECT a FROM t WHERE b = 1)")
        )
        assert tables == ["t"]

    def test_extract_columns(self):
        columns = extract_columns(parse_select("SELECT a, b FROM t WHERE c > 1 GROUP BY d"))
        assert set(columns) == {"a", "b", "c", "d"}

    def test_extract_columns_from_subqueries(self):
        columns = extract_columns(parse_select(NESTED_QUERY))
        assert "MOIRA_LIST_NAME" in columns
        assert "MIT_ID" in columns

    def test_extract_aggregates(self):
        aggregates = extract_aggregates(
            parse_select("SELECT COUNT(*), SUM(a), AVG(b) FROM t")
        )
        assert aggregates.count("COUNT") == 1
        assert "SUM" in aggregates and "AVG" in aggregates

    def test_extract_literals(self):
        literals = extract_literals(parse_select("SELECT a FROM t WHERE b = 'x' AND c > 10"))
        assert "x" in literals and 10 in literals

    def test_extract_literals_skips_null(self):
        assert extract_literals(parse_select("SELECT a FROM t WHERE b IS NULL")) == []


class TestCounts:
    def test_count_keywords(self):
        assert count_keywords("SELECT a FROM t WHERE b = 1") == 3

    def test_count_tokens(self):
        assert count_tokens("SELECT a FROM t") == 4

    def test_count_joins(self):
        assert count_joins(parse_select("SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y")) == 2

    def test_count_predicates(self):
        sql = "SELECT a FROM t WHERE a > 1 AND b LIKE 'x%' AND c IN (1, 2) AND d IS NULL"
        assert count_predicates(parse_select(sql)) == 4

    def test_nesting_depth_flat_query(self):
        assert nesting_depth(parse_select("SELECT a FROM t")) == 0
        assert not is_nested(parse_select("SELECT a FROM t"))

    def test_nesting_depth_counts_all_blocks(self):
        select = parse_select(NESTED_QUERY)
        assert nesting_depth(select) >= 2
        assert is_nested(select)

    def test_nesting_counts_derived_tables(self):
        assert nesting_depth(parse_select("SELECT * FROM (SELECT a FROM t) AS x")) == 1

    def test_nesting_counts_set_operations(self):
        assert nesting_depth(parse_select("SELECT a FROM t UNION SELECT b FROM u")) == 1


class TestAnalyzeQuery:
    def test_profile_from_sql_text(self):
        profile = analyze_query("SELECT COUNT(*) FROM t WHERE a = 1 GROUP BY b")
        assert profile.complexity.aggregations == 1
        assert profile.complexity.tables == 1
        assert profile.complexity.has_group_by is True

    def test_profile_from_ast(self):
        profile = analyze_query(parse_select("SELECT a FROM t ORDER BY a"))
        assert profile.complexity.has_order_by is True

    def test_counts_come_from_the_text_not_the_tree(self):
        sql = "select a -- why\nFROM t WHERE a != 1 AND (b = 2)"
        profile = analyze_query(sql, parse_select(sql))
        assert profile == analyze_query(sql)
        assert profile.complexity.tokens == count_tokens(sql) == 14
        assert profile.complexity.keywords == count_keywords(sql) == 4

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_pre_parsed_tree_gives_the_same_profile(self, name):
        workload = build_benchmark(name, seed=0, row_scale=0.0008)
        assert workload.query_sql
        for sql in workload.query_sql:
            assert analyze_query(sql, parse_select(sql)) == analyze_query(sql), sql

    def test_complexity_as_dict_keys(self):
        metrics = analyze_query("SELECT a FROM t").complexity.as_dict()
        for key in ("keywords", "tokens", "tables", "columns", "aggregations", "nestings"):
            assert key in metrics

    def test_nested_query_is_more_complex_than_flat(self):
        flat = analyze_query("SELECT a FROM t").complexity
        nested = analyze_query(NESTED_QUERY).complexity
        assert nested.tokens > flat.tokens
        assert nested.keywords > flat.keywords
        assert nested.nestings > flat.nestings
        assert nested.aggregations > flat.aggregations

    def test_set_operation_flag(self):
        profile = analyze_query("SELECT a FROM t UNION SELECT b FROM u")
        assert profile.complexity.has_set_operation is True

    def test_join_condition_columns_counted(self):
        profile = analyze_query("SELECT a.x FROM a JOIN b ON a.id = b.other_id")
        assert "id" in [c.lower() for c in profile.columns]
        assert "other_id" in [c.lower() for c in profile.columns]
