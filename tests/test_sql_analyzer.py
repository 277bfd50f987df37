"""Unit tests for SQL static analysis (Table 1 complexity metrics inputs)."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.snapshot import schema_from_state
from repro.sql import (
    analyze_query,
    extract_aggregates,
    extract_columns,
    extract_tables,
    is_nested,
    nesting_depth,
    parse_select,
)
from repro.sql.analyzer import (
    AGGREGATE_FUNCTIONS,
    QueryComplexity,
    QueryProfile,
    extract_references,
    iter_expressions,
)
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    BinaryOperator,
    Cast,
    CaseWhen,
    ColumnRef,
    Exists,
    FunctionCall,
    InList,
    InSubquery,
    IsNull,
    Join,
    Like,
    Literal,
    ScalarSubquery,
    SubqueryRef,
    TableRef,
    UnaryOp,
)
from repro.sql.decompose import decompose
from repro.sql.lexer import tokenize
from repro.sql.tokens import TokenKind
from repro.workloads import BENCHMARK_NAMES, build_benchmark
from tests.data.make_analyzer_corpus import fixture_statements, record_statement

ANALYZER_CORPUS_PATH = Path(__file__).parent / "data" / "analyzer_corpus.json"

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

    def test_profile_literals(self):
        literals = analyze_query("SELECT a FROM t WHERE b = 'x' AND c > 10").literals
        assert "x" in literals and 10 in literals

    def test_profile_literals_skip_null(self):
        assert analyze_query("SELECT a FROM t WHERE b IS NULL").literals == []


class TestCounts:
    def test_keyword_count(self):
        assert analyze_query("SELECT a FROM t WHERE b = 1").complexity.keywords == 3

    def test_token_count(self):
        assert analyze_query("SELECT a FROM t").complexity.tokens == 4

    def test_join_count(self):
        sql = "SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y"
        assert analyze_query(sql).complexity.joins == 2

    def test_predicate_count(self):
        sql = "SELECT a FROM t WHERE a > 1 AND b LIKE 'x%' AND c IN (1, 2) AND d IS NULL"
        assert analyze_query(sql).complexity.predicates == 4

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
        assert profile.complexity.tokens == 14
        assert profile.complexity.keywords == 4

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


# ---------------------------------------------------------------------------
# generator-walk oracle: the analyzer as it was before the single-pass walk
# ---------------------------------------------------------------------------


def oracle_iter_expressions(expression):
    if expression is None:
        return
    yield expression
    if isinstance(expression, BinaryOp):
        yield from oracle_iter_expressions(expression.left)
        yield from oracle_iter_expressions(expression.right)
    elif isinstance(expression, UnaryOp):
        yield from oracle_iter_expressions(expression.operand)
    elif isinstance(expression, FunctionCall):
        for arg in expression.args:
            yield from oracle_iter_expressions(arg)
    elif isinstance(expression, Cast):
        yield from oracle_iter_expressions(expression.operand)
    elif isinstance(expression, CaseWhen):
        for condition, result in expression.conditions:
            yield from oracle_iter_expressions(condition)
            yield from oracle_iter_expressions(result)
        yield from oracle_iter_expressions(expression.else_result)
    elif isinstance(expression, IsNull):
        yield from oracle_iter_expressions(expression.operand)
    elif isinstance(expression, InList):
        yield from oracle_iter_expressions(expression.operand)
        for value in expression.values:
            yield from oracle_iter_expressions(value)
    elif isinstance(expression, InSubquery):
        yield from oracle_iter_expressions(expression.operand)
    elif isinstance(expression, Between):
        yield from oracle_iter_expressions(expression.operand)
        yield from oracle_iter_expressions(expression.low)
        yield from oracle_iter_expressions(expression.high)
    elif isinstance(expression, Like):
        yield from oracle_iter_expressions(expression.operand)
        yield from oracle_iter_expressions(expression.pattern)


def oracle_iter_expression_subqueries(expression):
    for node in oracle_iter_expressions(expression):
        if isinstance(node, InSubquery):
            yield node.subquery
        elif isinstance(node, Exists):
            yield node.subquery
        elif isinstance(node, ScalarSubquery):
            yield node.query


def oracle_iter_relations(relation):
    if relation is None:
        return
    yield relation
    if isinstance(relation, Join):
        yield from oracle_iter_relations(relation.left)
        yield from oracle_iter_relations(relation.right)


def expression_sources(select):
    sources = [select.where, select.having]
    sources.extend(item.expression for item in select.select_items)
    sources.extend(select.group_by)
    sources.extend(item.expression for item in select.order_by)
    return sources


def oracle_iter_subqueries(select):
    for cte in select.ctes:
        yield cte.query
        yield from oracle_iter_subqueries(cte.query)
    for relation in oracle_iter_relations(select.from_relation):
        if isinstance(relation, SubqueryRef):
            yield relation.query
            yield from oracle_iter_subqueries(relation.query)
    for source in expression_sources(select):
        for subquery in oracle_iter_expression_subqueries(source):
            yield subquery
            yield from oracle_iter_subqueries(subquery)
    if select.set_right is not None:
        yield select.set_right
        yield from oracle_iter_subqueries(select.set_right)


def oracle_blocks(select):
    return [select, *oracle_iter_subqueries(select)]


def oracle_all_expressions(select):
    for query in oracle_blocks(select):
        sources = expression_sources(query)
        for relation in oracle_iter_relations(query.from_relation):
            if isinstance(relation, Join) and relation.condition is not None:
                sources.append(relation.condition)
        for source in sources:
            yield from oracle_iter_expressions(source)


def oracle_extract_tables(select):
    cte_names = {cte.name.lower() for query in oracle_blocks(select) for cte in query.ctes}
    tables, seen = [], set()
    for query in oracle_blocks(select):
        for relation in oracle_iter_relations(query.from_relation):
            if isinstance(relation, TableRef):
                key = relation.name.lower()
                if key not in seen and key not in cte_names:
                    seen.add(key)
                    tables.append(relation.name)
    return tables


def oracle_extract_columns(select):
    columns, seen = [], set()
    for expression in oracle_all_expressions(select):
        if isinstance(expression, ColumnRef):
            key = expression.name.lower()
            if key not in seen:
                seen.add(key)
                columns.append(expression.name)
    return columns


def oracle_extract_aggregates(select):
    return [
        expression.upper_name
        for expression in oracle_all_expressions(select)
        if isinstance(expression, FunctionCall) and expression.upper_name in AGGREGATE_FUNCTIONS
    ]


def oracle_extract_literals(select):
    return [
        expression.value
        for expression in oracle_all_expressions(select)
        if isinstance(expression, Literal) and expression.value is not None
    ]


def oracle_nesting_depth(select):
    return sum(1 for _ in oracle_iter_subqueries(select))


def oracle_count_joins(select):
    return sum(
        isinstance(relation, Join)
        for query in oracle_blocks(select)
        for relation in oracle_iter_relations(query.from_relation)
    )


def oracle_count_predicates(select):
    comparisons = {
        BinaryOperator.EQ,
        BinaryOperator.NEQ,
        BinaryOperator.LT,
        BinaryOperator.LTE,
        BinaryOperator.GT,
        BinaryOperator.GTE,
    }
    total = 0
    for expression in oracle_all_expressions(select):
        if isinstance(expression, BinaryOp) and expression.op in comparisons:
            total += 1
        elif isinstance(expression, (InList, InSubquery, Like, Between, IsNull, Exists)):
            total += 1
    return total


def oracle_analyze_query(sql, select):
    tokens = tokenize(sql)
    tables = oracle_extract_tables(select)
    columns = oracle_extract_columns(select)
    aggregates = oracle_extract_aggregates(select)
    complexity = QueryComplexity(
        keywords=sum(1 for token in tokens if token.kind is TokenKind.KEYWORD),
        tokens=len(tokens),
        tables=len(tables),
        columns=len(columns),
        aggregations=len(aggregates),
        nestings=oracle_nesting_depth(select),
        joins=oracle_count_joins(select),
        predicates=oracle_count_predicates(select),
        ctes=len(select.ctes),
        has_group_by=bool(select.group_by),
        has_order_by=bool(select.order_by),
        has_set_operation=any(query.set_operator is not None for query in oracle_blocks(select)),
    )
    return QueryProfile(
        complexity=complexity,
        tables=tables,
        columns=columns,
        aggregate_calls=aggregates,
        literals=oracle_extract_literals(select),
    )


def typed(values):
    """Values with their types, so ``1``, ``1.0`` and ``True`` stay distinct."""
    return [(type(value), value) for value in values]


def assert_matches_oracle(sql, select):
    profile = analyze_query(sql, select)
    expected = oracle_analyze_query(sql, select)
    assert profile == expected, sql
    assert typed(profile.literals) == typed(expected.literals), sql
    assert extract_tables(select) == expected.tables
    assert extract_columns(select) == expected.columns
    assert extract_references(select) == (expected.tables, expected.columns)
    assert extract_aggregates(select) == expected.aggregate_calls
    assert nesting_depth(select) == expected.complexity.nestings
    assert is_nested(select) is (oracle_nesting_depth(select) > 0)
    for query in oracle_blocks(select):
        sources = expression_sources(query)
        sources.extend(
            relation.condition
            for relation in oracle_iter_relations(query.from_relation)
            if isinstance(relation, Join)
        )
        for source in sources:
            assert [id(node) for node in iter_expressions(source)] == [
                id(node) for node in oracle_iter_expressions(source)
            ]


def blocks_and_units(sql):
    """``(sql, tree)`` of a statement and of each of its decomposition units."""
    select = parse_select(sql)
    return [(sql, select)] + [(unit.sql, unit.query) for unit in decompose(select).units]


class TestSinglePassParity:
    """The single-pass walk against the generator walks it replaced."""

    def test_corpus_replays_exactly(self):
        corpus = json.loads(ANALYZER_CORPUS_PATH.read_text(encoding="ascii"))
        schema_states, statements = fixture_statements()
        assert [[case["schema"], case["sql"]] for case in corpus["cases"]] == statements
        assert corpus["count"] == len(statements) == 325
        schemas = {name: schema_from_state(state) for name, state in schema_states.items()}
        for case in corpus["cases"]:
            replayed = record_statement(case["schema"], case["sql"], schemas[case["schema"]])
            assert json.dumps(replayed) == json.dumps(case), case["sql"]

    def test_matches_oracle_on_every_fixture_statement_and_unit(self):
        _, statements = fixture_statements()
        checked = 0
        for _, sql in statements:
            for text, select in blocks_and_units(sql):
                assert_matches_oracle(text, select)
                checked += 1
        assert checked == 950

    @given(
        family=st.sampled_from(BENCHMARK_NAMES),
        seed=st.integers(min_value=0, max_value=2),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_on_generated_workloads(self, generated_sql, family, seed, data):
        sql = data.draw(st.sampled_from(generated_sql[family, seed]))
        for text, select in blocks_and_units(sql):
            assert_matches_oracle(text, select)

    @pytest.mark.parametrize(
        "sql",
        [
            # subqueries inside join conditions are not blocks of their own
            "SELECT a FROM t JOIN u ON t.x IN (SELECT y FROM v) WHERE b = 1",
            "SELECT (SELECT MAX(c) FROM (SELECT c FROM w) AS d) FROM t "
            "WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k AND u.m IN (SELECT n FROM z)) "
            "UNION SELECT e FROM f ORDER BY 1",
            "WITH a AS (SELECT x FROM (SELECT x FROM t) AS s), b AS (SELECT * FROM a) "
            "SELECT CASE WHEN x BETWEEN 1 AND (SELECT 2) THEN NOT x LIKE 'p%' ELSE -x END "
            "FROM b LEFT JOIN c ON b.x = c.x AND c.y IS NOT NULL GROUP BY CAST(x AS TEXT) "
            "HAVING COUNT(DISTINCT x) > 1",
        ],
    )
    def test_matches_oracle_on_hand_written_edge_cases(self, sql):
        for text, select in blocks_and_units(sql):
            assert_matches_oracle(text, select)
