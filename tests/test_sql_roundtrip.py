"""Print/parse round trips and the one-parse-per-statement annotation drain.

The drain parses each submitted statement once and hands the decomposer's
unit trees (``QueryUnit.query``) to linking, retrieval, prompts and the LLM
instead of parsing every unit's printed text again.  That is only sound if

* every unit's text parses back to a tree identical to ``unit.query`` —
  compared by ``repr``, which is type-strict where dataclass ``==`` is not
  (``Literal(1) == Literal(1.0) == Literal(True)``), and
* nothing downstream mutates a unit tree, which matters because the outer
  unit's CTEs are the other units' trees.

Both halves are checked here, together with the parse count and the records
of sequential, batched and concurrent drains.  The drain also lexes each
statement once: a unit's retrieval keys come from the tokens the printer
wrote it with, which must be the tokens its text lexes to.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.pipeline as pipeline_module
from repro.core import AnnotationPipeline, AnnotationService, TaskConfig
from repro.engine.types import DataType
from repro.sql import decompose, lexer, parse, parse_select, print_select
from repro.sql.analyzer import is_nested
from repro.sql.ast_nodes import (
    CTE,
    Between,
    BinaryOp,
    BinaryOperator,
    CaseWhen,
    Cast,
    ColumnRef,
    Exists,
    FunctionCall,
    InList,
    InSubquery,
    IsNull,
    Join,
    JoinType,
    Like,
    Literal,
    OrderItem,
    ScalarSubquery,
    Select,
    SelectItem,
    SetOperator,
    Star,
    TableRef,
)
from repro.sql.lexer import Lexer, is_bare_identifier, tokenize
from repro.sql.normalizer import lexical_normalize, query_skeleton, sql_keys, token_keys
from repro.sql.parser import Parser
from repro.sql.printer import print_select_tokens
from repro.sql.tokens import TokenKind
from repro.workloads import BENCHMARK_NAMES, build_benchmark


def assert_round_trips(select: Select) -> None:
    """The printed text parses back to a type-strictly identical tree."""
    assert repr(parse_select(print_select(select))) == repr(select)


def assert_tokens_lex_back(select: Select) -> None:
    """The printer's tokens are the lex of its text, and give the same keys."""
    text, tokens = print_select_tokens(select)
    assert text == print_select(select)
    assert tokens == [(token.kind, token.value) for token in tokenize(text)]
    assert token_keys(tokens) == (query_skeleton(text), lexical_normalize(text))


# ----------------------------------------------------------------------
# generated traffic
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_gold_statements_and_units_round_trip(generated_sql, name):
    units = 0
    for seed in range(3):
        for sql in generated_sql[(name, seed)]:
            select = parse_select(sql)
            assert_round_trips(select)
            assert_tokens_lex_back(select)
            if not is_nested(select):
                continue
            decomposition = decompose(select)
            assert decomposition.decomposed_sql == print_select(decomposition.outer_unit.query)
            for unit in decomposition.units:
                assert repr(parse_select(unit.sql)) == repr(unit.query), unit.sql
                assert_tokens_lex_back(unit.query)
                assert unit.keys == sql_keys(unit.sql)
                units += 1
    assert units > 0


# ----------------------------------------------------------------------
# the two fixes: quoted identifiers and parameterized CAST
# ----------------------------------------------------------------------


class TestQuotedIdentifiers:
    def test_name_that_would_split_is_quoted(self):
        select = parse_select('SELECT "weird col" FROM t')
        assert print_select(select) == 'SELECT "weird col" FROM t'
        assert_round_trips(select)

    def test_bare_names_print_unchanged(self):
        sql = "SELECT t.a AS total, b FROM t AS x JOIN u USING (id)"
        assert print_select(parse_select(sql)) == sql

    @pytest.mark.parametrize(
        "name", ["key", "Select", "first", "1a", "a-b", "a b", "é", "x²", " a", "--"]
    )
    def test_every_name_position_reads_back(self, name):
        select = Select(
            select_items=[
                SelectItem(ColumnRef(name, table=name), alias=name),
                SelectItem(Star(table=name)),
            ],
            from_relation=Join(
                JoinType.INNER, TableRef(name, alias=name), TableRef("u"),
                using_columns=[name],
            ),
            ctes=[CTE(name, Select(select_items=[SelectItem(Literal(1))]), [name])],
        )
        assert_round_trips(select)

    def test_name_with_double_quote_is_backticked(self):
        select = Select(select_items=[SelectItem(ColumnRef('a"b'))])
        assert print_select(select) == 'SELECT `a"b`'
        assert_round_trips(select)

    @pytest.mark.parametrize("name", ['a"b`c', '`"', '"`"', 'x""y``z', '" `', '"""``'])
    def test_name_with_both_quote_characters_reads_back(self, name):
        select = Select(
            select_items=[SelectItem(ColumnRef(name, table=name), alias=name)],
            from_relation=TableRef(name, alias=name),
        )
        assert print_select(select).startswith('SELECT "')
        assert_round_trips(select)

    @pytest.mark.parametrize("name", ["a", "_x", "x$y", "MyCol", "é", "x²", "ﬁ"])
    def test_bare_identifier_matches_the_lexer(self, name):
        tokens = tokenize(name)
        reads_back = (
            len(tokens) == 1
            and tokens[0].kind is TokenKind.IDENTIFIER
            and tokens[0].value == name
        )
        assert is_bare_identifier(name) is reads_back is True

    @pytest.mark.parametrize("name", ["KEY", "select", "1a", "a b", "½", "²a", "ſelect"])
    def test_non_bare_identifiers(self, name):
        assert not is_bare_identifier(name)


class TestParameterizedCast:
    def test_cast_keeps_type_parameters(self):
        cast = parse_select("SELECT CAST(a AS DECIMAL(10, 2)) FROM t").select_items[0].expression
        assert cast.target_type == "DECIMAL(10,2)"
        assert_round_trips(parse_select("SELECT CAST(a AS DECIMAL(10, 2)) FROM t"))

    def test_print_parse_cycles_are_stable(self):
        text = "SELECT CAST(a AS NUMERIC(5, 0)) FROM t"
        for _ in range(3):
            text = print_select(parse_select(text))
        assert text == "SELECT CAST(a AS NUMERIC(5,0)) FROM t"

    def test_column_definitions_share_the_type_syntax(self):
        column = parse("CREATE TABLE t (price DECIMAL(10, 2))").columns[0]
        assert column.type_name == "DECIMAL(10,2)"

    def test_engine_reads_the_parameterized_type(self):
        assert DataType.from_sql("DECIMAL(10,2)") is DataType.from_sql("DECIMAL") is DataType.REAL
        assert DataType.from_sql("VARCHAR(255)") is DataType.TEXT


# ----------------------------------------------------------------------
# property: generated SELECT trees survive print -> parse unchanged
# ----------------------------------------------------------------------

_names = st.one_of(
    st.sampled_from(["a", "b", "t", "key", "first", "weird col", "Select", "x$y", "é", "1a"]),
    # Only a name holding both quote characters has no spelling that reads back.
    st.text(min_size=1, max_size=8).filter(lambda name: not ('"' in name and "`" in name)),
)
_literals = st.one_of(
    st.integers(min_value=0, max_value=10**12),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(abs),
    st.text(max_size=8),
    st.sampled_from([None, True, False]),
).map(Literal)
_columns = st.builds(ColumnRef, _names, st.one_of(st.none(), _names))
_types = st.one_of(
    st.sampled_from(["INT", "TEXT", "REAL"]),
    st.builds(
        lambda base, params: f"{base}({','.join(map(str, params))})",
        st.sampled_from(["DECIMAL", "NUMERIC", "VARCHAR"]),
        st.lists(st.integers(min_value=0, max_value=999), min_size=1, max_size=2),
    ),
)
_arithmetic = st.sampled_from(
    [BinaryOperator.ADD, BinaryOperator.SUB, BinaryOperator.MUL, BinaryOperator.CONCAT]
)
_comparisons = st.sampled_from([BinaryOperator.EQ, BinaryOperator.LT, BinaryOperator.GTE])
_scalars = st.recursive(
    st.one_of(_columns, _literals),
    lambda inner: st.one_of(
        st.builds(BinaryOp, _arithmetic, inner, inner),
        st.builds(Cast, inner, _types),
        st.builds(
            FunctionCall,
            st.sampled_from(["MAX", "LOWER", "COALESCE"]),
            st.lists(inner, min_size=1, max_size=3),
        ),
    ),
    max_leaves=6,
)


def _simple_selects(conditions=None):
    """One query block; ``conditions`` (when given) fill WHERE."""
    return st.builds(
        Select,
        select_items=st.lists(
            st.builds(SelectItem, _scalars, st.one_of(st.none(), _names)), min_size=1, max_size=3
        ),
        from_relation=st.builds(TableRef, _names, st.one_of(st.none(), _names)),
        where=st.none() if conditions is None else st.one_of(st.none(), conditions),
    )


_atoms = st.one_of(
    st.builds(BinaryOp, _comparisons, _scalars, _scalars),
    st.builds(IsNull, _scalars, st.booleans()),
    st.builds(InList, _scalars, st.lists(_scalars, min_size=1, max_size=3), st.booleans()),
    st.builds(Between, _scalars, _scalars, _scalars, st.booleans()),
    st.builds(Like, _scalars, st.text(max_size=6).map(Literal), st.booleans()),
    st.builds(InSubquery, _scalars, _simple_selects(), st.booleans()),
    st.builds(Exists, _simple_selects(), st.booleans()),
)
_conditions = st.recursive(
    _atoms,
    lambda inner: st.builds(
        BinaryOp, st.sampled_from([BinaryOperator.AND, BinaryOperator.OR]), inner, inner
    ),
    max_leaves=4,
)
_relations = st.one_of(
    st.builds(TableRef, _names, st.one_of(st.none(), _names)),
    st.builds(
        Join,
        st.sampled_from([JoinType.INNER, JoinType.LEFT]),
        st.builds(TableRef, _names, _names),
        st.builds(TableRef, _names),
        st.one_of(st.none(), _conditions),
        st.lists(_names, max_size=2),
    ).filter(lambda join: join.condition is None or not join.using_columns),
    st.builds(Join, st.just(JoinType.CROSS), st.builds(TableRef, _names), st.builds(TableRef, _names)),
)
_items = st.one_of(
    st.builds(SelectItem, _scalars, st.one_of(st.none(), _names)),
    st.builds(SelectItem, st.builds(Star, st.one_of(st.none(), _names))),
    st.builds(SelectItem, st.builds(ScalarSubquery, _simple_selects())),
    st.builds(
        SelectItem,
        st.builds(
            CaseWhen,
            st.lists(st.tuples(_atoms, _scalars), min_size=1, max_size=2),
            st.one_of(st.none(), _scalars),
        ),
    ),
)


@st.composite
def _selects(draw):
    limit = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=100)))
    return Select(
        select_items=draw(st.lists(_items, min_size=1, max_size=3)),
        distinct=draw(st.booleans()),
        from_relation=draw(_relations),
        where=draw(st.one_of(st.none(), _conditions)),
        group_by=draw(st.lists(_scalars, max_size=2)),
        having=draw(st.one_of(st.none(), _conditions)),
        order_by=draw(
            st.lists(
                st.builds(OrderItem, _scalars, st.booleans(), st.sampled_from([None, True, False])),
                max_size=2,
            )
        ),
        limit=limit,
        offset=None if limit is None else draw(st.one_of(st.none(), st.integers(0, 100))),
        ctes=draw(
            st.lists(
                st.builds(CTE, _names, _simple_selects(_conditions), st.lists(_names, max_size=2)),
                max_size=2,
            )
        ),
        set_operator=(operator := draw(st.sampled_from([None, *SetOperator]))),
        set_right=None if operator is None else draw(_set_chains()),
    )


@st.composite
def _set_chains(draw):
    """The operands after the head of a set-operation chain, linked in order."""
    operands = draw(st.lists(_simple_selects(_conditions), min_size=1, max_size=2))
    for left, right in zip(operands, operands[1:]):
        left.set_operator = draw(st.sampled_from(list(SetOperator)))
        left.set_right = right
    return operands[0]


@given(_selects())
@settings(max_examples=200, deadline=None)
def test_generated_selects_round_trip(select):
    assert_round_trips(select)


@given(_selects())
@settings(max_examples=200, deadline=None)
def test_generated_selects_print_the_tokens_they_lex_to(select):
    assert_tokens_lex_back(select)


CHAINED_SET_OPERATIONS = [
    "SELECT 1 UNION SELECT 2 UNION SELECT 3",
    "SELECT a FROM t EXCEPT SELECT b FROM u UNION ALL SELECT c FROM v ORDER BY 1 ASC",
    "SELECT a FROM t UNION SELECT b FROM u INTERSECT SELECT c FROM v "
    "EXCEPT SELECT d FROM w LIMIT 5",
    "WITH x AS (SELECT a FROM t) SELECT a FROM x UNION ALL SELECT b FROM u "
    "UNION ALL SELECT c FROM v UNION SELECT d FROM w ORDER BY 1 DESC LIMIT 3 OFFSET 1",
]


@pytest.mark.parametrize("sql", CHAINED_SET_OPERATIONS)
def test_chained_set_operations_round_trip(sql):
    select = parse_select(sql)
    operands = [select]
    while operands[-1].set_right is not None:
        operands.append(operands[-1].set_right)
    assert len(operands) == sql.count("SELECT") - len(select.ctes)
    # ORDER BY / LIMIT belong to the head; the other operands carry none.
    assert all(not o.order_by and o.limit is None for o in operands[1:])
    assert print_select(select) == sql
    assert_round_trips(select)


# ----------------------------------------------------------------------
# the drain parses each statement once, and records do not move
# ----------------------------------------------------------------------

#: Records digest of each project, recorded with the re-parsing drain that
#: preceded the unit-tree hand-off (sequential, batched and concurrent
#: drains all produced it).
RECORD_DIGESTS = {"beaver": "3979019250eb04e5", "spider": "96dfee46f3b0f92a"}


@pytest.fixture(scope="module")
def drain_workloads():
    """Nested-heavy Beaver (11 of 12 nested) and mostly flat Spider (3 of 8)."""
    workloads = {
        "beaver": build_benchmark("Beaver", seed=5, row_scale=0.0004, query_count=12),
        "spider": build_benchmark("Spider", seed=5, row_scale=0.0004, query_count=8),
    }
    nested = {
        name: sum(is_nested(parse_select(sql)) for sql in workload.query_sql)
        for name, workload in workloads.items()
    }
    assert nested == {"beaver": 11, "spider": 3}
    return workloads


@pytest.fixture()
def parse_calls(monkeypatch):
    """Counts ``Parser.parse_statement`` calls from here on."""
    calls = []
    original = Parser.parse_statement

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(Parser, "parse_statement", counting)
    return calls


def records_digest(records) -> str:
    rows = [[r.query_id, r.nl, r.accepted, list(r.candidates)] for r in records]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize("mode", ["sequential", "batched"])
def test_pipeline_parses_each_statement_once(drain_workloads, parse_calls, mode):
    for name, workload in drain_workloads.items():
        parse_calls.clear()
        pipeline = AnnotationPipeline(workload.schema, dataset_name=name)
        if mode == "sequential":
            records = [pipeline.annotate(sql) for sql in workload.query_sql]
        else:
            records = pipeline.annotate_many(workload.query_sql, batch_size=4)
            assert pipeline.last_run_stats.regenerated_queries > 0  # stale path covered
        assert len(parse_calls) == len(workload.query_sql)
        assert records_digest(records) == RECORD_DIGESTS[name]


@pytest.mark.parametrize("concurrency", [1, 2])
def test_service_drain_parses_each_statement_once(drain_workloads, parse_calls, concurrency):
    service = AnnotationService()
    for name, workload in drain_workloads.items():
        service.register_project(name, workload.schema)
        service.submit_many(workload.query_sql, project=name)
    parse_calls.clear()
    service.drain(concurrency=concurrency)
    assert len(parse_calls) == sum(len(w.query_sql) for w in drain_workloads.values())
    assert {
        name: records_digest(service.pipeline(name).annotations) for name in drain_workloads
    } == RECORD_DIGESTS


@pytest.fixture()
def lexed_texts(monkeypatch):
    """The texts ``Lexer.tokenize`` lexes from here on (lexer cache emptied)."""
    texts = []
    original = Lexer.tokenize

    def counting(self):
        texts.append(self._text)
        return original(self)

    lexer._lex.cache_clear()
    monkeypatch.setattr(Lexer, "tokenize", counting)
    return texts


@pytest.mark.parametrize(
    "mode, batch_size, concurrency",
    [("sequential", 1, 1), ("batched", 4, 1), ("concurrent", 4, 2)],
)
def test_service_drain_lexes_each_statement_once(
    drain_workloads, lexed_texts, mode, batch_size, concurrency
):
    service = AnnotationService()
    statements = []
    for name, workload in drain_workloads.items():
        service.register_project(name, workload.schema, config=TaskConfig(batch_size=batch_size))
        service.submit_many(workload.query_sql, project=name)
        statements += [sql.strip().rstrip(";") for sql in workload.query_sql]
    lexed_texts.clear()
    service.drain(concurrency=concurrency)
    # Each statement is lexed by its parse and by nothing else: the units'
    # keys come from the decomposer's print, the statement's from that lex.
    assert Counter(lexed_texts) == Counter(set(statements))
    assert {
        name: records_digest(service.pipeline(name).annotations) for name in drain_workloads
    } == RECORD_DIGESTS


def test_drain_leaves_unit_trees_untouched(drain_workloads, monkeypatch):
    decompositions = []

    def recording(select):
        result = decompose(select)
        decompositions.append((result, [repr(unit.query) for unit in result.units]))
        return result

    monkeypatch.setattr(pipeline_module, "decompose", recording)
    service = AnnotationService(max_concurrency=2)
    for name, workload in drain_workloads.items():
        service.register_project(name, workload.schema)
        service.submit_many(workload.query_sql, project=name)
    service.drain()
    assert len(decompositions) == 14
    for result, before in decompositions:
        assert [repr(unit.query) for unit in result.units] == before
        for unit in result.units:
            assert repr(parse_select(unit.sql)) == repr(unit.query)
