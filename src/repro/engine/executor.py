"""Query executor for the in-memory relational engine.

Executes :class:`repro.sql.ast_nodes.Select` trees against a
:class:`repro.engine.database.Database`.  Supports the query shapes produced
by the workload generators and needed by the evaluation harnesses:

* joins (inner/left/right/full/cross) with ON / USING conditions,
* WHERE filters with three-valued NULL handling,
* GROUP BY / HAVING with the aggregate functions in
  :mod:`repro.engine.functions`, including implicit aggregation
  (``SELECT COUNT(*) FROM t``),
* correlated and uncorrelated subqueries (scalar, IN, EXISTS),
* common table expressions, set operations, DISTINCT, ORDER BY, LIMIT/OFFSET.

A SELECT is one pipeline of stages: scan (or stream) and filter, aggregate
or project, distinct, then the ORDER BY and LIMIT/OFFSET tail that a
set-operation chain shares after its ``set_op`` links.  Every stage runs
through :meth:`Executor._stage`, the one place that records what EXPLAIN
ANALYZE reports (op, seconds, rows in and out, detail), and only while an
analysis is collecting.

Each WHERE predicate, join condition, projection item, grouping key, ORDER
BY key and HAVING clause is compiled once into a Python closure with column
indices pre-resolved (:mod:`repro.engine.compiler`, the one expression
evaluator); AND-of-equality join conditions run as multi-key hash joins; a
top-level FROM chain with a cross product streams into WHERE, with a leading
run of single-input conjuncts pushed onto the product's operands.  Compiled
plans are cached per AST node and relation shape, invalidated by the
database's catalog version; a plan inside a correlated subquery reads the
outer row it runs for, so it is compiled per execution instead.  Results
are checked against a recorded golden (``tests/data/engine_golden.json``)
and against ``sqlite3`` (``tests/test_engine_oracle.py``).
"""

from __future__ import annotations

import functools
import operator
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import ExecutionError
from repro.engine.compiler import (
    RowContext,
    compile_group_expression,
    compile_row_expression,
    contains_aggregate as _contains_aggregate,
)
from repro.engine.runtime import (
    MemberSet,
    distinct_rows as _distinct_rows,
    hashable_key as _hashable,
    is_true as _is_true,
    null_aware_compare as _null_aware_compare,
    row_key as _row_key,
)
from repro.engine.storage import ColumnLabel, Relation
from repro.engine.types import SQLValue
from repro.sql.analyzer import iter_expressions
from repro.sql.ast_nodes import (
    BinaryOp,
    BinaryOperator,
    ColumnRef,
    Exists,
    Expression,
    FunctionCall,
    InSubquery,
    Join,
    JoinType,
    Literal,
    OrderItem,
    Relation as ASTRelation,
    ScalarSubquery,
    Select,
    SelectItem,
    SetOperator,
    Star,
    SubqueryRef,
    TableRef,
)
from repro.sql.printer import print_expression

#: Compiled-plan cache bound; the cache is cleared wholesale beyond this.
_PLAN_CACHE_LIMIT = 4096

#: Cached-subquery-result bound.
_SUBQUERY_CACHE_LIMIT = 1024

#: Operator-entry bound for one EXPLAIN ANALYZE run (correlated subqueries
#: re-execute per outer row and would otherwise grow the list without bound).
_ANALYZE_OPERATOR_LIMIT = 256


class _CachedSubquery:
    """What one subquery's context-free execution gave.

    Either a result tagged with the data version it read, or, when the
    execution raised, ``result=None``: the subquery is correlated, whatever
    the version.  ``members`` is the hashed first-column :class:`MemberSet`
    of a result for ``IN``, built on first use and dropped with the entry,
    so DML invalidates the result and its member set together.
    """

    __slots__ = ("subquery", "version", "result", "members")

    def __init__(self, subquery: Select, version: int, result: "QueryResult | None") -> None:
        self.subquery = subquery
        self.version = version
        self.result = result
        self.members: MemberSet | None = None


class _AnalyzeCollector:
    """Accumulates per-operator timings during one EXPLAIN ANALYZE execution.

    The executor holds at most one collector at a time (``Executor._analyze``);
    when it is ``None`` — the normal case — only ``Executor._execute_body``
    and ``Executor._stage`` look at it.  ``depth`` tracks SELECT-body
    nesting (subqueries, CTE bodies, set-operation branches) so the operator
    list can be rendered as a tree.
    """

    __slots__ = ("operators", "depth", "truncated")

    def __init__(self) -> None:
        self.operators: list[dict] = []
        self.depth = 0
        self.truncated = False

    def record(
        self, op: str, seconds: float, rows_in: int, rows_out: int, **detail
    ) -> None:
        if len(self.operators) >= _ANALYZE_OPERATOR_LIMIT:
            self.truncated = True
            return
        entry = {
            "op": op,
            "seconds": round(seconds, 9),
            "rows_in": rows_in,
            "rows_out": rows_out,
            "depth": self.depth - 1,
        }
        if detail:
            entry.update(detail)
        self.operators.append(entry)


@dataclass
class QueryResult:
    """Materialised result of executing a query."""

    columns: list[str]
    rows: list[tuple[SQLValue, ...]] = field(default_factory=list)

    def as_relation(self) -> Relation:
        """View the result as an executor relation (columns unqualified),
        sharing its rows."""
        labels = [ColumnLabel(name=name) for name in self.columns]
        return Relation(labels=labels, rows=self.rows)

    def __len__(self) -> int:
        return len(self.rows)


class Executor:
    """Executes SELECT statements against a database's table catalog."""

    def __init__(self, database: "Database") -> None:  # noqa: F821
        self._database = database
        # What each subquery's context-free execution gave, keyed by AST node
        # id.  The node itself is kept in the value so its id cannot be reused
        # while the entry is alive; a result is tagged with the database's
        # data version so DML invalidates it lazily without a full clear.
        self._subquery_cache: dict[int, _CachedSubquery] = {}
        # Compiled-plan cache: (node id, kind, relation signature) -> closure
        # or join plan.  Tagged with the catalog version: schema changes can
        # move column indices.
        self._plan_cache: dict[tuple, tuple[object, object]] = {}
        self._plan_version: int = -1
        #: Compiled-plan cache accounting (EXPLAIN ANALYZE reports deltas).
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        # Active EXPLAIN ANALYZE collector; None outside analyze_select.
        self._analyze: _AnalyzeCollector | None = None

    def _uncorrelated_subquery(self, subquery: Select) -> _CachedSubquery | None:
        """The cached result of an uncorrelated subquery, or ``None``.

        The first execution is attempted without the outer row context; if that
        succeeds the subquery cannot reference outer columns and its result is
        reused for every outer row — and, because results are tagged with the
        database's data version, across repeated executions of the same cached
        statement until the next DML.  A subquery whose context-free attempt
        fails is remembered as correlated (``None`` from then on), so later
        rows skip the doomed attempt.
        """
        version = self._database.data_version
        key = id(subquery)
        cached = self._subquery_cache.get(key)
        if cached is not None and cached.subquery is subquery:
            if cached.result is None:
                return None
            if cached.version == version:
                return cached
        try:
            result = self.execute_select(subquery, None)
        except ExecutionError:
            result = None
        if len(self._subquery_cache) >= _SUBQUERY_CACHE_LIMIT:
            self._subquery_cache.clear()
        cached = self._subquery_cache[key] = _CachedSubquery(subquery, version, result)
        return cached if result is not None else None

    def _execute_subquery_cached(self, subquery: Select, context: RowContext) -> QueryResult:
        """Execute a subquery: the cached result when uncorrelated, else per row."""
        cached = self._uncorrelated_subquery(subquery)
        if cached is not None:
            return cached.result
        return self.execute_select(subquery, context)

    def _subquery_members(self, subquery: Select, context: RowContext) -> MemberSet:
        """The first-column members of an ``IN`` subquery.

        An uncorrelated subquery hashes its cached result once and keeps the
        set on the cache entry.  A correlated one runs per row and is scanned
        linearly.
        """
        cached = self._uncorrelated_subquery(subquery)
        if cached is None:
            rows = self.execute_select(subquery, context).rows
            return MemberSet((row[0] for row in rows if row), hashed=False)
        if cached.members is None:
            cached.members = MemberSet(row[0] for row in cached.result.rows if row)
        return cached.members

    # ------------------------------------------------------------------
    # compiled-plan helpers
    # ------------------------------------------------------------------

    def _cached_plan(self, anchor: object, kind: str, signature: tuple, build):
        """Memoise a compiled artifact for an AST node under a relation shape.

        ``anchor`` is the AST node the artifact was derived from; it is stored
        in the entry so its id cannot be recycled while the entry lives.  The
        ``signature`` (typically the relation's label tuple) guards against
        the same node being compiled against differently-shaped inputs.
        """
        if self._plan_version != self._database.catalog_version:
            self._plan_cache.clear()
            self._plan_version = self._database.catalog_version
        key = (id(anchor), kind, signature)
        entry = self._plan_cache.get(key)
        if entry is not None and entry[0] is anchor:
            self.plan_cache_hits += 1
            return entry[1]
        self.plan_cache_misses += 1
        value = build()
        if len(self._plan_cache) >= _PLAN_CACHE_LIMIT:
            self._plan_cache.clear()
        self._plan_cache[key] = (anchor, value)
        return value

    def _subquery_handler(self, relation: Relation, outer: RowContext | None):
        """Compiler hook: maps a subquery node to a ``row -> QueryResult`` runner.

        The runner binds the evaluating row as the subquery's outer context,
        above the evaluation's own ``outer`` chain, so a subquery nested
        inside a correlated one reads every enclosing row.
        """

        def handler(subquery: Select, members: bool = False):
            execute = self._subquery_members if members else self._execute_subquery_cached

            def run(row: tuple):
                return execute(subquery, RowContext(relation, row, outer))

            return run

        return handler

    def _row_evaluator(self, expression: Expression, relation: Relation, outer: RowContext | None):
        """The compiled closure that evaluates ``expression`` once per row."""
        return self._evaluator(compile_row_expression, "row", expression, relation, outer)

    def _group_evaluator(self, expression: Expression, source: Relation, outer: RowContext | None):
        """The compiled closure that evaluates an aggregation-mode expression per group."""
        return self._evaluator(compile_group_expression, "group", expression, source, outer)

    def _evaluator(
        self,
        compile_expression,
        kind: str,
        expression: Expression,
        relation: Relation,
        outer: RowContext | None,
    ):
        """Compile ``expression`` against ``relation``, cached at the top level.

        Under an outer context (inside a correlated subquery) the closure
        reads the bound outer rows, so it is compiled per execution and not
        cached.
        """
        if outer is not None:
            return compile_expression(
                expression, relation, self._subquery_handler(relation, outer), outer
            )
        return self._cached_plan(
            expression,
            kind,
            tuple(relation.labels),
            lambda: compile_expression(expression, relation, self._subquery_handler(relation, None)),
        )

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------

    def execute_select(self, select: Select, outer: RowContext | None = None) -> QueryResult:
        """Execute a SELECT and return a materialised result."""
        return self._execute_body(select, self._cte_scope(select, outer), outer)

    def _cte_scope(self, select: Select, outer: RowContext | None) -> dict[str, Relation]:
        """Materialise a SELECT's CTEs into a name -> relation scope."""
        cte_scope: dict[str, Relation] = {}
        for cte in select.ctes:
            result = self.execute_select(cte.query, outer)
            relation = result.as_relation()
            if cte.column_names:
                if len(cte.column_names) != len(relation.labels):
                    raise ExecutionError(
                        f"CTE {cte.name!r} declares {len(cte.column_names)} columns "
                        f"but its query produces {len(relation.labels)}"
                    )
                relation = Relation(
                    labels=[ColumnLabel(name=name) for name in cte.column_names],
                    rows=relation.rows,
                )
            cte_scope[cte.name.lower()] = relation
        return cte_scope

    def explain_select(self, select: Select) -> dict:
        """Describe a SELECT without executing it: statement and set operator."""
        info: dict = {"statement": "Select"}
        if select.set_operator is not None and select.set_right is not None:
            info["set_operation"] = select.set_operator.value
        return info

    # ------------------------------------------------------------------
    # core execution
    # ------------------------------------------------------------------

    def analyze_select(self, select: Select) -> dict:
        """Execute a SELECT with per-operator instrumentation (EXPLAIN ANALYZE).

        Returns the executed operator list (wall time, rows in/out, nesting
        depth), total wall time, rows/columns returned, and the per-query
        delta of the compiled-plan cache counters.  The
        execution is observed, never perturbed: the collector only reads
        stage boundaries, so the produced rows are bit-identical to a plain
        ``execute_select``.
        """
        if self._analyze is not None:
            raise ExecutionError("EXPLAIN ANALYZE cannot be nested")
        collector = _AnalyzeCollector()
        plan_hits = self.plan_cache_hits
        plan_misses = self.plan_cache_misses
        self._analyze = collector
        started = time.perf_counter()
        try:
            result = self.execute_select(select)
        finally:
            self._analyze = None
        total = time.perf_counter() - started
        return {
            "operators": collector.operators,
            "truncated": collector.truncated,
            "total_seconds": round(total, 9),
            "rows_returned": len(result.rows),
            "columns": list(result.columns),
            "plan_cache": {
                "hits": self.plan_cache_hits - plan_hits,
                "misses": self.plan_cache_misses - plan_misses,
            },
        }

    def _execute_body(
        self, select: Select, cte_scope: dict[str, Relation], outer: RowContext | None
    ) -> QueryResult:
        collector = self._analyze
        if collector is not None:
            collector.depth += 1
        # The depth must come back even when a context-free subquery attempt
        # aborts with ExecutionError mid-body (see _uncorrelated_subquery).
        try:
            if select.set_operator is not None and select.set_right is not None:
                return self._execute_set_operation(select, cte_scope, outer)
            return self._execute_stages(select, cte_scope, outer)
        finally:
            if collector is not None:
                collector.depth -= 1

    def _stage(self, op: str, rows_in, run, *args, **detail):
        """Run one stage of the SELECT pipeline, ``run(*args)``; return its output.

        While EXPLAIN ANALYZE collects (``self._analyze``), and only then,
        the stage is recorded as ``op`` with its wall time, ``rows_in``, the
        length of its output as rows out, and ``detail``.  A FROM stage
        learns what it read as it runs: its ``rows_in`` is a function that
        reads ``(rows in, rows out, detail)`` off its output.
        """
        collector = self._analyze
        if collector is None:
            return run(*args)
        started = time.perf_counter()
        output = run(*args)
        seconds = time.perf_counter() - started
        if callable(rows_in):
            rows_in, rows_out, found = rows_in(output)
            detail.update(found)
        else:
            rows_out = len(output)
        collector.record(op, seconds, rows_in, rows_out, **detail)
        return output

    def _execute_stages(
        self, select: Select, cte_scope: dict[str, Relation], outer: RowContext | None
    ) -> QueryResult:
        """One SELECT: FROM and WHERE, aggregate or project, DISTINCT, the tail."""
        chain = _cross_chain(select.from_relation) if outer is None else None
        if chain is not None:
            source, rows, _ = self._stage(
                "stream", _stream_counts, self._stream, select, cte_scope, chain
            )
        else:
            relation = select.from_relation
            name = "dual" if relation is None else type(relation).__name__
            source = self._stage(
                "scan", _scan_counts, self._execute_relation, relation, cte_scope, outer, source=name
            )
            rows = source.rows
            if select.where is not None:
                rows = self._stage(
                    "filter", len(rows), self._where, select.where, source, rows, outer
                )
            else:
                # The one copy of the FROM rows: a SELECT * result must not
                # share a stored table's list, which inserts extend in place.
                rows = list(rows)

        aggregated = bool(select.group_by) or self._has_aggregate_items(select)
        result = self._stage(
            "aggregate" if aggregated else "project",
            len(rows),
            self._execute_aggregation if aggregated else self._execute_projection,
            select,
            source,
            rows,
            outer,
        )
        if select.distinct:
            result = QueryResult(
                columns=result.columns,
                rows=self._stage("distinct", len(result.rows), _distinct_rows, result.rows),
            )
        return self._order_and_limit(select, result, outer, source, None if aggregated else rows)

    def _where(
        self,
        where: Expression | None,
        source: Relation,
        rows: Iterable[tuple[SQLValue, ...]],
        outer: RowContext | None,
    ) -> list[tuple[SQLValue, ...]]:
        """The rows that satisfy a WHERE clause (all of them without one)."""
        if where is None:
            return list(rows)
        predicate = self._row_evaluator(where, source, outer)
        return [row for row in rows if _is_true(predicate(row))]

    def _execute_set_operation(
        self, select: Select, cte_scope: dict[str, Relation], outer: RowContext | None
    ) -> QueryResult:
        # The chain ``A op1 B op2 C`` folds left to right: ``(A op1 B) op2 C``.
        result = self._execute_body(_set_operand(select), cte_scope, outer)
        node = select
        while node.set_operator is not None and node.set_right is not None:
            left = result
            right = self._execute_body(_set_operand(node.set_right), cte_scope, outer)
            if len(left.columns) != len(right.columns):
                raise ExecutionError(
                    "set operation requires both sides to produce the same number of columns"
                )
            rows = self._stage(
                "set_op",
                len(left.rows) + len(right.rows),
                _combine,
                node.set_operator,
                left.rows,
                right.rows,
                operator=node.set_operator.value,
            )
            result = QueryResult(columns=left.columns, rows=rows)
            node = node.set_right
        return self._order_and_limit(select, result, outer)

    def _order_and_limit(
        self,
        select: Select,
        result: QueryResult,
        outer: RowContext | None,
        source: Relation | None = None,
        source_rows: list[tuple[SQLValue, ...]] | None = None,
    ) -> QueryResult:
        """ORDER BY, then LIMIT/OFFSET: the tail of a SELECT and of a set-operation chain.

        ``source`` is a SELECT's FROM relation, whose select items an ORDER
        BY key may match; ``None`` for a set-operation chain, which sorts its
        output relation alone.  ``source_rows`` are the rows a SELECT
        projected (``None`` after aggregation).
        """
        rows = result.rows
        if select.order_by:
            rows = self._stage(
                "sort", len(rows), self._sort_rows, select, result, outer, source, source_rows,
                keys=len(select.order_by),
            )
        if select.limit is not None or select.offset is not None:
            offset = select.offset or 0
            end = offset + select.limit if select.limit is not None else None
            rows = self._stage("limit", len(rows), operator.getitem, rows, slice(offset, end))
        return result if rows is result.rows else QueryResult(columns=result.columns, rows=rows)

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------

    def _execute_relation(
        self,
        relation: ASTRelation | None,
        cte_scope: dict[str, Relation],
        outer: RowContext | None,
    ) -> Relation:
        if relation is None:
            # SELECT without FROM: a single empty row so expressions evaluate once.
            return Relation(labels=[], rows=[tuple()])
        if isinstance(relation, TableRef):
            return self._resolve_table(relation, cte_scope)
        if isinstance(relation, SubqueryRef):
            result = self.execute_select(relation.query, outer)
            return result.as_relation().renamed(relation.alias)
        if isinstance(relation, Join):
            return self._execute_join(relation, cte_scope, outer)
        raise ExecutionError(f"unsupported relation node {type(relation).__name__}")

    def _resolve_table(self, table_ref: TableRef, cte_scope: dict[str, Relation]) -> Relation:
        key = table_ref.name.lower()
        if key in cte_scope:
            relation = cte_scope[key]
            return relation.renamed(table_ref.effective_name)
        stored = self._database.table(table_ref.name)
        return stored.to_relation(alias=table_ref.effective_name)

    def _execute_join(
        self, join: Join, cte_scope: dict[str, Relation], outer: RowContext | None
    ) -> Relation:
        left = self._execute_relation(join.left, cte_scope, outer)
        right = self._execute_relation(join.right, cte_scope, outer)

        pads_right = join.join_type in (JoinType.RIGHT, JoinType.FULL)
        matched_right: set[int] | None = set() if pads_right else None
        plan = self._join_plan(join, left, right, outer)
        combined = plan.combined
        rows = list(self._join_rows(plan, left.rows, right.rows, matched_right))

        if pads_right:
            left_pad = tuple([None] * len(left.labels))
            for right_position, right_row in enumerate(right.rows):
                if right_position not in matched_right:
                    rows.append(left_pad + right_row)

        combined.rows = rows
        return combined

    def _join_condition(self, join: Join, left: Relation, right: Relation) -> Expression | None:
        """The join's ON condition, or the equality chain its USING list implies."""
        if not join.using_columns or join.condition is not None:
            return join.condition
        return self._cached_plan(
            join,
            "using",
            (tuple(left.labels), tuple(right.labels)),
            lambda: self._build_using_condition(join.using_columns, left, right),
        )

    def _join_plan(
        self, join: Join, left: Relation, right: Relation, outer: RowContext | None
    ) -> "_JoinPlan":
        """Plan one join from its inputs' labels (rows are not read).

        Raises what the join raises before its first row (a USING column
        missing from one side); everything a join can raise afterwards comes
        from its residual or nested-loop condition, which ``pure`` reports.
        """
        combined = Relation(labels=left.labels + right.labels)
        condition = self._join_condition(join, left, right)
        pad = tuple([None] * len(right.labels))
        pad_left = join.join_type in (JoinType.LEFT, JoinType.FULL)
        if condition is None:
            return _JoinPlan(combined, pad, pad_left, [], None, None)
        key_pairs, residual = self._cached_plan(
            condition,
            "join",
            tuple(combined.labels),
            lambda: self._hash_join_plan(condition, left, combined),
        )
        if key_pairs:
            residual_fn = (
                self._row_evaluator(residual, combined, outer) if residual is not None else None
            )
            return _JoinPlan(combined, pad, pad_left, key_pairs, residual_fn, None)
        condition_fn = self._row_evaluator(condition, combined, outer)
        return _JoinPlan(combined, pad, pad_left, [], None, condition_fn)

    def _join_rows(
        self,
        plan: "_JoinPlan",
        left_rows: Iterable[tuple[SQLValue, ...]],
        right_rows: list[tuple[SQLValue, ...]],
        matched_right: set[int] | None,
    ) -> Iterator[tuple[SQLValue, ...]]:
        """Yield one join's rows, left-major, as the join defines them.

        The single join row routine: a materialized join lists it, a
        streamed FROM chain feeds it the previous join's rows.
        Rows come out left row by left row; a hash join emits a left row's
        matches in right-position order and a LEFT join pads an unmatched
        left row right after it.  ``matched_right`` (RIGHT/FULL joins only)
        collects the right positions that matched.
        """
        pad = plan.right_pad
        pad_left = plan.pad_left
        key_pairs = plan.key_pairs
        if key_pairs:
            residual_fn = plan.residual_fn
            buckets: dict[object, list[int]] = {}
            empty: list[int] = []
            if len(key_pairs) == 1:
                left_index, right_index = key_pairs[0]
                for position, right_row in enumerate(right_rows):
                    key = _hashable(right_row[right_index])
                    if key is not None:
                        buckets.setdefault(key, []).append(position)
                for left_row in left_rows:
                    key = _hashable(left_row[left_index])
                    positions = buckets.get(key, empty) if key is not None else empty
                    matched = False
                    for position in positions:
                        combined_row = left_row + right_rows[position]
                        if residual_fn is not None and not _is_true(residual_fn(combined_row)):
                            continue
                        yield combined_row
                        matched = True
                        if matched_right is not None:
                            matched_right.add(position)
                    if not matched and pad_left:
                        yield left_row + pad
                return
            left_indices = [pair[0] for pair in key_pairs]
            right_indices = [pair[1] for pair in key_pairs]
            for position, right_row in enumerate(right_rows):
                key_values = tuple(_hashable(right_row[index]) for index in right_indices)
                if not any(value is None for value in key_values):
                    buckets.setdefault(key_values, []).append(position)
            for left_row in left_rows:
                key_values = tuple(_hashable(left_row[index]) for index in left_indices)
                if any(value is None for value in key_values):
                    positions = empty
                else:
                    positions = buckets.get(key_values, empty)
                matched = False
                for position in positions:
                    combined_row = left_row + right_rows[position]
                    if residual_fn is not None and not _is_true(residual_fn(combined_row)):
                        continue
                    yield combined_row
                    matched = True
                    if matched_right is not None:
                        matched_right.add(position)
                if not matched and pad_left:
                    yield left_row + pad
            return

        condition_fn = plan.condition_fn
        if condition_fn is None:
            # No condition: the product (a LEFT join pads when the right is empty).
            if not right_rows:
                if pad_left:
                    for left_row in left_rows:
                        yield left_row + pad
                return
            for left_row in left_rows:
                if matched_right is not None and not matched_right:
                    matched_right.update(range(len(right_rows)))
                for right_row in right_rows:
                    yield left_row + right_row
            return

        # No usable equality keys: nested loop with a compiled condition.
        for left_row in left_rows:
            matched = False
            for right_position, right_row in enumerate(right_rows):
                combined_row = left_row + right_row
                if _is_true(condition_fn(combined_row)):
                    yield combined_row
                    matched = True
                    if matched_right is not None:
                        matched_right.add(right_position)
            if not matched and pad_left:
                yield left_row + pad

    # -- streamed FROM chains (top level) ------------------------------

    def _stream(
        self, select: Select, cte_scope: dict[str, Relation], chain: list[Join]
    ) -> tuple[Relation, list[tuple[SQLValue, ...]], dict]:
        """Stream a top-level FROM chain that has a cross product into WHERE.

        ``chain`` is the FROM tree's :func:`_cross_chain`.  Returns
        ``(source, rows, detail)`` — the joined labels (no rows), the joined
        rows that satisfy the WHERE clause, in exactly the order the
        materialized joins would produce them, and the per-input row counts
        EXPLAIN ANALYZE reports.

        The chain's inputs (the lowest cross product's left operand and
        every right operand above it) are resolved, and its joins
        planned, in the order the materialized path would; a join that can
        raise once rows flow (a residual or nested-loop condition) is listed
        on the spot, as before.  When no such join exists, a leading run of
        WHERE conjuncts is pushed onto the operands of the cross products
        (:func:`_push_plan`); the full WHERE still judges every surviving
        row.  Why that is exact: a pushed conjunct binds to the same column
        in its input as in the joined row, its subqueries are uncorrelated,
        and a row is dropped only when a pushed conjunct is ``False`` by
        identity — after every earlier conjunct evaluated without raising
        and without being ``False`` — which makes the full AND-tree
        ``False`` without evaluating anything later.  A pushed filter that
        raises abandons the pushdown: the statement streams unfiltered, and
        the WHERE raises (or not) where it always did.
        """
        first = self._execute_relation(chain[0].left, cte_scope, None)
        inputs = [first]
        targets = [True]  # the lowest cross product's left operand
        # Rows of the chain up to the last join that had to be listed; None
        # while there is none (the chain then starts at inputs[0]).
        start: list[tuple[SQLValue, ...]] | None = None
        steps: list[_JoinPlan] = []
        source = first
        pushable = True
        for join in chain:
            right = self._execute_relation(join.right, cte_scope, None)
            plan = self._join_plan(join, source, right, None)
            inputs.append(right)
            targets.append(_is_cross(join))
            steps.append(plan)
            source = plan.combined
            if not plan.pure:
                pushable = False
                unfiltered = [relation.rows for relation in inputs]
                start = list(self._chain_rows(start, steps, unfiltered))
                steps = []

        input_rows = [relation.rows for relation in inputs]
        pushed = 0
        if pushable and select.where is not None:
            filtered = self._push_filters(select.where, inputs, targets)
            if filtered is not None:
                input_rows, pushed = filtered
        detail = {
            "inputs": [len(relation.rows) for relation in inputs],
            "kept": [len(rows) for rows in input_rows],
            "pushed": pushed,
        }
        rows = self._where(select.where, source, self._chain_rows(start, steps, input_rows), None)
        return source, rows, detail

    def _chain_rows(
        self,
        start: list[tuple[SQLValue, ...]] | None,
        steps: list["_JoinPlan"],
        input_rows: list[list[tuple[SQLValue, ...]]],
    ) -> Iterable[tuple[SQLValue, ...]]:
        """The rows of a chain's last ``len(steps)`` joins, lazily.

        ``start`` holds the rows below those joins, or ``None`` when they
        start at the chain's first input; the right operand of each join is
        the matching trailing entry of ``input_rows``.
        """
        offset = len(input_rows) - len(steps)
        rows: Iterable[tuple[SQLValue, ...]] = input_rows[0] if start is None else start
        for position, plan in enumerate(steps):
            rows = self._join_rows(plan, rows, input_rows[offset + position], None)
        return rows

    def _push_filters(
        self, where: Expression, inputs: list[Relation], targets: list[bool]
    ) -> tuple[list[list[tuple[SQLValue, ...]]], int] | None:
        """Apply the pushed WHERE prefix to the cross products' operands.

        Returns each input's surviving rows and the number of conjuncts
        pushed; ``None`` when nothing is pushed, or when a pushed filter (or
        the correlation probe of one of its subqueries) raised.
        """
        plan = self._cached_plan(
            where,
            "push",
            tuple(
                (tuple(relation.labels), target) for relation, target in zip(inputs, targets)
            ),
            lambda: _push_plan(where, inputs, targets),
        )
        if not plan:
            return None
        try:
            filters: dict[int, list] = {}
            pushed = 0
            for conjunct, index, subqueries in plan:
                if any(self._uncorrelated_subquery(query) is None for query in subqueries):
                    break  # correlated: its value depends on the joined row
                filters.setdefault(index, []).append(
                    self._row_evaluator(conjunct, inputs[index], None)
                )
                pushed += 1
            rows = [relation.rows for relation in inputs]
            for index, predicates in filters.items():
                rows[index] = [
                    row
                    for row in rows[index]
                    if all(predicate(row) is not False for predicate in predicates)
                ]
        except Exception:  # noqa: BLE001 - any error: the unfiltered stream decides
            return None
        if not pushed:
            return None
        return rows, pushed

    def _hash_join_plan(
        self, condition: Expression, left: Relation, combined: Relation
    ) -> tuple[list[tuple[int, int]], Expression | None]:
        """Split an AND-tree join condition into hash keys plus a residual.

        Each conjunct that is a plain column equality spanning the two join
        inputs becomes a (left index, right index) hash-key pair; columns are
        resolved against the *combined* relation — exactly as the nested-loop
        evaluator would resolve them — so the hash join is equivalent to the
        nested loop by construction.  Conjuncts that do not qualify are folded
        back into a residual expression evaluated on each key-matched row.

        Join-key equality is *bucket* equality everywhere: values are
        normalised through :func:`repro.engine.runtime.hashable_key` and then
        compared with Python ``==`` (``1`` joins ``1.0`` but not ``'1'``;
        NULL never joins).  Single- and multi-key hash joins share this one
        definition, so they never need to fall back to a compare_values
        nested loop.
        """
        conjuncts = _split_conjuncts(condition)
        left_width = len(left.labels)
        if len(conjuncts) == 1:
            # A single plain equality resolves left/right-preferring: an
            # ambiguous unqualified column (present on both sides) binds to
            # the side that makes it a join key.
            right = Relation(labels=combined.labels[left_width:])
            single = self._equi_join_columns(condition, left, right)
            if single is not None:
                return [single], None
            return [], condition
        pairs: list[tuple[int, int]] = []
        residual: list[Expression] = []
        for conjunct in conjuncts:
            if (
                isinstance(conjunct, BinaryOp)
                and conjunct.op is BinaryOperator.EQ
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
            ):
                try:
                    first = combined.column_index(conjunct.left.name, conjunct.left.table)
                    second = combined.column_index(conjunct.right.name, conjunct.right.table)
                except ExecutionError:
                    residual.append(conjunct)
                    continue
                if first < left_width <= second:
                    pairs.append((first, second - left_width))
                    continue
                if second < left_width <= first:
                    pairs.append((second, first - left_width))
                    continue
            residual.append(conjunct)
        return pairs, _conjoin(residual)

    def _equi_join_columns(
        self, condition: Expression | None, left: Relation, right: Relation
    ) -> tuple[int, int] | None:
        """Resolve a simple equality join condition to (left index, right index).

        Returns None when the condition is not a plain column equality spanning
        the two inputs, in which case the executor falls back to a nested loop.
        """
        if not isinstance(condition, BinaryOp) or condition.op is not BinaryOperator.EQ:
            return None
        if not isinstance(condition.left, ColumnRef) or not isinstance(condition.right, ColumnRef):
            return None
        for first, second in ((condition.left, condition.right), (condition.right, condition.left)):
            try:
                left_position = left.column_index(first.name, first.table)
                right_position = right.column_index(second.name, second.table)
                return left_position, right_position
            except ExecutionError:
                continue
        return None

    @staticmethod
    def _build_using_condition(columns: list[str], left: Relation, right: Relation) -> Expression:
        comparisons: list[Expression] = []
        for name in columns:
            left_label = next((label for label in left.labels if label.matches(name)), None)
            right_label = next((label for label in right.labels if label.matches(name)), None)
            if left_label is None or right_label is None:
                side = "left" if left_label is None else "right"
                raise ExecutionError(
                    f"USING column {name!r} is missing from the {side} side of the join"
                )
            comparisons.append(
                BinaryOp(
                    op=BinaryOperator.EQ,
                    left=ColumnRef(name=left_label.name, table=left_label.relation or None),
                    right=ColumnRef(name=right_label.name, table=right_label.relation or None),
                )
            )
        condition = _conjoin(comparisons)
        assert condition is not None
        return condition

    # ------------------------------------------------------------------
    # projection / aggregation
    # ------------------------------------------------------------------

    def _expand_select_items(self, select: Select, source: Relation) -> list[SelectItem]:
        expanded: list[SelectItem] = []
        for item in select.select_items:
            if isinstance(item.expression, Star):
                table_filter = item.expression.table
                for label in source.labels:
                    if table_filter and label.relation.lower() != table_filter.lower():
                        continue
                    expanded.append(
                        SelectItem(
                            expression=ColumnRef(name=label.name, table=label.relation or None),
                            alias=label.name,
                        )
                    )
            else:
                expanded.append(item)
        return expanded

    def _execute_projection(
        self,
        select: Select,
        source: Relation,
        rows: list[tuple[SQLValue, ...]],
        outer: RowContext | None,
    ) -> QueryResult:
        items = self._expand_select_items(select, source)
        columns = [_output_name(item, index) for index, item in enumerate(items)]
        indices = _column_indices(items, source)
        if indices:
            if indices == list(range(len(source.labels))):
                # ``SELECT *`` over its source: every row already is its output.
                return QueryResult(columns=columns, rows=rows)
            if len(indices) == 1:
                index = indices[0]
                return QueryResult(columns=columns, rows=[(row[index],) for row in rows])
            getter = operator.itemgetter(*indices)
            return QueryResult(columns=columns, rows=[getter(row) for row in rows])
        evaluators = [self._row_evaluator(item.expression, source, outer) for item in items]
        output_rows = [tuple(evaluator(row) for evaluator in evaluators) for row in rows]
        return QueryResult(columns=columns, rows=output_rows)

    def _group_by_expressions(self, select: Select, source: Relation) -> list[Expression]:
        """GROUP BY keys with SELECT-item aliases resolved.

        A bare GROUP BY name that does not resolve in the source relation but
        matches a select-item alias groups by that item's expression — source
        columns win over aliases, and aggregate-valued aliases are never
        substituted (grouping by an aggregate is malformed and must keep
        raising).
        """
        resolved: list[Expression] = []
        for expression in select.group_by:
            substitute: Expression | None = None
            if isinstance(expression, ColumnRef) and expression.table is None:
                try:
                    source.column_index(expression.name, None)
                except ExecutionError:
                    name = expression.name.lower()
                    for item in select.select_items:
                        if (
                            item.alias
                            and item.alias.lower() == name
                            and not _contains_aggregate(item.expression)
                        ):
                            substitute = item.expression
                            break
            resolved.append(substitute if substitute is not None else expression)
        return resolved

    def _has_aggregate_items(self, select: Select) -> bool:
        if select.having is not None and _contains_aggregate(select.having):
            return True
        return any(_contains_aggregate(item.expression) for item in select.select_items)

    def _execute_aggregation(
        self,
        select: Select,
        source: Relation,
        rows: list[tuple[SQLValue, ...]],
        outer: RowContext | None,
    ) -> QueryResult:
        items = self._expand_select_items(select, source)
        columns = [_output_name(item, index) for index, item in enumerate(items)]

        groups: dict[tuple, list[tuple[SQLValue, ...]]] = {}
        if select.group_by:
            key_evaluators = [
                self._row_evaluator(expression, source, outer)
                for expression in self._group_by_expressions(select, source)
            ]
            for row in rows:
                key = tuple(_hashable(evaluator(row)) for evaluator in key_evaluators)
                groups.setdefault(key, []).append(row)
        else:
            groups[()] = rows

        having_evaluator = (
            self._group_evaluator(select.having, source, outer)
            if select.having is not None
            else None
        )
        item_evaluators = [self._group_evaluator(item.expression, source, outer) for item in items]
        output_rows: list[tuple[SQLValue, ...]] = []
        for group_rows in groups.values():
            representative = group_rows[0] if group_rows else tuple([None] * len(source.labels))
            if having_evaluator is not None:
                if not _is_true(having_evaluator(group_rows, representative)):
                    continue
            output_rows.append(
                tuple(evaluator(group_rows, representative) for evaluator in item_evaluators)
            )
        return QueryResult(columns=columns, rows=output_rows)

    # ------------------------------------------------------------------
    # ORDER BY
    # ------------------------------------------------------------------

    def _projected_expression_positions(
        self, select: Select, source: Relation
    ) -> dict[str, int]:
        """Map printed select-item expressions to their output positions."""
        positions: dict[str, int] = {}
        items = self._expand_select_items(select, source)
        for index, item in enumerate(items):
            try:
                positions.setdefault(print_expression(item.expression), index)
            except Exception:
                continue
        return positions

    def _order_key_plan(
        self,
        item: OrderItem,
        output_relation: Relation,
        expression_positions: dict[str, int],
    ) -> int | None:
        """Resolve an ORDER BY key to an output-column index when possible.

        A key resolves by output position, by output column or alias name, or
        by printing the same as a projected expression; ``None`` when it
        needs expression evaluation instead.
        """
        expression = item.expression
        if isinstance(expression, Literal) and isinstance(expression.value, int):
            index = expression.value - 1
            if 0 <= index < len(output_relation.labels):
                return index
            raise ExecutionError(f"ORDER BY position {expression.value} is out of range")
        if isinstance(expression, ColumnRef):
            try:
                return output_relation.column_index(expression.name, expression.table)
            except ExecutionError:
                pass
        if expression_positions:
            try:
                printed = print_expression(expression)
            except Exception:
                printed = None
            if printed is not None and printed in expression_positions:
                return expression_positions[printed]
        return None

    def _sort_rows(
        self,
        select: Select,
        result: QueryResult,
        outer: RowContext | None,
        source: Relation | None,
        source_rows: list[tuple[SQLValue, ...]] | None,
    ) -> list[tuple[SQLValue, ...]]:
        """ORDER BY: precompute one key column per item, then stable-sort.

        Keys resolving to an output column read it directly; every other key
        is evaluated once per row — against the source rows when they stay
        aligned with the output, against the output rows otherwise — and
        reads as NULL where it raises ExecutionError.  See
        :meth:`_order_and_limit` for ``source`` and ``source_rows``.
        """
        rows = result.rows
        if len(rows) < 2:
            return list(rows)
        output_relation = result.as_relation()
        positions = {} if source is None else self._projected_expression_positions(select, source)
        if source_rows is not None and not select.distinct and len(source_rows) == len(rows):
            # Sort keys may reference columns that were not projected.
            eval_relation, eval_rows = source, source_rows
        else:
            eval_relation, eval_rows = output_relation, rows
        order_by = select.order_by
        key_columns: list[list[SQLValue]] = []
        for item in order_by:
            output_index = self._order_key_plan(item, output_relation, positions)
            if output_index is not None:
                key_columns.append([row[output_index] for row in rows])
                continue
            evaluator = self._row_evaluator(item.expression, eval_relation, outer)
            values: list[SQLValue] = []
            for eval_row in eval_rows:
                try:
                    values.append(evaluator(eval_row))
                except ExecutionError:
                    values.append(None)
            key_columns.append(values)

        def compare(position_a: int, position_b: int) -> int:
            for item, column in zip(order_by, key_columns):
                comparison = _null_aware_compare(column[position_a], column[position_b], item)
                if comparison != 0:
                    return comparison if item.ascending else -comparison
            return 0

        return [rows[position] for position in sorted(range(len(rows)), key=functools.cmp_to_key(compare))]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _column_indices(items: list[SelectItem], source: Relation) -> list[int] | None:
    """Source positions of select items that are all plain column references.

    ``None`` when any item is another expression or does not resolve in
    ``source`` (an outer reference, an unknown name): such projections take
    the compiled closures, which resolve or raise them.
    """
    indices = []
    for item in items:
        expression = item.expression
        if not isinstance(expression, ColumnRef):
            return None
        try:
            indices.append(source.column_index(expression.name, expression.table))
        except ExecutionError:
            return None
    return indices


def _scan_counts(source: Relation) -> tuple[int, int, dict]:
    """A scan's EXPLAIN ANALYZE counts: it reads as many rows as it puts out."""
    return len(source.rows), len(source.rows), {}


def _stream_counts(streamed: tuple[Relation, list, dict]) -> tuple[int, int, dict]:
    """A stream's EXPLAIN ANALYZE counts: every input's rows in, WHERE's rows out."""
    _, rows, detail = streamed
    return sum(detail["inputs"]), len(rows), detail


def _combine(
    set_operator: SetOperator,
    left: list[tuple[SQLValue, ...]],
    right: list[tuple[SQLValue, ...]],
) -> list[tuple[SQLValue, ...]]:
    """One link of a set-operation chain."""
    if set_operator is SetOperator.UNION_ALL:
        return left + right
    if set_operator is SetOperator.UNION:
        return _distinct_rows(left + right)
    right_set = {_row_key(row) for row in right}
    if set_operator is SetOperator.INTERSECT:
        return _distinct_rows([row for row in left if _row_key(row) in right_set])
    return _distinct_rows([row for row in left if _row_key(row) not in right_set])


def _output_name(item: SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    expression = item.expression
    if isinstance(expression, ColumnRef):
        return expression.name
    if isinstance(expression, FunctionCall):
        return expression.upper_name.lower()
    return f"col_{index}"


class _JoinPlan(NamedTuple):
    """One compiled join, planned from its inputs' labels."""

    combined: Relation
    right_pad: tuple
    pad_left: bool
    key_pairs: list[tuple[int, int]]
    residual_fn: object
    condition_fn: object

    @property
    def pure(self) -> bool:
        """Whether the join cannot raise once its rows start flowing."""
        return self.residual_fn is None and self.condition_fn is None


def _is_cross(join: Join) -> bool:
    """A cross product: an INNER or CROSS join without ON or USING."""
    return (
        join.condition is None
        and not join.using_columns
        and join.join_type in (JoinType.INNER, JoinType.CROSS)
    )


def _cross_chain(relation: ASTRelation | None) -> list[Join] | None:
    """The left-spine joins of a FROM tree, from its lowest cross product up.

    ``None`` when the spine has no cross product, or a RIGHT/FULL join above
    it (whose padding needs the finished left side).
    """
    spine: list[Join] = []
    while isinstance(relation, Join):
        spine.append(relation)
        relation = relation.left
    for position in range(len(spine) - 1, -1, -1):
        if _is_cross(spine[position]):
            chain = spine[position::-1]
            if any(join.join_type in (JoinType.RIGHT, JoinType.FULL) for join in chain):
                return None
            return chain
    return None


def _push_plan(
    where: Expression, inputs: list[Relation], targets: list[bool]
) -> list[tuple[Expression, int, list[Select]]]:
    """The leading WHERE conjuncts that bind inside one cross-product operand.

    Each entry is ``(conjunct, input index, subqueries)``.  A conjunct binds
    inside input *i* when every column it names (outside its subqueries)
    resolves — against the joined labels, first match included — to a
    column of input *i*, and to the same column there.  The run stops at the
    first conjunct that does not; the caller further stops it at the first
    conjunct with a correlated subquery.
    """
    labels = [label for relation in inputs for label in relation.labels]
    joined = Relation(labels=labels)
    bounds = []
    offset = 0
    for relation in inputs:
        bounds.append(offset)
        offset += len(relation.labels)
    plan: list[tuple[Expression, int, list[Select]]] = []
    for conjunct in _split_conjuncts(where):
        references: list[ColumnRef] = []
        subqueries: list[Select] = []
        for node in iter_expressions(conjunct):
            if isinstance(node, ColumnRef):
                references.append(node)
            elif isinstance(node, (InSubquery, Exists)):
                subqueries.append(node.subquery)
            elif isinstance(node, ScalarSubquery):
                subqueries.append(node.query)
        try:
            positions = [joined.column_index(ref.name, ref.table) for ref in references]
        except ExecutionError:
            break
        target = None
        for index, relation in enumerate(inputs):
            low = bounds[index]
            if targets[index] and all(
                low <= position < low + len(relation.labels)
                and relation.column_index(ref.name, ref.table) == position - low
                for ref, position in zip(references, positions)
            ):
                target = index
                break
        if target is None:
            break
        plan.append((conjunct, target, subqueries))
    return plan


def _set_operand(select: Select) -> Select:
    """One operand of a set-operation chain: its own clauses, not the chain's.

    The head's ORDER BY / LIMIT and each link's operator belong to the chain,
    so an operand that carries a link runs as a copy of its core clauses.
    """
    if select.set_operator is None:
        return select
    return Select(
        select_items=select.select_items,
        distinct=select.distinct,
        from_relation=select.from_relation,
        where=select.where,
        group_by=select.group_by,
        having=select.having,
    )


def _split_conjuncts(expression: Expression) -> list[Expression]:
    """Flatten an AND tree into its conjuncts (left-to-right order)."""
    if isinstance(expression, BinaryOp) and expression.op is BinaryOperator.AND:
        return _split_conjuncts(expression.left) + _split_conjuncts(expression.right)
    return [expression]


def _conjoin(conjuncts: list[Expression]) -> Expression | None:
    """Left-fold conjuncts back into an AND tree (None for an empty list)."""
    condition: Expression | None = None
    for conjunct in conjuncts:
        condition = conjunct if condition is None else BinaryOp(
            op=BinaryOperator.AND, left=condition, right=conjunct
        )
    return condition
