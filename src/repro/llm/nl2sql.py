"""Rule-based NL-to-SQL generation (backtranslation).

The paper evaluates annotation fidelity by asking a *vanilla* LLM to
regenerate SQL from the natural-language description alone and grading the
result on a 5-level rubric (§5.2).  This module plays the role of that
vanilla LLM: it parses the description for the phrasing produced by
:mod:`repro.llm.sql2nl` (and by the simulated human annotators, who use the
same phrase inventory), links the mentioned entities back to the schema, and
assembles a SQL query.

Whatever information was dropped from the description is irrecoverable here,
so round-trip quality is a direct function of annotation completeness —
exactly the property the backtranslation experiment measures.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.schema.linking import split_identifier
from repro.schema.model import ColumnSchema, DatabaseSchema, TableSchema
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    BinaryOperator,
    ColumnRef,
    Expression,
    FunctionCall,
    IsNull,
    InList,
    Join,
    JoinType,
    Like,
    Literal,
    OrderItem,
    Select,
    SelectItem,
    Star,
    TableRef,
)
from repro.sql.printer import print_select


_AGGREGATE_PATTERNS: list[tuple[str, str]] = [
    (r"the number of distinct ([a-z0-9 ]+?)(?=,| and | from |$)", "COUNT_DISTINCT"),
    (r"the number of (?!distinct )([a-z0-9 ]+?)(?=,| and | from |$)", "COUNT"),
    (r"the total ([a-z0-9 ]+?)(?=,| and | from |$)", "SUM"),
    (r"the average ([a-z0-9 ]+?)(?=,| and | from |$)", "AVG"),
    (r"the maximum ([a-z0-9 ]+?)(?=,| and | from |$)", "MAX"),
    (r"the minimum ([a-z0-9 ]+?)(?=,| and | from |$)", "MIN"),
    (r"the median ([a-z0-9 ]+?)(?=,| and | from |$)", "MEDIAN"),
    (r"the standard deviation of ([a-z0-9 ]+?)(?=,| and | from |$)", "STDDEV"),
]

_COMPARISON_PATTERNS: list[tuple[str, BinaryOperator]] = [
    (r"is not equal to", BinaryOperator.NEQ),
    (r"is at least", BinaryOperator.GTE),
    (r"is at most", BinaryOperator.LTE),
    (r"is greater than", BinaryOperator.GT),
    (r"is less than", BinaryOperator.LT),
    (r"equals", BinaryOperator.EQ),
]


@dataclass
class BacktranslationResult:
    """Result of regenerating SQL from an NL description."""

    sql: str | None
    select: Select | None = None
    matched_tables: list[str] = field(default_factory=list)
    matched_columns: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def produced_sql(self) -> bool:
        """Whether any SQL could be generated at all."""
        return self.sql is not None


class NLToSQLGenerator:
    """Regenerates SQL from NL descriptions against a known schema.

    Args:
        schema: Schema to link entities against.
        skill: In [0, 1]; controls how well ambiguous entity mentions are
            resolved.  At skill 1.0 ties are broken in favour of tables
            already selected by other evidence; at lower skill the generator
            keeps the first lexical match, which on enterprise schemas with
            duplicated column names produces the structural mistakes the
            paper's Level 2–3 categories describe.
    """

    def __init__(self, schema: DatabaseSchema, skill: float = 1.0) -> None:
        self._schema = schema
        self.skill = max(0.0, min(1.0, skill))
        self._literal_case_map: dict[str, str] = {}
        # Identifier token sets of the schema's tables and columns; see
        # _identifier_tokens.
        self._tokens: tuple | None = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def generate(self, description: str) -> BacktranslationResult:
        """Generate SQL from one NL description."""
        # Structure matching happens on lower-cased text, but string literals
        # must keep their original case (execution comparisons are
        # case-sensitive), so remember the original spelling of every quoted
        # value before lower-casing.
        self._literal_case_map = {
            literal.lower(): literal for literal in re.findall(r"'([^']*)'", description)
        }
        text = " " + re.sub(r"\s+", " ", description.strip().lower()).rstrip(".") + " "
        result = BacktranslationResult(sql=None)

        tables = self._find_tables(text)
        result.matched_tables = [table.name for table in tables]

        group_columns = self._find_group_columns(text, tables)
        aggregates = self._find_aggregates(text, tables)
        projections = self._find_projections(text, tables, aggregates, group_columns)
        filters = self._find_filters(text, tables)
        having = self._find_having(text)
        order_items = self._find_order(text, tables)
        limit = self._find_limit(text)
        distinct = "only distinct results are kept" in text

        if not tables:
            # Without any table evidence the vanilla model cannot produce a
            # runnable query; emit nothing (rubric Level 1).
            result.notes.append("no table could be identified from the description")
            return result

        select = Select()
        select.distinct = distinct
        select.from_relation = self._build_from(tables)

        for column in group_columns:
            select.group_by.append(ColumnRef(name=column.name))
            select.select_items.append(SelectItem(expression=ColumnRef(name=column.name)))

        for function, column in aggregates:
            if function == "COUNT_DISTINCT":
                expression: Expression = FunctionCall(
                    name="COUNT",
                    args=[ColumnRef(name=column.name) if column else Star()],
                    distinct=True,
                )
            else:
                expression = FunctionCall(
                    name=function,
                    args=[ColumnRef(name=column.name)] if column else [Star()],
                )
            select.select_items.append(SelectItem(expression=expression))

        for column in projections:
            select.select_items.append(SelectItem(expression=ColumnRef(name=column.name)))

        if not select.select_items:
            select.select_items.append(SelectItem(expression=Star()))

        where: Expression | None = None
        for condition in filters:
            where = condition if where is None else BinaryOp(
                op=BinaryOperator.AND, left=where, right=condition
            )
        select.where = where
        select.having = having
        select.order_by = order_items
        select.limit = limit

        result.select = select
        result.sql = print_select(select)
        result.matched_columns = [
            column.name for column in group_columns + projections
        ] + [column.name for _, column in aggregates if column is not None]
        return result

    # ------------------------------------------------------------------
    # entity linking helpers
    # ------------------------------------------------------------------

    def _find_tables(self, text: str) -> list[TableSchema]:
        tables: list[TableSchema] = []
        seen: set[str] = set()
        for match in re.finditer(r"the ([a-z0-9 ]+?) tables?", text):
            phrase = match.group(1).strip()
            table = self._match_table(phrase)
            if table is not None and table.name.lower() not in seen:
                seen.add(table.name.lower())
                tables.append(table)
        if not tables:
            # Fall back to fuzzy linking over the whole description.
            from repro.schema.linking import link_text_to_schema

            linked = link_text_to_schema(text, self._schema, max_tables=2)
            for name in linked.tables:
                if name.lower() not in seen:
                    seen.add(name.lower())
                    tables.append(self._schema.table(name))
        return tables

    def _identifier_tokens(self) -> tuple[list, dict[int, tuple]]:
        """Token sets of the schema's table names, and a memo for columns.

        Returns ``(tables, columns)``: ``tables`` pairs each table with its
        name's tokens in schema order; ``columns`` maps a table's ``id`` to
        the table and its column tokens, filled by :meth:`_column_tokens`.
        Both are rebuilt when the schema's table list is another list or has
        another length, as the schema's own name index is.
        """
        tables = self._schema.tables
        cached = self._tokens
        if cached is None or cached[0] is not tables or cached[1] != len(tables):
            table_tokens = [(table, set(split_identifier(table.name))) for table in tables]
            cached = self._tokens = (tables, len(tables), table_tokens, {})
        return cached[2], cached[3]

    def _column_tokens(self, table: TableSchema) -> list[tuple[ColumnSchema, set[str]]]:
        """Each column of ``table`` with its name's identifier tokens."""
        memo = self._identifier_tokens()[1]
        entry = memo.get(id(table))
        if entry is None or entry[0] is not table:
            tokens = [(column, set(split_identifier(column.name))) for column in table.columns]
            entry = memo[id(table)] = (table, tokens)
        return entry[1]

    def _match_table(self, phrase: str) -> TableSchema | None:
        phrase_tokens = set(phrase.split())
        best: TableSchema | None = None
        best_score = 0.0
        for table, table_tokens in self._identifier_tokens()[0]:
            if not table_tokens:
                continue
            overlap = len(phrase_tokens & table_tokens)
            if overlap == 0:
                continue
            score = overlap / len(table_tokens | phrase_tokens)
            if score > best_score:
                best_score = score
                best = table
        return best

    def _match_column(
        self, phrase: str, tables: list[TableSchema]
    ) -> ColumnSchema | None:
        phrase_tokens = set(phrase.split()) - {"the", "a", "an", "of"}
        if not phrase_tokens:
            return None

        def score_columns(candidate_tables) -> tuple[ColumnSchema | None, float]:
            best_local: ColumnSchema | None = None
            best_score = 0.0
            for table in candidate_tables:
                for column, tokens in self._column_tokens(table):
                    if not tokens:
                        continue
                    overlap = len(phrase_tokens & tokens)
                    if overlap == 0:
                        continue
                    score = overlap / len(tokens | phrase_tokens)
                    if score > best_score:
                        best_score = score
                        best_local = column
            return best_local, best_score

        # High skill: prefer columns from the already-identified tables
        # (disambiguates duplicated enterprise column names).
        everywhere = self._schema.tables
        if self.skill >= 0.5:
            column, score = score_columns(tables)
            if column is not None and score > 0:
                return column
            column, _ = score_columns(everywhere)
            return column
        column, _ = score_columns(everywhere)
        return column

    # ------------------------------------------------------------------
    # clause extraction
    # ------------------------------------------------------------------

    def _find_group_columns(self, text: str, tables: list[TableSchema]) -> list[ColumnSchema]:
        columns: list[ColumnSchema] = []
        match = re.search(r"for (each [a-z0-9 ,]+?), (?:find|the)", text)
        if not match:
            return columns
        section = match.group(1)
        for phrase in re.findall(r"each ([a-z0-9 ]+?)(?=,| and |$)", section):
            column = self._match_column(phrase.strip(), tables)
            if column is not None and column.name not in [c.name for c in columns]:
                columns.append(column)
        return columns

    @staticmethod
    def _lead_segment(text: str) -> str:
        """The projection segment of the description (before the FROM phrase)."""
        cut = text.find(" from ")
        return text[:cut] if cut >= 0 else text

    def _find_aggregates(
        self, text: str, tables: list[TableSchema]
    ) -> list[tuple[str, ColumnSchema | None]]:
        found: list[tuple[int, str, ColumnSchema | None]] = []
        text = self._lead_segment(text)
        for pattern, function in _AGGREGATE_PATTERNS:
            for match in re.finditer(pattern, text):
                phrase = match.group(1).strip()
                if phrase in ("rows", "distinct rows", "records"):
                    found.append((match.start(), function, None))
                    continue
                column = self._match_column(phrase, tables)
                found.append((match.start(), function, column))
        found.sort(key=lambda item: item[0])
        return [(function, column) for _, function, column in found]

    def _find_projections(
        self,
        text: str,
        tables: list[TableSchema],
        aggregates: list[tuple[str, ColumnSchema | None]],
        group_columns: list[ColumnSchema] | None = None,
    ) -> list[ColumnSchema]:
        projections: list[ColumnSchema] = []
        aggregate_names = {column.name for _, column in aggregates if column is not None}
        aggregate_names.update(column.name for column in (group_columns or []))
        match = re.search(r"find (.*?)(?: from | considering |$)", self._lead_segment(text))
        if not match:
            return projections
        section = match.group(1)
        # Remove aggregate phrases so their argument columns are not re-added.
        for pattern, _ in _AGGREGATE_PATTERNS:
            section = re.sub(pattern, " ", section)
        for phrase in re.findall(r"the ([a-z0-9 ]+?)(?=,| and |$)", section):
            phrase = phrase.strip()
            if not phrase or phrase in ("requested values", "relevant values"):
                continue
            column = self._match_column(phrase, tables)
            if column is None:
                continue
            if column.name in aggregate_names:
                continue
            if column.name not in [c.name for c in projections]:
                projections.append(column)
        return projections

    def _find_filters(self, text: str, tables: list[TableSchema]) -> list[Expression]:
        filters: list[Expression] = []
        match = re.search(
            r"considering only rows where (.*?)"
            r"(?:, only groups where|, sorted by|, limited to|, only distinct|, combined with|$)",
            text,
        )
        if not match:
            return filters
        section = match.group(1)
        for clause in re.split(r"; and ", section):
            condition = self._parse_condition(clause.strip(), tables)
            if condition is not None:
                filters.append(condition)
        return filters

    def _parse_condition(self, clause: str, tables: list[TableSchema]) -> Expression | None:
        clause = clause.strip().rstrip(".")
        if not clause:
            return None

        # IN-subquery: "the X is among the results of a subquery that ...".
        in_subquery = re.search(
            r"the ([a-z0-9 ]+?) is (not )?among the results of a subquery that (.+)$", clause
        )
        if in_subquery:
            column = self._match_column(in_subquery.group(1).strip(), tables)
            inner = self._generate_subquery(in_subquery.group(3))
            if column is not None and inner is not None:
                from repro.sql.ast_nodes import InSubquery

                return InSubquery(
                    operand=ColumnRef(name=column.name),
                    subquery=inner,
                    negated=bool(in_subquery.group(2)),
                )
            return None

        # Scalar-subquery comparison: "the X is greater than the result of a subquery that ...".
        for phrase, operator in _COMPARISON_PATTERNS:
            scalar = re.search(
                rf"the ([a-z0-9 ]+?) {phrase} the result of a subquery that (.+)$", clause
            )
            if scalar:
                column = self._match_column(scalar.group(1).strip(), tables)
                inner = self._generate_subquery(scalar.group(2))
                if column is not None and inner is not None:
                    from repro.sql.ast_nodes import ScalarSubquery

                    return BinaryOp(
                        op=operator,
                        left=ColumnRef(name=column.name),
                        right=ScalarSubquery(query=inner),
                    )
                return None

        # LIKE family.
        like_match = re.search(
            r"the ([a-z0-9 ]+?) (starts with|ends with|contains|does not start with|"
            r"does not end with|does not contain) '([^']*)'",
            clause,
        )
        if like_match:
            column = self._match_column(like_match.group(1).strip(), tables)
            if column is None:
                return None
            verb = like_match.group(2)
            value = like_match.group(3)
            value = self._literal_case_map.get(value, value)
            negated = verb.startswith("does not")
            if "start" in verb:
                pattern = f"{value}%"
            elif "end" in verb:
                pattern = f"%{value}"
            else:
                pattern = f"%{value}%"
            return Like(
                operand=ColumnRef(name=column.name),
                pattern=Literal(pattern),
                negated=negated,
            )

        # BETWEEN.
        between_match = re.search(
            r"the ([a-z0-9 ]+?) is (not )?between ([^ ]+) and ([^ ]+)", clause
        )
        if between_match:
            column = self._match_column(between_match.group(1).strip(), tables)
            if column is None:
                return None
            return Between(
                operand=ColumnRef(name=column.name),
                low=Literal(_parse_value(between_match.group(3), self._literal_case_map)),
                high=Literal(_parse_value(between_match.group(4), self._literal_case_map)),
                negated=bool(between_match.group(2)),
            )

        # IS NULL family.
        null_match = re.search(r"the ([a-z0-9 ]+?) is (not )?missing", clause)
        if null_match:
            column = self._match_column(null_match.group(1).strip(), tables)
            if column is None:
                return None
            return IsNull(operand=ColumnRef(name=column.name), negated=bool(null_match.group(2)))

        # IN-list.
        in_match = re.search(r"the ([a-z0-9 ]+?) is (not )?one of (.+)", clause)
        if in_match:
            column = self._match_column(in_match.group(1).strip(), tables)
            if column is None:
                return None
            values = [
                Literal(_parse_value(value.strip(), self._literal_case_map))
                for value in re.split(r", | and ", in_match.group(3))
                if value.strip()
            ]
            if not values:
                return None
            return InList(
                operand=ColumnRef(name=column.name), values=values, negated=bool(in_match.group(2))
            )

        # Plain comparisons.
        for phrase, operator in _COMPARISON_PATTERNS:
            comparison_match = re.search(
                rf"the ([a-z0-9 ]+?) {phrase} ('[^']*'|[0-9.]+|[a-z0-9 ]+)", clause
            )
            if comparison_match:
                column = self._match_column(comparison_match.group(1).strip(), tables)
                if column is None:
                    return None
                raw_value = comparison_match.group(2).strip()
                right: Expression
                other_column = None
                if not raw_value.startswith("'") and not re.fullmatch(r"[0-9.]+", raw_value):
                    other_column = self._match_column(raw_value, tables)
                if other_column is not None:
                    right = ColumnRef(name=other_column.name)
                else:
                    right = Literal(_parse_value(raw_value, self._literal_case_map))
                return BinaryOp(op=operator, left=ColumnRef(name=column.name), right=right)
        return None

    def _generate_subquery(self, description: str) -> Select | None:
        """Recursively regenerate a subquery from its clause-level description."""
        if getattr(self, "_subquery_depth", 0) >= 3:
            return None
        self._subquery_depth = getattr(self, "_subquery_depth", 0) + 1
        try:
            nested = NLToSQLGenerator(self._schema, skill=self.skill)
            nested._subquery_depth = self._subquery_depth
            nested._tokens = self._tokens
            result = nested.generate(description)
        finally:
            self._subquery_depth -= 1
        return result.select

    def _find_having(self, text: str) -> Expression | None:
        """Parse the HAVING phrase produced by the describer (COUNT(*) thresholds)."""
        match = re.search(
            r"only groups where (?:the )+number of rows is at least (\d+) are kept", text
        )
        if not match:
            return None
        return BinaryOp(
            op=BinaryOperator.GTE,
            left=FunctionCall(name="COUNT", args=[Star()]),
            right=Literal(int(match.group(1))),
        )

    def _find_order(self, text: str, tables: list[TableSchema]) -> list[OrderItem]:
        items: list[OrderItem] = []
        for match in re.finditer(
            r"sorted by ([a-z0-9 ]+?) in (ascending|descending) order", text
        ):
            column = self._match_column(match.group(1).strip(), tables)
            if column is None:
                continue
            items.append(
                OrderItem(
                    expression=ColumnRef(name=column.name),
                    ascending=match.group(2) == "ascending",
                )
            )
        return items

    @staticmethod
    def _find_limit(text: str) -> int | None:
        match = re.search(r"limited to the first (\d+) rows", text)
        if match:
            return int(match.group(1))
        match = re.search(r"top (\d+)", text)
        if match:
            return int(match.group(1))
        return None

    # ------------------------------------------------------------------
    # FROM construction
    # ------------------------------------------------------------------

    def _build_from(self, tables: list[TableSchema]):
        relation = TableRef(name=tables[0].name)
        current_tables = [tables[0]]
        result = relation
        for table in tables[1:]:
            condition = self._join_condition(current_tables, table)
            result = Join(
                join_type=JoinType.INNER if condition is not None else JoinType.CROSS,
                left=result,
                right=TableRef(name=table.name),
                condition=condition,
            )
            current_tables.append(table)
        return result

    def _join_condition(
        self, existing: list[TableSchema], new_table: TableSchema
    ) -> Expression | None:
        # Use declared foreign keys in either direction.
        for table in existing:
            for foreign_key in table.foreign_keys:
                if foreign_key.referenced_table.lower() == new_table.name.lower():
                    return BinaryOp(
                        op=BinaryOperator.EQ,
                        left=ColumnRef(name=foreign_key.column, table=table.name),
                        right=ColumnRef(name=foreign_key.referenced_column, table=new_table.name),
                    )
            for foreign_key in new_table.foreign_keys:
                if foreign_key.referenced_table.lower() == table.name.lower():
                    return BinaryOp(
                        op=BinaryOperator.EQ,
                        left=ColumnRef(name=foreign_key.column, table=new_table.name),
                        right=ColumnRef(name=foreign_key.referenced_column, table=table.name),
                    )
        # Fall back to equating identically named columns (common enterprise idiom).
        for table in existing:
            for column in table.columns:
                if new_table.has_column(column.name):
                    return BinaryOp(
                        op=BinaryOperator.EQ,
                        left=ColumnRef(name=column.name, table=table.name),
                        right=ColumnRef(name=column.name, table=new_table.name),
                    )
        return None


def _parse_value(raw: str, case_map: dict[str, str] | None = None) -> object:
    raw = raw.strip()
    if raw in ("true", "false"):
        return raw == "true"
    if raw.startswith("'") and raw.endswith("'"):
        inner = raw[1:-1]
        if case_map and inner in case_map:
            return case_map[inner]
        return inner
    try:
        if "." in raw:
            return float(raw)
        return int(raw)
    except ValueError:
        if case_map and raw in case_map:
            return case_map[raw]
        return raw
