"""The 5-level backtranslation clarity rubric (paper §5.2, Figure 4).

Levels:

1. **Invalid** — the regenerated SQL fails to execute (or none was produced).
2. **Executable but structurally incorrect** — wrong tables, missing joins,
   irrelevant subqueries.
3. **Column-level errors** — structure is right but columns/filters/functions
   or groupings are wrong.
4. **Minor issues** — mostly faithful; small deviations such as missing
   ordering, lost nuance or redundant clauses.
5. **Fully correct** — matches the original in structure and semantics.

Grading is automatic: the regenerated SQL is executed and compared to the
gold query on the same database, and structural/column differences are
derived from the two ASTs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.database import Database
from repro.metrics.execution import execute_safely, results_match
from repro.sql.analyzer import (
    extract_aggregates,
    extract_columns,
    extract_tables,
)
from repro.sql.parser import parse_select


@dataclass
class RubricJudgement:
    """Outcome of grading one backtranslated query."""

    level: int
    reasons: list[str] = field(default_factory=list)

    @property
    def is_fully_correct(self) -> bool:
        """Whether the judgement is Level 5."""
        return self.level == 5


def _set_overlap(gold: list[str], predicted: list[str]) -> float:
    gold_set = {item.lower() for item in gold}
    predicted_set = {item.lower() for item in predicted}
    if not gold_set:
        return 1.0
    return len(gold_set & predicted_set) / len(gold_set)


def grade_backtranslation(
    database: Database, gold_sql: str, predicted_sql: str | None
) -> RubricJudgement:
    """Grade a regenerated SQL query on the 5-level clarity rubric."""
    # Level 1: nothing produced or it does not execute.
    predicted_result, error = execute_safely(database, predicted_sql)
    if predicted_result is None:
        return RubricJudgement(level=1, reasons=[error or "query failed to execute"])

    gold_result, gold_error = execute_safely(database, gold_sql)
    if gold_result is None:
        # The gold query itself must execute for grading; treat as structural
        # mismatch rather than crediting the prediction.
        return RubricJudgement(level=2, reasons=[f"gold query failed: {gold_error}"])

    try:
        gold_ast = parse_select(gold_sql)
        predicted_ast = parse_select(predicted_sql or "")
    except Exception as exc:
        return RubricJudgement(level=2, reasons=[f"could not parse for structural comparison: {exc}"])

    reasons: list[str] = []

    # Structural comparison: tables and join shape.
    gold_tables = extract_tables(gold_ast)
    predicted_tables = extract_tables(predicted_ast)
    table_overlap = _set_overlap(gold_tables, predicted_tables)
    if table_overlap < 0.5:
        reasons.append(
            f"tables differ substantially (gold {gold_tables}, predicted {predicted_tables})"
        )
        return RubricJudgement(level=2, reasons=reasons)

    extra_tables = {t.lower() for t in predicted_tables} - {t.lower() for t in gold_tables}
    if extra_tables and len(extra_tables) >= max(1, len(gold_tables)):
        reasons.append(f"irrelevant tables introduced: {sorted(extra_tables)}")
        return RubricJudgement(level=2, reasons=reasons)

    # Column-level comparison: columns, aggregates, grouping.
    gold_columns = extract_columns(gold_ast)
    predicted_columns = extract_columns(predicted_ast)
    column_overlap = _set_overlap(gold_columns, predicted_columns)

    gold_aggregates = sorted(extract_aggregates(gold_ast))
    predicted_aggregates = sorted(extract_aggregates(predicted_ast))
    aggregates_match = gold_aggregates == predicted_aggregates

    gold_has_group = bool(gold_ast.group_by)
    predicted_has_group = bool(predicted_ast.group_by)

    execution_matches = results_match(
        gold_result, predicted_result, ordered=bool(gold_ast.order_by)
    )

    if column_overlap < 0.6 or not aggregates_match or gold_has_group != predicted_has_group:
        if column_overlap < 0.6:
            reasons.append(f"column overlap only {column_overlap:.0%}")
        if not aggregates_match:
            reasons.append(
                f"aggregates differ (gold {gold_aggregates}, predicted {predicted_aggregates})"
            )
        if gold_has_group != predicted_has_group:
            reasons.append("grouping structure differs")
        # Column-level problems cap the grade at 3 even if execution happens to match.
        return RubricJudgement(level=3, reasons=reasons)

    # Minor-issue detection: ordering, limit, distinct, row-count drift.
    minor_issues: list[str] = []
    if bool(gold_ast.order_by) != bool(predicted_ast.order_by):
        minor_issues.append("ordering differs")
    if (gold_ast.limit or None) != (predicted_ast.limit or None):
        minor_issues.append("limit differs")
    if gold_ast.distinct != predicted_ast.distinct:
        minor_issues.append("distinct differs")
    if bool(gold_ast.having) != bool(predicted_ast.having):
        minor_issues.append("having clause differs")
    if not execution_matches:
        minor_issues.append("result sets differ slightly")

    if execution_matches and not minor_issues:
        return RubricJudgement(level=5, reasons=["results and structure match"])

    if execution_matches and minor_issues:
        # Redundant clauses that do not change the result are minor.
        return RubricJudgement(level=4, reasons=minor_issues)

    # Execution differs but structure/columns align: either minor (ordering /
    # limit nuance) or a filter-level mistake.
    gold_filters = bool(gold_ast.where)
    predicted_filters = bool(predicted_ast.where)
    if gold_filters != predicted_filters:
        reasons.append("filter structure differs")
        return RubricJudgement(level=3, reasons=reasons)
    return RubricJudgement(level=4, reasons=minor_issues or ["small semantic deviation"])


def mean_level(judgements: list[RubricJudgement]) -> float:
    """Average rubric level (0.0 for an empty list)."""
    if not judgements:
        return 0.0
    return sum(judgement.level for judgement in judgements) / len(judgements)
