"""Annotation-quality metrics used by the user-study analysis (Table 3).

The paper measures annotation accuracy by manually inspecting whether key SQL
components — column selections, calculations, grouping/ordering operations —
are clearly described.  The automatic stand-in grades a description by the
weighted coverage of the query's extracted facts, with an accuracy threshold
for the per-query correct/incorrect decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.llm.sql2nl import ESSENTIAL_KINDS, QueryFact, extract_facts, fact_coverage
from repro.sql.parser import parse_select


#: Coverage above which an annotation counts as accurate for Table 3.
ACCURACY_THRESHOLD: float = 0.75


@dataclass
class AnnotationJudgement:
    """Grading of one NL annotation against its gold SQL."""

    coverage: float
    essential_coverage: float
    accurate: bool
    missing_kinds: list[str] = field(default_factory=list)


def judge_annotation(
    sql: str, description: str, threshold: float = ACCURACY_THRESHOLD
) -> AnnotationJudgement:
    """Grade one annotation.

    ``coverage`` is the weighted fraction of all query facts present in the
    description; ``essential_coverage`` restricts to the essential kinds
    (projection, aggregation, tables, filters, grouping).  An annotation is
    *accurate* when overall coverage reaches the threshold and no essential
    fact kind is missed entirely.
    """
    select = parse_select(sql)
    facts = extract_facts(select)
    coverage = fact_coverage(facts, description)

    essential_facts = [fact for fact in facts if fact.kind in ESSENTIAL_KINDS]
    essential_coverage = fact_coverage(essential_facts, description) if essential_facts else 1.0

    missing_kinds = _missing_kinds(facts, description)
    essential_missing = [kind for kind in missing_kinds if kind in ESSENTIAL_KINDS]
    accurate = coverage >= threshold and not essential_missing
    return AnnotationJudgement(
        coverage=coverage,
        essential_coverage=essential_coverage,
        accurate=accurate,
        missing_kinds=missing_kinds,
    )


def _missing_kinds(facts: list[QueryFact], description: str) -> list[str]:
    from repro.retrieval.text import tokenize_text

    description_tokens = set(tokenize_text(description))
    present_by_kind: dict[str, bool] = {}
    for fact in facts:
        fact_tokens = set(tokenize_text(fact.text)) - {"the", "a", "an", "of", "in"}
        overlap = (
            len(fact_tokens & description_tokens) / len(fact_tokens) if fact_tokens else 1.0
        )
        present = overlap >= 0.6
        present_by_kind[fact.kind] = present_by_kind.get(fact.kind, False) or present
    return sorted(kind for kind, present in present_by_kind.items() if not present)


def annotation_accuracy(
    pairs: list[tuple[str, str]], threshold: float = ACCURACY_THRESHOLD
) -> float:
    """Fraction of (sql, description) pairs judged accurate."""
    if not pairs:
        return 0.0
    accurate = sum(
        1 for sql, description in pairs if judge_annotation(sql, description, threshold).accurate
    )
    return accurate / len(pairs)
