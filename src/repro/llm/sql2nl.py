"""Rule-based SQL-to-NL generation.

This module is the linguistic core of the simulated LLM.  A query is first
broken into *facts* — atomic pieces of meaning such as "projects the column
X", "filters rows where Y > 3", "groups by Z" — and the facts are then
rendered into a natural-language description.

The fidelity knob is what makes the simulation faithful to the paper's
observations: high-context prompts (schema + retrieved examples + injected
knowledge) yield complete descriptions, while low-context prompts omit or
blur facts.  Every downstream metric (annotation accuracy, backtranslation
clarity, execution accuracy of regenerated SQL) is driven by which facts
survive into the NL.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.llm.base import _stable_unit
from repro.llm.knowledge import KnowledgeBase
from repro.schema.linking import split_identifier
from repro.sql.analyzer import AGGREGATE_FUNCTIONS
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    BinaryOperator,
    Cast,
    CaseWhen,
    ColumnRef,
    Exists,
    Expression,
    FunctionCall,
    InList,
    InSubquery,
    IsNull,
    Join,
    Like,
    Literal,
    Relation,
    ScalarSubquery,
    Select,
    Star,
    SubqueryRef,
    TableRef,
    UnaryOp,
    UnaryOperator,
)
from repro.sql.parser import parse_select


# ---------------------------------------------------------------------------
# facts
# ---------------------------------------------------------------------------


#: Relative importance of each fact kind when scoring annotation coverage.
FACT_WEIGHTS: dict[str, float] = {
    "projection": 1.0,
    "aggregate": 1.2,
    "table": 1.0,
    "filter": 1.1,
    "group": 1.0,
    "having": 0.9,
    "order": 0.6,
    "limit": 0.6,
    "distinct": 0.4,
    "subquery": 1.0,
    "set_operation": 0.8,
}

#: Facts that are essential for an annotation to count as structurally accurate.
ESSENTIAL_KINDS: frozenset[str] = frozenset(
    {"projection", "aggregate", "table", "filter", "group"}
)


@dataclass
class QueryFact:
    """One atomic piece of query meaning."""

    kind: str
    text: str
    weight: float = 1.0
    essential: bool = False
    payload: dict[str, object] = field(default_factory=dict)


def humanize(identifier: str) -> str:
    """Turn an identifier into a readable phrase (``MOIRA_LIST_NAME`` -> ``moira list name``)."""
    words = split_identifier(identifier)
    return " ".join(words) if words else identifier.lower()


def _expression_phrase(expression: Expression) -> str:
    """Describe a scalar expression for use inside a fact."""
    if isinstance(expression, ColumnRef):
        return humanize(expression.name)
    if isinstance(expression, Star):
        return "rows"
    if isinstance(expression, Literal):
        if isinstance(expression.value, str):
            return f"'{expression.value}'"
        if expression.value is None:
            return "null"
        if expression.value is True:
            return "true"
        if expression.value is False:
            return "false"
        return str(expression.value)
    if isinstance(expression, FunctionCall):
        return _aggregate_phrase(expression)
    if isinstance(expression, BinaryOp):
        left = _expression_phrase(expression.left)
        right = _expression_phrase(expression.right)
        symbol = {
            BinaryOperator.ADD: "plus",
            BinaryOperator.SUB: "minus",
            BinaryOperator.MUL: "times",
            BinaryOperator.DIV: "divided by",
        }.get(expression.op, expression.op.value)
        return f"{left} {symbol} {right}"
    if isinstance(expression, Cast):
        return _expression_phrase(expression.operand)
    if isinstance(expression, CaseWhen):
        return "a conditional value"
    if isinstance(expression, ScalarSubquery):
        inner = describe_query(expression.query, fidelity=1.0)
        return f"the result of a subquery that {_as_clause(inner)}"
    if isinstance(expression, UnaryOp):
        if expression.op is UnaryOperator.NEG:
            return f"negative {_expression_phrase(expression.operand)}"
        return _expression_phrase(expression.operand)
    return "an expression"


_AGGREGATE_TEMPLATES = {
    "COUNT": "the number of {arg}",
    "SUM": "the total {arg}",
    "AVG": "the average {arg}",
    "MIN": "the minimum {arg}",
    "MAX": "the maximum {arg}",
    "GROUP_CONCAT": "the concatenated list of {arg}",
    "STDDEV": "the standard deviation of {arg}",
    "VARIANCE": "the variance of {arg}",
    "MEDIAN": "the median {arg}",
}


def _aggregate_phrase(call: FunctionCall) -> str:
    name = call.upper_name
    if name in _AGGREGATE_TEMPLATES:
        if not call.args or isinstance(call.args[0], Star):
            arg = "rows"
        else:
            arg = _expression_phrase(call.args[0])
        if call.distinct:
            arg = f"distinct {arg}"
        return _AGGREGATE_TEMPLATES[name].format(arg=arg)
    args = ", ".join(_expression_phrase(arg) for arg in call.args)
    return f"{name.lower()} of {args}" if args else name.lower()


_COMPARISON_PHRASES = {
    BinaryOperator.EQ: "equals",
    BinaryOperator.NEQ: "is not equal to",
    BinaryOperator.LT: "is less than",
    BinaryOperator.LTE: "is at most",
    BinaryOperator.GT: "is greater than",
    BinaryOperator.GTE: "is at least",
}


def _condition_phrases(expression: Expression) -> list[str]:
    """Split a predicate into conjunct phrases (top-level ANDs become separate facts)."""
    if isinstance(expression, BinaryOp) and expression.op is BinaryOperator.AND:
        return _condition_phrases(expression.left) + _condition_phrases(expression.right)
    return [_single_condition_phrase(expression)]


def _single_condition_phrase(expression: Expression) -> str:
    if isinstance(expression, BinaryOp):
        if expression.op is BinaryOperator.OR:
            left = _single_condition_phrase(expression.left)
            right = _single_condition_phrase(expression.right)
            return f"either {left} or {right}"
        if expression.op in _COMPARISON_PHRASES:
            left = _expression_phrase(expression.left)
            right = _expression_phrase(expression.right)
            return f"the {left} {_COMPARISON_PHRASES[expression.op]} {right}"
        return f"the {_expression_phrase(expression)} holds"
    if isinstance(expression, Like):
        operand = _expression_phrase(expression.operand)
        pattern = ""
        if isinstance(expression.pattern, Literal) and isinstance(expression.pattern.value, str):
            pattern = expression.pattern.value
        negation = "does not match" if expression.negated else ""
        if pattern.endswith("%") and not pattern.startswith("%"):
            verb = "does not start with" if expression.negated else "starts with"
            return f"the {operand} {verb} '{pattern.rstrip('%')}'"
        if pattern.startswith("%") and not pattern.endswith("%"):
            verb = "does not end with" if expression.negated else "ends with"
            return f"the {operand} {verb} '{pattern.lstrip('%')}'"
        if pattern.startswith("%") and pattern.endswith("%"):
            verb = "does not contain" if expression.negated else "contains"
            return f"the {operand} {verb} '{pattern.strip('%')}'"
        verb = negation or "matches"
        return f"the {operand} {verb} the pattern '{pattern}'"
    if isinstance(expression, Between):
        operand = _expression_phrase(expression.operand)
        low = _expression_phrase(expression.low)
        high = _expression_phrase(expression.high)
        negation = "is not" if expression.negated else "is"
        return f"the {operand} {negation} between {low} and {high}"
    if isinstance(expression, InList):
        operand = _expression_phrase(expression.operand)
        values = ", ".join(_expression_phrase(value) for value in expression.values)
        negation = "is not one of" if expression.negated else "is one of"
        return f"the {operand} {negation} {values}"
    if isinstance(expression, InSubquery):
        operand = _expression_phrase(expression.operand)
        inner = describe_query(expression.subquery, fidelity=1.0)
        negation = "is not" if expression.negated else "is"
        return f"the {operand} {negation} among the results of a subquery that {_as_clause(inner)}"
    if isinstance(expression, Exists):
        inner = describe_query(expression.subquery, fidelity=1.0)
        negation = "no" if expression.negated else "at least one"
        return f"there exists {negation} related row such that {_as_clause(inner)}"
    if isinstance(expression, IsNull):
        operand = _expression_phrase(expression.operand)
        negation = "is not missing" if expression.negated else "is missing"
        return f"the {operand} {negation}"
    if isinstance(expression, UnaryOp) and expression.op is UnaryOperator.NOT:
        return f"it is not the case that {_single_condition_phrase(expression.operand)}"
    return f"the condition {_expression_phrase(expression)} holds"


def _as_clause(description: str) -> str:
    text = description.strip().rstrip(".?!")
    if not text:
        return text
    lowered = text[0].lower() + text[1:]
    for prefix in ("list ", "show ", "find ", "report ", "return "):
        if lowered.startswith(prefix):
            lowered = lowered[len(prefix):]
            break
    return lowered


def _relation_tables(relation: Relation | None) -> list[str]:
    tables: list[str] = []
    if relation is None:
        return tables
    if isinstance(relation, TableRef):
        tables.append(relation.name)
    elif isinstance(relation, SubqueryRef):
        tables.append(relation.alias)
    elif isinstance(relation, Join):
        tables.extend(_relation_tables(relation.left))
        tables.extend(_relation_tables(relation.right))
    return tables


# ---------------------------------------------------------------------------
# fact extraction
# ---------------------------------------------------------------------------


def extract_facts(select: Select) -> list[QueryFact]:
    """Extract the atomic meaning facts of a query (outer block + conditions).

    Nested subqueries in FROM/WHERE contribute condensed ``subquery`` facts;
    the decomposition pathway in the pipeline handles deep nesting separately.
    A trivial CTE wrapper (``WITH x AS (...) SELECT * FROM x``) is unwrapped
    so the description talks about the actual computation rather than the
    wrapper.
    """
    unwrapped = _unwrap_trivial_cte(select)
    if unwrapped is not select:
        return extract_facts(unwrapped)
    facts: list[QueryFact] = []

    if select.distinct:
        facts.append(QueryFact(kind="distinct", text="only distinct results are kept",
                               weight=FACT_WEIGHTS["distinct"]))

    # Projection facts.
    for item in select.select_items:
        expression = item.expression
        if isinstance(expression, Star):
            facts.append(
                QueryFact(
                    kind="projection",
                    text="all columns",
                    weight=FACT_WEIGHTS["projection"],
                    essential=True,
                    payload={"column": "*"},
                )
            )
        elif isinstance(expression, FunctionCall) and expression.upper_name in AGGREGATE_FUNCTIONS:
            facts.append(
                QueryFact(
                    kind="aggregate",
                    text=_aggregate_phrase(expression),
                    weight=FACT_WEIGHTS["aggregate"],
                    essential=True,
                    payload={
                        "function": expression.upper_name,
                        "argument": _argument_name(expression),
                        "distinct": expression.distinct,
                        "alias": item.alias or "",
                    },
                )
            )
        else:
            facts.append(
                QueryFact(
                    kind="projection",
                    text=f"the {_expression_phrase(expression)}",
                    weight=FACT_WEIGHTS["projection"],
                    essential=True,
                    payload={
                        "column": expression.name if isinstance(expression, ColumnRef) else "",
                        "alias": item.alias or "",
                    },
                )
            )

    # Table facts.
    tables = _relation_tables(select.from_relation)
    for table in tables:
        facts.append(
            QueryFact(
                kind="table",
                text=f"the {humanize(table)} table",
                weight=FACT_WEIGHTS["table"],
                essential=True,
                payload={"table": table},
            )
        )

    # Filter facts.
    if select.where is not None:
        for phrase in _condition_phrases(select.where):
            facts.append(
                QueryFact(
                    kind="filter",
                    text=phrase,
                    weight=FACT_WEIGHTS["filter"],
                    essential=True,
                    payload={"phrase": phrase},
                )
            )

    # Grouping facts.
    for expression in select.group_by:
        facts.append(
            QueryFact(
                kind="group",
                text=f"each {_expression_phrase(expression)}",
                weight=FACT_WEIGHTS["group"],
                essential=True,
                payload={
                    "column": expression.name if isinstance(expression, ColumnRef) else "",
                },
            )
        )

    if select.having is not None:
        for phrase in _condition_phrases(select.having):
            facts.append(
                QueryFact(
                    kind="having",
                    text=f"only groups where {phrase} are kept",
                    weight=FACT_WEIGHTS["having"],
                    payload={"phrase": phrase},
                )
            )

    for order_item in select.order_by:
        direction = "ascending" if order_item.ascending else "descending"
        facts.append(
            QueryFact(
                kind="order",
                text=f"sorted by {_expression_phrase(order_item.expression)} in {direction} order",
                weight=FACT_WEIGHTS["order"],
                payload={
                    "column": order_item.expression.name
                    if isinstance(order_item.expression, ColumnRef)
                    else "",
                    "ascending": order_item.ascending,
                },
            )
        )

    if select.limit is not None:
        facts.append(
            QueryFact(
                kind="limit",
                text=f"limited to the first {select.limit} rows",
                weight=FACT_WEIGHTS["limit"],
                payload={"limit": select.limit},
            )
        )

    if select.set_operator is not None:
        facts.append(
            QueryFact(
                kind="set_operation",
                text=f"combined with another result set using {select.set_operator.value}",
                weight=FACT_WEIGHTS["set_operation"],
                payload={"operator": select.set_operator.value},
            )
        )

    # Condensed facts for CTEs / derived tables so non-decomposed annotation
    # still acknowledges the nested structure.
    for cte in select.ctes:
        facts.append(
            QueryFact(
                kind="subquery",
                text=f"an intermediate result named {humanize(cte.name)} is computed first",
                weight=FACT_WEIGHTS["subquery"],
                payload={"name": cte.name},
            )
        )

    return facts


def _unwrap_trivial_cte(select: Select) -> Select:
    """Return the CTE body when the outer query is just ``SELECT * FROM cte``."""
    if len(select.ctes) != 1:
        return select
    cte = select.ctes[0]
    outer_is_star = (
        len(select.select_items) == 1
        and isinstance(select.select_items[0].expression, Star)
        and select.where is None
        and not select.group_by
        and select.having is None
        and not select.order_by
        and select.limit is None
        and isinstance(select.from_relation, TableRef)
        and select.from_relation.name.lower() == cte.name.lower()
    )
    if outer_is_star:
        return cte.query
    return select


def _argument_name(call: FunctionCall) -> str:
    if not call.args or isinstance(call.args[0], Star):
        return "*"
    argument = call.args[0]
    if isinstance(argument, ColumnRef):
        return argument.name
    return _expression_phrase(argument)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_facts(facts: list[QueryFact]) -> str:
    """Render a list of facts into a fluent description.

    The sentence structure intentionally mirrors what the NL-to-SQL
    backtranslator can parse, so information loss (dropped facts) — not
    phrasing — determines round-trip fidelity.
    """
    projections = [fact.text for fact in facts if fact.kind == "projection"]
    aggregates = [fact.text for fact in facts if fact.kind == "aggregate"]
    tables = [fact.text for fact in facts if fact.kind == "table"]
    filters = [fact.text for fact in facts if fact.kind == "filter"]
    groups = [fact.text for fact in facts if fact.kind == "group"]
    havings = [fact.text for fact in facts if fact.kind == "having"]
    orders = [fact.text for fact in facts if fact.kind == "order"]
    limits = [fact.text for fact in facts if fact.kind == "limit"]
    distinct = [fact.text for fact in facts if fact.kind == "distinct"]
    subqueries = [fact.text for fact in facts if fact.kind == "subquery"]
    set_operations = [fact.text for fact in facts if fact.kind == "set_operation"]

    targets = aggregates + projections
    sentence_parts: list[str] = []

    lead = "Find " + _join_phrases(targets) if targets else "Find the requested values"
    if groups:
        lead = f"For {_join_phrases(groups)}, " + lead[0].lower() + lead[1:]
    sentence_parts.append(lead)

    if tables:
        sentence_parts.append("from " + _join_phrases(tables))
    if filters:
        sentence_parts.append("considering only rows where " + "; and ".join(filters))
    if havings:
        sentence_parts.append(", ".join(havings))
    if distinct:
        sentence_parts.append(distinct[0])
    if orders:
        sentence_parts.append(", ".join(orders))
    if limits:
        sentence_parts.append(", ".join(limits))
    if set_operations:
        sentence_parts.append(", ".join(set_operations))

    text = ", ".join(sentence_parts) + "."
    if subqueries:
        text = _join_phrases(subqueries).capitalize() + ". Then, " + text[0].lower() + text[1:]
    return text


def _join_phrases(phrases: list[str]) -> str:
    if not phrases:
        return ""
    if len(phrases) == 1:
        return phrases[0]
    return ", ".join(phrases[:-1]) + " and " + phrases[-1]


# ---------------------------------------------------------------------------
# fidelity-controlled description
# ---------------------------------------------------------------------------


def select_facts(
    facts: list[QueryFact],
    fidelity: float,
    seed: object = 0,
) -> list[QueryFact]:
    """Keep each fact with probability ``fidelity`` (deterministic per seed).

    Projection/table facts are the most robust (annotators rarely forget what
    is being selected), so their keep-probability is boosted; fine-grained
    facts (orders, limits, having) are dropped first — matching the paper's
    observation that Level-4 backtranslations typically miss ordering or
    nuance rather than structure.
    """
    if fidelity >= 1.0:
        return list(facts)
    kept: list[QueryFact] = []
    for index, fact in enumerate(facts):
        keep_probability = fidelity
        if fact.kind in ("projection", "table"):
            keep_probability = min(1.0, fidelity + 0.25)
        elif fact.kind in ("order", "limit", "distinct", "having"):
            keep_probability = max(0.0, fidelity - 0.15)
        draw = _stable_unit(seed, index, fact.kind, fact.text)
        if draw < keep_probability:
            kept.append(fact)
    if not kept and facts:
        # Even the weakest annotation mentions *something*: keep the first
        # projection or table fact.
        for fact in facts:
            if fact.kind in ("projection", "aggregate", "table"):
                kept.append(fact)
                break
        else:
            kept.append(facts[0])
    return kept


def describe_query(
    query: Select | str,
    fidelity: float = 1.0,
    seed: object = 0,
    knowledge: KnowledgeBase | None = None,
) -> str:
    """Generate an NL description of a query at the requested fidelity.

    Args:
        query: SQL text or parsed SELECT.
        fidelity: Probability that each extracted fact survives into the
            description (1.0 = complete description).
        seed: Any hashable seed; different seeds give different candidate
            wordings/omissions for the same fidelity.
        knowledge: Optional knowledge base; matched domain terms append a
            clarifying clause (mirrors how injected knowledge makes
            descriptions more precise).
    """
    select = parse_select(query) if isinstance(query, str) else query
    facts = extract_facts(select)
    sql_text = ""
    if knowledge is not None:
        from repro.sql.printer import print_select

        sql_text = print_select(select)
    return describe_facts(facts, fidelity=fidelity, seed=seed, knowledge=knowledge, sql_text=sql_text)


def describe_facts(
    facts: list[QueryFact],
    fidelity: float = 1.0,
    seed: object = 0,
    knowledge: KnowledgeBase | None = None,
    sql_text: str = "",
) -> str:
    """:func:`describe_query` over pre-extracted facts.

    Lets callers that generate several candidates from one query (at varying
    fidelity/seed) parse and extract facts once instead of per candidate.
    ``sql_text`` is only consulted for knowledge-term matching.
    """
    kept = select_facts(facts, fidelity, seed)
    text = render_facts(kept)

    if knowledge is not None:
        entries = knowledge.relevant_entries(sql_text, limit=2)
        if entries:
            clarifications = "; ".join(
                f"{humanize(entry.term)} refers to {entry.explanation.rstrip('.')}"
                for entry in entries
            )
            text = text.rstrip(".") + f" (here, {clarifications})."
    return text


def fact_coverage(reference_facts: list[QueryFact], description: str) -> float:
    """Weighted fraction of reference facts whose content appears in ``description``.

    This is the automatic stand-in for the paper's manual accuracy inspection:
    a description is accurate when the key SQL components (selections,
    calculations, grouping/ordering) are "clearly and distinguishably
    described".
    """
    from repro.retrieval.text import tokenize_text

    description_tokens = set(tokenize_text(description))
    if not reference_facts:
        return 1.0
    total_weight = 0.0
    covered_weight = 0.0
    for fact in reference_facts:
        total_weight += fact.weight
        fact_tokens = set(tokenize_text(fact.text)) - {"the", "a", "an", "of", "in"}
        if not fact_tokens:
            covered_weight += fact.weight
            continue
        overlap = len(fact_tokens & description_tokens) / len(fact_tokens)
        if overlap >= 0.6:
            covered_weight += fact.weight
    return covered_weight / total_weight if total_weight else 1.0
