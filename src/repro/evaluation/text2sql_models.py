"""Simulated text-to-SQL models for the Figure 1 experiment.

Figure 1 of the paper shows that models which look near-perfect on public
benchmarks (Spider/Bird/Fiben) collapse on the enterprise benchmark (Beaver).
We reproduce the *mechanism* behind that shape: a text-to-SQL model reads the
NL question, links it to the schema, and reconstructs SQL — and that process
degrades with query complexity, schema ambiguity and unfamiliar domain
terminology, all of which are much higher in the enterprise workload.

Each simulated model wraps the rule-based NL→SQL generator with a *skill*
profile: how well it reads the question (information retention) and how well
it disambiguates schema entities.  Degradation is applied by describing the
gold query at a model- and complexity-dependent fidelity before regenerating
SQL from that description — i.e. the model "understood" only part of the
question.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.llm.base import _stable_unit
from repro.llm.nl2sql import NLToSQLGenerator
from repro.llm.sql2nl import describe_query
from repro.schema.model import DatabaseSchema
from repro.schema.profiler import column_name_uniqueness
from repro.sql.analyzer import analyze_query
from repro.sql.ast_nodes import Select
from repro.sql.parser import parse
from repro.workloads.base import Workload


@dataclass(frozen=True)
class Text2SQLProfile:
    """Skill profile of one simulated text-to-SQL model."""

    name: str
    comprehension: float        # how much of the question's intent is retained
    linking_skill: float        # schema-entity disambiguation quality
    complexity_sensitivity: float  # how fast comprehension degrades with complexity
    ambiguity_sensitivity: float   # how much low schema uniqueness hurts


#: The models labelled in Figure 1.  miniSeek/askData/Athena++/contextModel are
#: the per-benchmark best models; the GPT-4o and Llama variants are the general
#: baselines shown for every benchmark.  ``comprehension`` values slightly above
#: 1.0 model systems that are effectively saturated on simple public queries
#: (the effective fidelity is capped at 1.0 per query).
TEXT2SQL_PROFILES: dict[str, Text2SQLProfile] = {
    "miniSeek": Text2SQLProfile("miniSeek", 1.06, 0.97, 0.75, 0.8),
    "askData": Text2SQLProfile("askData", 1.04, 0.95, 0.80, 0.8),
    "Athena++": Text2SQLProfile("Athena++", 1.03, 0.94, 0.70, 0.8),
    "contextModel": Text2SQLProfile("contextModel", 1.02, 0.95, 0.90, 0.5),
    "GPT-4o": Text2SQLProfile("GPT-4o", 1.00, 0.92, 1.15, 1.0),
    "Llama3.1-70B-lt": Text2SQLProfile("Llama3.1-70B-lt", 0.97, 0.88, 1.40, 1.1),
    "Llama3.1-8B-lt": Text2SQLProfile("Llama3.1-8B-lt", 0.93, 0.80, 1.80, 1.3),
}


class SimulatedText2SQLModel:
    """A text-to-SQL model with a fixed skill profile."""

    def __init__(self, profile: Text2SQLProfile, schema: DatabaseSchema,
                 schema_ambiguity: float = 0.0) -> None:
        self.profile = profile
        self.name = profile.name
        self._schema = schema
        self._schema_ambiguity = schema_ambiguity
        self._generator = NLToSQLGenerator(schema, skill=profile.linking_skill)
        #: Parses gold SQL; the tree it returns is only read, never changed.
        self._parse_gold = parse

    @classmethod
    def for_workload(cls, model_name: str, workload: Workload) -> "SimulatedText2SQLModel":
        """Build a model instance for one workload, deriving schema ambiguity.

        Schema ambiguity is one minus the database's column-name uniqueness
        (Table 2), which depends on the catalog alone, so building a model
        reads no rows.

        Gold SQL is parsed through the workload database's statement cache,
        so every model predicting a question and the gold execution that
        scores it share one tree.
        """
        profile = TEXT2SQL_PROFILES.get(model_name, Text2SQLProfile(model_name, 0.9, 0.85, 1.0, 1.0))
        ambiguity = 1.0 - column_name_uniqueness(workload.database)
        model = cls(profile, workload.schema, schema_ambiguity=ambiguity)
        model._parse_gold = workload.database.parse_cached
        return model

    def comprehension_for(self, gold_sql: str, select: Select | None = None) -> float:
        """Effective question-comprehension fidelity for one query.

        Simple queries (complexity load at or below the public-benchmark
        baseline) incur no penalty; the penalty grows with the excess load so
        enterprise-scale queries (deep joins, nesting, many aggregations)
        erode comprehension sharply — the mechanism behind the Figure 1 gap.
        ``select`` is ``gold_sql`` already parsed, which saves the parse.
        """
        try:
            complexity = analyze_query(gold_sql, select).complexity
        except Exception:
            return max(0.05, self.profile.comprehension - 0.3)
        load = (
            0.8 * complexity.nestings
            + 0.45 * max(0, complexity.tables - 1)
            + 0.22 * complexity.aggregations
            + 0.12 * complexity.predicates
        )
        excess_load = max(0.0, load - 1.0)
        penalty = 0.12 * excess_load * self.profile.complexity_sensitivity
        ambiguity_penalty = (
            0.10 * self._schema_ambiguity * self.profile.ambiguity_sensitivity
        )
        jitter = (_stable_unit(self.name, gold_sql) - 0.5) * 0.04
        return max(0.05, min(1.0, self.profile.comprehension - penalty - ambiguity_penalty + jitter))

    def predict(self, question: str, gold_sql: str) -> str | None:
        """Predict SQL for a question.

        ``gold_sql`` is used only to derive the degraded intermediate
        understanding (the simulated model never sees it directly as SQL); at
        fidelity 1.0 the intermediate description equals the complete gold
        description, so a perfect model reconstructs an equivalent query.
        """
        try:
            select = self._parse_gold(gold_sql)
        except Exception:
            select = None
        if not isinstance(select, Select):
            # Unparseable or non-SELECT gold: comprehension falls back, and
            # describing it raises the parse error.
            select = None
        fidelity = self.comprehension_for(gold_sql, select)
        understood = describe_query(
            gold_sql if select is None else select,
            fidelity=fidelity,
            seed=(self.name, question),
        )
        result = self._generator.generate(understood)
        return result.sql


def best_model_for(benchmark_name: str) -> str:
    """The per-benchmark best model named above the teal bars in Figure 1."""
    mapping = {
        "spider": "miniSeek",
        "bird": "askData",
        "fiben": "Athena++",
        "beaver": "contextModel",
    }
    return mapping.get(benchmark_name.lower(), "GPT-4o")


#: The general-purpose models shown for every benchmark in Figure 1.
GENERAL_MODELS: tuple[str, ...] = ("GPT-4o", "Llama3.1-70B-lt", "Llama3.1-8B-lt")
