"""The three experimental conditions of the user study (paper §5.1).

* **Group A — BenchPress**: schema information, example tables, logs, and four
  LLM-generated suggestions per query, with the feedback loop enabled.
* **Group B — Manual**: only schema files and logs; the participant writes the
  description from scratch.
* **Group C — Vanilla LLM**: a general-purpose LLM through its plain UI — no
  RAG, no schema grounding, no task-specific integration.

Each condition produces, for one (participant, query) pair, the final NL
description and the time it took.  The behavioural model is deliberately
simple and fully deterministic; its parameters are calibrated so the aggregate
latency and accuracy land in the ranges Tables 3–4 report.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.core.config import TaskConfig
from repro.core.pipeline import AnnotationPipeline
from repro.llm.base import _stable_unit
from repro.llm.knowledge import KnowledgeBase
from repro.llm.prompts import PromptBuilder
from repro.llm.simulated import SimulatedLLM
from repro.llm.sql2nl import describe_query
from repro.schema.model import DatabaseSchema
from repro.sql.analyzer import analyze_query
from repro.workloads.base import WorkloadQuery


class Condition(Enum):
    """Study condition identifiers."""

    BENCHPRESS = "BenchPress"
    MANUAL = "Manual"
    VANILLA_LLM = "Vanilla LLM"


@dataclass
class ConditionOutput:
    """What one condition produced for one (participant, query) pair."""

    nl: str
    latency_minutes: float
    fidelity: float
    candidates: list[str]


def _complexity_tokens(sql: str) -> float:
    try:
        return float(analyze_query(sql).complexity.tokens)
    except Exception:
        return 40.0


def _domain_penalty(dataset: str, familiarity: float, assisted: bool) -> float:
    """Extra fidelity loss from enterprise-specific terminology.

    The penalty applies to the enterprise (Beaver) dataset and is largely
    neutralised when the tool surfaces schema usage and domain knowledge
    (the BenchPress condition).
    """
    if dataset.lower() != "beaver":
        return 0.0
    base = 0.12 * (1.0 - familiarity)
    if assisted:
        return base * 0.25
    return base


class ConditionRunner:
    """Base class: one instance per (condition, participant, dataset schema)."""

    condition: Condition

    def annotate(self, query: WorkloadQuery, participant, session_index: int) -> ConditionOutput:
        """Produce the final description and latency for one query."""
        raise NotImplementedError


class BenchPressCondition(ConditionRunner):
    """Group A: the full BenchPress pipeline plus annotator review."""

    condition = Condition.BENCHPRESS

    def __init__(self, schema: DatabaseSchema, dataset: str, model_name: str = "gpt-4o",
                 config: TaskConfig | None = None) -> None:
        self.dataset = dataset
        self.pipeline = AnnotationPipeline(
            schema=schema,
            config=config or TaskConfig(model_name=model_name),
            dataset_name=dataset,
        )

    def annotate(self, query: WorkloadQuery, participant, session_index: int) -> ConditionOutput:
        candidate_set = self.pipeline.generate_candidates(query.sql, query_id=query.query_id)
        prompt = candidate_set.prompt
        llm_fidelity = (
            self.pipeline.llm.effective_fidelity(prompt) if prompt is not None else 0.7
        )
        # Reviewing the four candidates lets the annotator repair most of the
        # remaining gaps; the repair strength follows their review skill.
        repair = participant.review_skill * 0.85
        fidelity = 1.0 - (1.0 - llm_fidelity) * (1.0 - repair)
        fidelity -= _domain_penalty(self.dataset, participant.domain_familiarity, assisted=True)
        # The growing example store helps after the cold start.
        if session_index > 3:
            fidelity += 0.02
        fidelity = min(1.0, max(0.1, fidelity))

        nl = describe_query(
            query.sql, fidelity=fidelity, seed=(participant.participant_id, query.query_id)
        )
        # Feed the accepted annotation back so retrieval improves over the session.
        self.pipeline.retriever.record_annotation(query.sql, nl)

        tokens = _complexity_tokens(query.sql)
        latency = (0.55 + 0.0050 * tokens) * participant.speed_factor
        latency *= 0.92 if participant.is_advanced else 1.08
        return ConditionOutput(
            nl=nl,
            latency_minutes=latency,
            fidelity=fidelity,
            candidates=candidate_set.candidates,
        )


class VanillaLLMCondition(ConditionRunner):
    """Group C: a general-purpose LLM without retrieval or schema grounding."""

    condition = Condition.VANILLA_LLM

    def __init__(self, schema: DatabaseSchema, dataset: str, model_name: str = "gpt-4o") -> None:
        self.dataset = dataset
        self._llm = SimulatedLLM(model_name, schema=schema)
        self._prompt_builder = PromptBuilder(num_candidates=1)

    def annotate(self, query: WorkloadQuery, participant, session_index: int) -> ConditionOutput:
        prompt = self._prompt_builder.build(query.sql, context=None, knowledge=None)
        llm_fidelity = self._llm.effective_fidelity(prompt)
        result = self._llm.generate(prompt)
        # Without schema/context in front of them the participant can only
        # partially verify the output against the raw SQL.
        repair = participant.review_skill * 0.40
        fidelity = 1.0 - (1.0 - llm_fidelity) * (1.0 - repair)
        fidelity -= _domain_penalty(self.dataset, participant.domain_familiarity, assisted=False)
        fidelity = min(1.0, max(0.1, fidelity))

        nl = describe_query(
            query.sql, fidelity=fidelity, seed=(participant.participant_id, query.query_id, "v")
        )
        tokens = _complexity_tokens(query.sql)
        # Copying the query into a chat UI and reading the answer has a higher
        # fixed cost than BenchPress but is largely complexity-insensitive.
        latency = (0.95 + 0.0012 * tokens) * participant.speed_factor
        latency *= 0.95 if participant.is_advanced else 1.05
        return ConditionOutput(
            nl=nl,
            latency_minutes=latency,
            fidelity=fidelity,
            candidates=result.candidates,
        )


class ManualCondition(ConditionRunner):
    """Group B: schema files and logs only, no LLM assistance."""

    condition = Condition.MANUAL

    def __init__(self, schema: DatabaseSchema, dataset: str) -> None:
        self.dataset = dataset
        self._knowledge = KnowledgeBase()

    def annotate(self, query: WorkloadQuery, participant, session_index: int) -> ConditionOutput:
        tokens = _complexity_tokens(query.sql)
        # Writing from scratch: completeness follows writing skill and drops
        # with query size; fatigue sets in late in the session.
        complexity_penalty = min(0.38, 0.0028 * tokens)
        fatigue = 0.02 if session_index >= 20 else 0.0
        fidelity = participant.writing_skill - complexity_penalty - fatigue
        fidelity -= _domain_penalty(self.dataset, participant.domain_familiarity, assisted=False)
        jitter = (_stable_unit(participant.participant_id, query.query_id, "m") - 0.5) * 0.06
        fidelity = min(1.0, max(0.1, fidelity + jitter))

        nl = describe_query(
            query.sql, fidelity=fidelity, seed=(participant.participant_id, query.query_id, "m")
        )
        latency = (4.3 + 0.025 * tokens) * participant.speed_factor
        latency *= 0.85 if participant.is_advanced else 1.15
        return ConditionOutput(nl=nl, latency_minutes=latency, fidelity=fidelity, candidates=[])


def make_condition_runner(
    condition: Condition, schema: DatabaseSchema, dataset: str, model_name: str = "gpt-4o",
    benchpress_config: TaskConfig | None = None,
) -> ConditionRunner:
    """Factory for condition runners."""
    if condition is Condition.BENCHPRESS:
        return BenchPressCondition(schema, dataset, model_name=model_name, config=benchpress_config)
    if condition is Condition.VANILLA_LLM:
        return VanillaLLMCondition(schema, dataset, model_name=model_name)
    return ManualCondition(schema, dataset)
