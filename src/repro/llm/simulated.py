"""Deterministic simulated LLM.

The simulation's contract with the rest of the system:

* given a *richer prompt* (relevant schema tables, retrieved examples,
  injected domain knowledge), the generated descriptions retain more of the
  query's facts,
* given a *harder query* (more tables, nesting, aggregation — the enterprise
  profile of Table 1), fidelity degrades,
* everything is deterministic given (model name, SQL text, candidate index),
  so experiments are exactly reproducible.

This mirrors the causal structure behind the paper's findings without calling
any external API.
"""

from __future__ import annotations

import time

from repro.llm.base import (
    GenerationResult,
    LLMClient,
    ModelProfile,
    _stable_unit,
    get_profile,
)
from repro.llm.knowledge import KnowledgeBase
from repro.llm.nl2sql import NLToSQLGenerator
from repro.llm.prompts import Prompt
from repro.llm.sql2nl import describe_facts, describe_query, extract_facts
from repro.schema.ddl_parser import parse_ddl_script
from repro.sql.ast_nodes import Select
from repro.sql.printer import print_select
from repro.schema.model import DatabaseSchema
from repro.sql.analyzer import analyze_query
from repro.sql.parser import parse_select


class SimulatedLLM(LLMClient):
    """Offline stand-in for GPT-4o / GPT-3.5 Turbo / DeepSeek.

    Args:
        model_name: One of the profiles in :data:`repro.llm.base.MODEL_PROFILES`
            (unknown names get a generic mid-tier profile).
        schema: Schema used when backtranslating NL to SQL.  May also be
            derived lazily from the ``schema_text`` passed to
            :meth:`backtranslate`.
        knowledge: Optional knowledge base consulted during generation.
    """

    #: The simulated fidelity model uses the few-shot examples only through
    #: ``min(1, len(examples) / 3)`` — never their text — so batch schedulers
    #: may revalidate speculative generations on example count alone.
    example_content_sensitive = False

    def __init__(
        self,
        model_name: str = "gpt-4o",
        schema: DatabaseSchema | None = None,
        knowledge: KnowledgeBase | None = None,
    ) -> None:
        self.profile: ModelProfile = get_profile(model_name)
        self.name = self.profile.name
        self._schema = schema
        self._knowledge = knowledge
        self.call_count = 0

    # ------------------------------------------------------------------
    # SQL -> NL
    # ------------------------------------------------------------------

    def generate(self, prompt: Prompt) -> GenerationResult:
        """Generate candidate descriptions for the SQL in the prompt."""
        started = time.perf_counter()
        self.call_count += 1
        result = self._generate_one(prompt)
        self.usage.record(
            prompts=1,
            prompt_tokens=result.prompt_tokens,
            candidates=len(result.candidates),
            latency_seconds=time.perf_counter() - started,
        )
        return result

    def generate_batch(self, prompts: list[Prompt]) -> list[GenerationResult]:
        """Generate candidates for a whole wave of prompts in one call.

        This is the genuinely batched path: the call counts as *one* model
        round trip, prompts with identical content are generated once and the
        per-prompt SQL parse is shared across all of that prompt's candidates.
        Outputs are bit-identical to calling :meth:`generate` per prompt.
        """
        if not prompts:
            return []
        started = time.perf_counter()
        self.call_count += 1
        results: list[GenerationResult] = []
        memo: dict[tuple[object, ...], GenerationResult] = {}
        for prompt in prompts:
            key = self._prompt_key(prompt)
            cached = memo.get(key)
            if cached is None:
                cached = self._generate_one(prompt)
                memo[key] = cached
            # Re-wrap so callers mutating one result cannot corrupt another.
            results.append(
                GenerationResult(
                    candidates=list(cached.candidates),
                    model_name=cached.model_name,
                    prompt_tokens=cached.prompt_tokens,
                    metadata=dict(cached.metadata),
                )
            )
        self.usage.record(
            prompts=len(prompts),
            prompt_tokens=sum(result.prompt_tokens for result in results),
            candidates=sum(len(result.candidates) for result in results),
            latency_seconds=time.perf_counter() - started,
            batched=True,
        )
        return results

    @staticmethod
    def _prompt_key(prompt: Prompt) -> tuple[object, ...]:
        """Hashable identity of everything that influences generation."""
        return (
            prompt.sql,
            prompt.task,
            prompt.schema_text,
            tuple(prompt.examples),
            prompt.knowledge,
            tuple(prompt.priorities),
            prompt.num_candidates,
            tuple(sorted((k, tuple(v)) for k, v in prompt.ambiguous_columns.items())),
        )

    def _generate_one(self, prompt: Prompt) -> GenerationResult:
        """Candidate generation shared by the single and batched entry points."""
        fidelity = self.effective_fidelity(prompt)
        candidates: list[str] = []
        knowledge = self._knowledge if prompt.has_knowledge else None
        try:
            # Parse and extract facts once, reused by every candidate; parsing
            # and fact extraction are deterministic, so candidates are
            # identical to the parse-per-candidate path.  A pre-parsed AST on
            # the prompt (attached by the batch scheduler) skips the parse.
            select = prompt.ast if isinstance(prompt.ast, Select) else parse_select(prompt.sql)
            facts = extract_facts(select)
        except Exception:
            select = None
            facts = None
        sql_text = ""
        if facts is not None and knowledge is not None:
            sql_text = print_select(select)
        for index in range(max(1, prompt.num_candidates)):
            # Later candidates explore lower-fidelity paraphrases; the first
            # candidate is the model's best effort.
            candidate_fidelity = max(0.05, fidelity - 0.06 * index)
            jitter = (_stable_unit(self.name, prompt.sql, index) - 0.5) * 0.06
            candidate_fidelity = min(1.0, max(0.05, candidate_fidelity + jitter))
            if facts is not None:
                text = describe_facts(
                    facts,
                    fidelity=candidate_fidelity,
                    seed=(self.name, index),
                    knowledge=knowledge,
                    sql_text=sql_text,
                )
            else:
                # Unparseable SQL: preserve the original (raising) behaviour.
                text = describe_query(
                    prompt.sql,
                    fidelity=candidate_fidelity,
                    seed=(self.name, index),
                    knowledge=knowledge,
                )
            if text not in candidates:
                candidates.append(text)
        return GenerationResult(
            candidates=candidates,
            model_name=self.name,
            prompt_tokens=prompt.length_tokens,
            metadata={"fidelity": fidelity},
        )

    def effective_fidelity(self, prompt: Prompt) -> float:
        """Compute the fact-retention probability for a prompt.

        Combines the model's base fidelity with prompt-context boosts and a
        complexity penalty derived from the query's static profile.
        """
        profile = self.profile
        fidelity = profile.base_fidelity
        if prompt.has_schema_context:
            fidelity += profile.context_boost
        if prompt.has_examples:
            fidelity += profile.example_boost * min(1.0, len(prompt.examples) / 3.0)
        if prompt.has_knowledge and self._knowledge is not None:
            coverage = self._knowledge.coverage(prompt.sql)
            fidelity += profile.knowledge_boost * min(1.0, coverage * 4.0)

        fidelity -= self._complexity_penalty(prompt.sql, prompt.ast)

        # Ambiguous column names confuse the model unless schema context is
        # present to disambiguate them.
        if prompt.ambiguous_columns and not prompt.has_schema_context:
            fidelity -= 0.05 * min(3, len(prompt.ambiguous_columns))

        return min(1.0, max(0.05, fidelity))

    def _complexity_penalty(self, sql: str, ast: object | None = None) -> float:
        try:
            profile = analyze_query(sql, ast if isinstance(ast, Select) else None)
        except Exception:
            return 0.25 * self.profile.complexity_sensitivity
        complexity = profile.complexity
        load = (
            0.8 * complexity.nestings
            + 0.5 * max(0, complexity.tables - 1)
            + 0.25 * complexity.aggregations
            + 0.15 * complexity.predicates
            + 0.02 * complexity.keywords
        )
        penalty = 0.022 * load * self.profile.complexity_sensitivity
        return min(0.45, penalty)

    # ------------------------------------------------------------------
    # NL -> SQL (backtranslation)
    # ------------------------------------------------------------------

    def backtranslate(self, description: str, schema_text: str = "") -> str | None:
        """Regenerate SQL from an NL description using a vanilla configuration."""
        self.call_count += 1
        schema = self._schema
        if schema is None and schema_text.strip():
            schema = self._schema_from_text(schema_text)
        if schema is None:
            return None
        generator = NLToSQLGenerator(schema, skill=self.profile.backtranslation_skill)
        result = generator.generate(description)
        return result.sql

    @staticmethod
    def _schema_from_text(schema_text: str) -> DatabaseSchema | None:
        try:
            return parse_ddl_script(schema_text, schema_name="prompt")
        except Exception:
            return None

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def expected_fact_count(self, sql: str) -> int:
        """Number of facts a complete description of ``sql`` would contain."""
        return len(extract_facts(parse_select(sql)))
