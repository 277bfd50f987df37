"""Simulated LLM subsystem: prompts, SQL<->NL generation, domain knowledge."""

from repro.llm.base import (
    GenerationResult,
    LLMClient,
    MODEL_PROFILES,
    ModelProfile,
    RetryPolicy,
    UsageStats,
    get_profile,
    is_transient_error,
)
from repro.llm.knowledge import FailurePattern, KnowledgeBase, KnowledgeEntry
from repro.llm.nl2sql import BacktranslationResult, NLToSQLGenerator
from repro.llm.resilience import Deadline
from repro.llm.prompts import Prompt, PromptBuilder
from repro.llm.simulated import SimulatedLLM
from repro.llm.sql2nl import (
    ESSENTIAL_KINDS,
    FACT_WEIGHTS,
    QueryFact,
    describe_query,
    extract_facts,
    fact_coverage,
    humanize,
    render_facts,
    select_facts,
)

__all__ = [
    "BacktranslationResult",
    "Deadline",
    "ESSENTIAL_KINDS",
    "FACT_WEIGHTS",
    "FailurePattern",
    "GenerationResult",
    "KnowledgeBase",
    "KnowledgeEntry",
    "LLMClient",
    "MODEL_PROFILES",
    "ModelProfile",
    "NLToSQLGenerator",
    "Prompt",
    "PromptBuilder",
    "QueryFact",
    "RetryPolicy",
    "SimulatedLLM",
    "UsageStats",
    "describe_query",
    "extract_facts",
    "fact_coverage",
    "get_profile",
    "humanize",
    "is_transient_error",
    "render_facts",
    "select_facts",
]
