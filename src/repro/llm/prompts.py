"""Prompt construction for candidate generation (paper steps 4–5).

BenchPress builds a retrieval-augmented few-shot prompt for each SQL query:
the relevant tables are always included, the top-k retrieved examples are
offered as few-shot guidance, and any injected domain knowledge or annotator
priorities are appended.  The structured :class:`Prompt` object is what the
simulated LLM consumes; :meth:`Prompt.render` produces the equivalent textual
prompt (useful for inspection, tests and prompt-length accounting).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.llm.knowledge import KnowledgeBase
from repro.retrieval.retriever import RetrievedContext


@dataclass
class Prompt:
    """A structured prompt for SQL-to-NL candidate generation."""

    sql: str
    schema_text: str = ""
    examples: list[tuple[str, str]] = field(default_factory=list)  # (sql, nl)
    knowledge: str = ""
    priorities: list[str] = field(default_factory=list)
    num_candidates: int = 4
    ambiguous_columns: dict[str, list[str]] = field(default_factory=dict)
    #: Optional pre-parsed AST of :attr:`sql` and its lex as ``(kind,
    #: value)`` pairs.  Purely optimisation hints (backends may use them to
    #: skip re-parsing and re-lexing); excluded from equality so prompts
    #: compare on content alone.
    ast: object | None = field(default=None, compare=False, repr=False)
    tokens: list | None = field(default=None, compare=False, repr=False)

    def render(self) -> str:
        """Render the prompt as text (few-shot, instruction-first)."""
        sections: list[str] = [
            "You are helping annotate enterprise SQL logs.",
            "Write a natural language description of the SQL query below.",
            "Describe every selected column, every calculation, and every filter,",
            "grouping and ordering operation, so a reader could reconstruct the query.",
        ]
        if self.schema_text:
            sections.append("Relevant schema:\n" + self.schema_text)
        if self.ambiguous_columns:
            notes = ", ".join(
                f"{column} (appears in {', '.join(tables)})"
                for column, tables in sorted(self.ambiguous_columns.items())
            )
            sections.append("Ambiguous column names to disambiguate: " + notes)
        if self.knowledge:
            sections.append("Domain knowledge:\n" + self.knowledge)
        if self.priorities:
            sections.append("Annotator priorities:\n" + "\n".join(f"- {p}" for p in self.priorities))
        for index, (sql, nl) in enumerate(self.examples, start=1):
            sections.append(f"Example {index}:\nSQL: {sql}\nDescription: {nl}")
        sections.append(f"SQL: {self.sql}")
        sections.append(f"Produce {self.num_candidates} alternative descriptions.")
        return "\n\n".join(sections)

    @property
    def length_tokens(self) -> int:
        """Approximate prompt length in whitespace tokens."""
        return len(self.render().split())

    @property
    def has_schema_context(self) -> bool:
        """Whether relevant tables were included."""
        return bool(self.schema_text.strip())

    @property
    def has_examples(self) -> bool:
        """Whether few-shot examples were included."""
        return bool(self.examples)

    @property
    def has_knowledge(self) -> bool:
        """Whether domain knowledge was included."""
        return bool(self.knowledge.strip())


class PromptBuilder:
    """Builds prompts from retrieval context, knowledge and feedback state."""

    def __init__(self, num_candidates: int = 4, max_examples: int = 3) -> None:
        self.num_candidates = num_candidates
        self.max_examples = max_examples

    def build(
        self,
        sql: str,
        context: RetrievedContext | None = None,
        knowledge: KnowledgeBase | None = None,
        priorities: list[str] | None = None,
        ast: object | None = None,
        tokens: list | None = None,
    ) -> Prompt:
        """Build a SQL-to-NL prompt.

        When ``context`` is None the prompt degrades to the "vanilla LLM"
        condition of the user study: no schema tables and no examples.
        """
        schema_text = ""
        examples: list[tuple[str, str]] = []
        ambiguous: dict[str, list[str]] = {}
        if context is not None:
            schema_text = context.schema_text()
            examples = [
                (example.sql, example.nl) for example in context.examples[: self.max_examples]
            ]
            ambiguous = dict(context.ambiguous_columns)

        knowledge_text = knowledge.render_for_prompt(sql) if knowledge is not None else ""

        return Prompt(
            sql=sql,
            schema_text=schema_text,
            examples=examples,
            knowledge=knowledge_text,
            priorities=list(priorities or []),
            num_candidates=self.num_candidates,
            ambiguous_columns=ambiguous,
            ast=ast,
            tokens=tokens,
        )
