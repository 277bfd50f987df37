"""Domain-knowledge base used by the feedback loop (paper step 6).

Annotators can inject external domain knowledge ("Moira is the mailing system
for newsletters", "J-term is the one-month January term") and highlight common
failure patterns.  Captured knowledge is automatically re-used in every later
prompt, so the same fact never has to be looked up twice — one of the explicit
contributions discussed in §6 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.retrieval.text import tokenize_text


@dataclass
class KnowledgeEntry:
    """One piece of injected domain knowledge."""

    term: str
    explanation: str
    source: str = "annotator"  # "annotator" or "seed"

    def matches(self, text: str) -> bool:
        """Whether the knowledge term occurs in (tokenised) text."""
        term_tokens = set(tokenize_text(self.term))
        if not term_tokens:
            return False
        text_tokens = set(tokenize_text(text))
        return term_tokens.issubset(text_tokens)


@dataclass
class FailurePattern:
    """A recurring mistake the model makes, highlighted by an annotator."""

    description: str
    guidance: str


class KnowledgeBase:
    """Accumulates domain knowledge and failure patterns across a session."""

    def __init__(self) -> None:
        self._entries: list[KnowledgeEntry] = []
        self._failure_patterns: list[FailurePattern] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> list[KnowledgeEntry]:
        """All knowledge entries in insertion order."""
        return list(self._entries)

    @property
    def failure_patterns(self) -> list[FailurePattern]:
        """All recorded failure patterns."""
        return list(self._failure_patterns)

    def add(self, term: str, explanation: str, source: str = "annotator") -> KnowledgeEntry:
        """Add (or update) a knowledge entry for a domain term."""
        term = term.strip()
        explanation = explanation.strip()
        for entry in self._entries:
            if entry.term.lower() == term.lower():
                entry.explanation = explanation
                return entry
        entry = KnowledgeEntry(term=term, explanation=explanation, source=source)
        self._entries.append(entry)
        return entry

    def add_failure_pattern(self, description: str, guidance: str) -> FailurePattern:
        """Record a failure pattern with guidance on how to avoid it."""
        pattern = FailurePattern(description=description.strip(), guidance=guidance.strip())
        self._failure_patterns.append(pattern)
        return pattern

    def lookup(self, term: str) -> KnowledgeEntry | None:
        """Exact (case-insensitive) lookup of a term."""
        for entry in self._entries:
            if entry.term.lower() == term.lower():
                return entry
        return None

    def relevant_entries(self, text: str, limit: int = 5) -> list[KnowledgeEntry]:
        """Knowledge entries whose term appears in ``text`` (SQL or NL)."""
        return [entry for entry in self._entries if entry.matches(text)][:limit]

    def render_for_prompt(self, text: str) -> str:
        """Render the relevant knowledge as prompt lines ('' when none apply)."""
        entries = self.relevant_entries(text)
        lines = [f"- {entry.term}: {entry.explanation}" for entry in entries]
        lines.extend(
            f"- Avoid: {pattern.description} ({pattern.guidance})"
            for pattern in self._failure_patterns
        )
        return "\n".join(lines)

    def state_dict(self) -> dict:
        """JSON-safe state of the knowledge base (snapshot support)."""
        return {
            "entries": [
                {
                    "term": entry.term,
                    "explanation": entry.explanation,
                    "source": entry.source,
                }
                for entry in self._entries
            ],
            "failure_patterns": [
                {"description": pattern.description, "guidance": pattern.guidance}
                for pattern in self._failure_patterns
            ],
        }

    def load_state(self, state: dict) -> None:
        """Restore a snapshotted knowledge base in place.

        Snapshots from builds that counted prompt matches per entry carry a
        ``uses`` field; it is ignored.
        """
        self._entries = [
            KnowledgeEntry(
                term=entry["term"],
                explanation=entry["explanation"],
                source=entry.get("source", "annotator"),
            )
            for entry in state["entries"]
        ]
        self._failure_patterns = [
            FailurePattern(
                description=pattern["description"], guidance=pattern["guidance"]
            )
            for pattern in state["failure_patterns"]
        ]

    def coverage(self, text: str) -> float:
        """Fraction of domain-specific tokens in ``text`` explained by the KB.

        Used by the simulated LLM to decide how much the injected knowledge
        improves candidate fidelity for a particular query.
        """
        if not self._entries:
            return 0.0
        text_tokens = set(tokenize_text(text))
        if not text_tokens:
            return 0.0
        explained: set[str] = set()
        for entry in self._entries:
            term_tokens = set(tokenize_text(entry.term))
            if term_tokens & text_tokens:
                explained.update(term_tokens & text_tokens)
        return len(explained) / len(text_tokens)
