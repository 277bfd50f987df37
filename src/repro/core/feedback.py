"""Human feedback handling (paper step 6).

Annotators can select, edit, discard or regenerate the LLM's candidates, add
priorities, inject external domain knowledge, and highlight failure patterns.  Feedback is
applied to the in-flight annotation *and* folded back into the session state
(priorities + knowledge base) so later queries benefit from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.errors import PipelineError
from repro.llm.knowledge import KnowledgeBase


class FeedbackAction(Enum):
    """What the annotator did with the generated candidates."""

    ACCEPT = "accept"            # accepted a candidate unchanged
    EDIT = "edit"                # accepted a candidate after editing it
    REWRITE = "rewrite"          # discarded all candidates and wrote from scratch
    DISCARD = "discard"          # discarded the query entirely
    REGENERATE = "regenerate"    # asked for regeneration with new priorities


@dataclass
class Feedback:
    """One feedback event for one query."""

    action: FeedbackAction
    selected_index: int | None = None
    edited_text: str = ""
    ranking: list[int] = field(default_factory=list)
    new_priorities: list[str] = field(default_factory=list)
    knowledge: list[tuple[str, str]] = field(default_factory=list)  # (term, explanation)
    failure_patterns: list[tuple[str, str]] = field(default_factory=list)
    comment: str = ""

    def to_state(self) -> dict:
        """JSON-safe representation for the event journal / snapshots."""
        return {
            "action": self.action.value,
            "selected_index": self.selected_index,
            "edited_text": self.edited_text,
            "ranking": list(self.ranking),
            "new_priorities": list(self.new_priorities),
            "knowledge": [list(pair) for pair in self.knowledge],
            "failure_patterns": [list(pair) for pair in self.failure_patterns],
            "comment": self.comment,
        }

    @classmethod
    def from_state(cls, state: dict) -> "Feedback":
        """Rebuild a feedback event from :meth:`to_state` output."""
        return cls(
            action=FeedbackAction(state["action"]),
            selected_index=state.get("selected_index"),
            edited_text=state.get("edited_text", ""),
            ranking=list(state.get("ranking", [])),
            new_priorities=list(state.get("new_priorities", [])),
            knowledge=[tuple(pair) for pair in state.get("knowledge", [])],
            failure_patterns=[tuple(pair) for pair in state.get("failure_patterns", [])],
            comment=state.get("comment", ""),
        )


@dataclass
class FeedbackOutcome:
    """Result of applying feedback to a set of candidates."""

    final_text: str | None
    accepted: bool
    action: FeedbackAction
    needs_regeneration: bool = False


class FeedbackLoop:
    """Applies feedback events and accumulates session-level guidance."""

    def __init__(self, knowledge: KnowledgeBase | None = None) -> None:
        self.knowledge = knowledge or KnowledgeBase()
        self.priorities: list[str] = []
        self.history: list[Feedback] = []
        #: Bumped whenever session-level guidance (knowledge, failure
        #: patterns, priorities) changes; batch schedulers compare revisions
        #: to detect that in-flight prompts have gone stale.
        self.revision = 0

    def apply(self, candidates: list[str], feedback: Feedback) -> FeedbackOutcome:
        """Apply one feedback event to the candidates of the current query."""
        self.history.append(feedback)

        if feedback.knowledge or feedback.failure_patterns:
            self.revision += 1
        for term, explanation in feedback.knowledge:
            self.knowledge.add(term, explanation)
        for description, guidance in feedback.failure_patterns:
            self.knowledge.add_failure_pattern(description, guidance)
        for priority in feedback.new_priorities:
            if priority not in self.priorities:
                self.priorities.append(priority)
                self.revision += 1

        if feedback.action is FeedbackAction.DISCARD:
            return FeedbackOutcome(final_text=None, accepted=False, action=feedback.action)

        if feedback.action is FeedbackAction.REGENERATE:
            return FeedbackOutcome(
                final_text=None,
                accepted=False,
                action=feedback.action,
                needs_regeneration=True,
            )

        if feedback.action is FeedbackAction.REWRITE:
            if not feedback.edited_text.strip():
                raise PipelineError("REWRITE feedback requires edited_text")
            return FeedbackOutcome(
                final_text=feedback.edited_text.strip(), accepted=True, action=feedback.action
            )

        if feedback.action is FeedbackAction.EDIT:
            if not feedback.edited_text.strip():
                raise PipelineError("EDIT feedback requires edited_text")
            return FeedbackOutcome(
                final_text=feedback.edited_text.strip(), accepted=True, action=feedback.action
            )

        # ACCEPT
        if not candidates:
            raise PipelineError("cannot accept a candidate when none were generated")
        index = feedback.selected_index if feedback.selected_index is not None else 0
        if not 0 <= index < len(candidates):
            raise PipelineError(
                f"selected_index {index} out of range for {len(candidates)} candidates"
            )
        return FeedbackOutcome(
            final_text=candidates[index], accepted=True, action=feedback.action
        )

    # ------------------------------------------------------------------
    # durability (snapshot) support
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe session state: guidance, revision counter, full history.

        The shared :class:`~repro.llm.knowledge.KnowledgeBase` is serialised
        alongside so one snapshot captures everything the loop feeds into
        later prompts.
        """
        return {
            "priorities": list(self.priorities),
            "revision": self.revision,
            "history": [feedback.to_state() for feedback in self.history],
            "knowledge": self.knowledge.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a snapshotted session in place (knowledge base included).

        Mutates rather than replaces ``self.knowledge`` so components holding
        a reference to it (e.g. the simulated LLM) keep seeing updates.
        """
        self.priorities = list(state["priorities"])
        self.revision = int(state["revision"])
        self.history = [Feedback.from_state(entry) for entry in state["history"]]
        self.knowledge.load_state(state["knowledge"])
