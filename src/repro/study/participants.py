"""Simulated study participants.

The paper's study uses 18 participants, stratified into *advanced* and
*non-advanced* SQL users by a pre-study questionnaire, and randomly assigns
them to one of three conditions within each stratum.  The simulated
participants capture the behavioural parameters that matter for the measured
outcomes: how completely they can describe a query unaided, how well they can
spot and repair gaps when reviewing LLM candidates, and how fast they work.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.llm.base import _stable_unit


class Expertise(Enum):
    """SQL expertise stratum."""

    ADVANCED = "advanced"
    NON_ADVANCED = "non_advanced"


@dataclass(frozen=True)
class Participant:
    """One simulated study participant.

    Attributes:
        participant_id: Stable identifier (``P01`` ... ``P18``).
        expertise: Stratum from the pre-study questionnaire.
        writing_skill: Probability that the participant captures a given query
            fact when writing a description from scratch (before complexity
            penalties).
        review_skill: Ability to spot and repair omissions when reviewing
            LLM-generated candidates (0..1).
        speed_factor: Multiplier on per-query latency (1.0 = average speed).
        domain_familiarity: How much enterprise-specific terminology slows the
            participant down / causes misreadings (0 = none, 1 = expert).
    """

    participant_id: str
    expertise: Expertise
    writing_skill: float
    review_skill: float
    speed_factor: float
    domain_familiarity: float

    @property
    def is_advanced(self) -> bool:
        """Whether the participant is in the advanced stratum."""
        return self.expertise is Expertise.ADVANCED


def make_participants(count: int = 18, seed: int = 0) -> list[Participant]:
    """Create a balanced panel of participants (half advanced, half not).

    Parameters are drawn deterministically from (seed, index) so the whole
    study is reproducible; individual differences stay within the ranges
    usability research reports for trained vs. casual SQL users.
    """
    participants: list[Participant] = []
    for index in range(count):
        advanced = index % 2 == 0
        expertise = Expertise.ADVANCED if advanced else Expertise.NON_ADVANCED
        base_writing = 0.80 if advanced else 0.62
        base_review = 0.88 if advanced else 0.70
        writing_jitter = (_stable_unit(seed, index, "w") - 0.5) * 0.10
        review_jitter = (_stable_unit(seed, index, "r") - 0.5) * 0.08
        speed = 0.85 + _stable_unit(seed, index, "s") * 0.4
        familiarity = (0.45 if advanced else 0.25) + _stable_unit(seed, index, "d") * 0.2
        participants.append(
            Participant(
                participant_id=f"P{index + 1:02d}",
                expertise=expertise,
                writing_skill=min(0.95, max(0.4, base_writing + writing_jitter)),
                review_skill=min(0.97, max(0.45, base_review + review_jitter)),
                speed_factor=speed,
                domain_familiarity=min(0.9, familiarity),
            )
        )
    return participants
