"""Between-subjects study runner (paper §5.1).

The runner reproduces the experimental design: 18 participants, stratified by
SQL expertise, assigned to exactly one condition via a balanced Latin-square
rotation within each stratum, all annotating the same 30 queries sampled from
the Beaver and Bird workloads, starting from a cold example store.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StudyError
from repro.study.conditions import Condition, ConditionOutput, make_condition_runner
from repro.study.participants import Expertise, Participant, make_participants
from repro.workloads.base import Workload, WorkloadQuery


@dataclass
class StudyAnnotation:
    """One (participant, query) annotation produced during the study."""

    participant_id: str
    expertise: str
    condition: Condition
    dataset: str
    query_id: str
    sql: str
    gold_nl: str
    nl: str
    latency_minutes: float
    fidelity: float


@dataclass
class StudyResult:
    """All annotations produced by one study run."""

    annotations: list[StudyAnnotation] = field(default_factory=list)
    participants: list[Participant] = field(default_factory=list)
    assignment: dict[str, Condition] = field(default_factory=dict)
    queries_per_dataset: dict[str, int] = field(default_factory=dict)

    def by_condition(self, condition: Condition) -> list[StudyAnnotation]:
        """Annotations of one condition."""
        return [a for a in self.annotations if a.condition is condition]


def assign_conditions(participants: list[Participant]) -> dict[str, Condition]:
    """Balanced Latin-square assignment of participants to conditions.

    Within each expertise stratum, participants are rotated through the three
    conditions so every condition receives the same number of advanced and
    non-advanced users (counterbalancing).
    """
    conditions = [Condition.BENCHPRESS, Condition.MANUAL, Condition.VANILLA_LLM]
    assignment: dict[str, Condition] = {}
    for stratum in (Expertise.ADVANCED, Expertise.NON_ADVANCED):
        members = [p for p in participants if p.expertise is stratum]
        for offset, participant in enumerate(members):
            assignment[participant.participant_id] = conditions[offset % len(conditions)]
    return assignment


class StudyRunner:
    """Runs the full between-subjects study over two workloads."""

    def __init__(
        self,
        beaver: Workload,
        bird: Workload,
        participant_count: int = 18,
        queries_per_dataset: int = 15,
        model_name: str = "gpt-4o",
        seed: int = 0,
    ) -> None:
        if participant_count < 3:
            raise StudyError("the between-subjects design needs at least 3 participants")
        self.beaver = beaver
        self.bird = bird
        self.queries_per_dataset = queries_per_dataset
        self.model_name = model_name
        self.seed = seed
        self.participants = make_participants(participant_count, seed=seed)
        self.assignment = assign_conditions(self.participants)

    def _study_queries(self) -> list[tuple[Workload, WorkloadQuery]]:
        tasks: list[tuple[Workload, WorkloadQuery]] = []
        for workload in (self.beaver, self.bird):
            sampled = workload.sample_queries(self.queries_per_dataset, seed=self.seed)
            tasks.extend((workload, query) for query in sampled)
        if not tasks:
            raise StudyError("no study queries could be sampled from the workloads")
        return tasks

    def run(self) -> StudyResult:
        """Execute the study and return every produced annotation."""
        tasks = self._study_queries()
        result = StudyResult(
            participants=self.participants,
            assignment=dict(self.assignment),
            queries_per_dataset={
                self.beaver.name: min(self.queries_per_dataset, len(self.beaver.queries)),
                self.bird.name: min(self.queries_per_dataset, len(self.bird.queries)),
            },
        )

        for participant in self.participants:
            condition = self.assignment[participant.participant_id]
            # Fresh runners per participant: the paper's cold-start condition
            # (the example store starts empty for every session).
            runners = {
                self.beaver.name: make_condition_runner(
                    condition, self.beaver.schema, self.beaver.name, self.model_name
                ),
                self.bird.name: make_condition_runner(
                    condition, self.bird.schema, self.bird.name, self.model_name
                ),
            }
            for session_index, (workload, query) in enumerate(tasks):
                output: ConditionOutput = runners[workload.name].annotate(
                    query, participant, session_index
                )
                result.annotations.append(
                    StudyAnnotation(
                        participant_id=participant.participant_id,
                        expertise=participant.expertise.value,
                        condition=condition,
                        dataset=workload.name,
                        query_id=query.query_id,
                        sql=query.sql,
                        gold_nl=query.gold_nl,
                        nl=output.nl,
                        latency_minutes=output.latency_minutes,
                        fidelity=output.fidelity,
                    )
                )
        return result
