"""Aggregate analysis of a study run: Tables 3–4 and Figure 4.

* **Table 3** — annotation accuracy per condition and dataset (fraction of
  annotations whose key SQL components are clearly described).
* **Table 4** — average annotation latency per condition and dataset, in
  minutes per participant (summed over the queries of that dataset).
* **Figure 4** — distribution of backtranslation clarity levels (1–5) per
  condition: each NL annotation is round-tripped to SQL by a vanilla
  simulated LLM and graded on the paper's rubric against the gold query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean

from repro.llm.simulated import SimulatedLLM
from repro.metrics.annotation import judge_annotation
from repro.metrics.rubric import RubricJudgement, grade_backtranslation
from repro.study.conditions import Condition
from repro.study.runner import StudyAnnotation, StudyResult
from repro.workloads.base import Workload

#: Canonical condition order used in the paper's tables.
CONDITION_ORDER: tuple[Condition, ...] = (
    Condition.BENCHPRESS,
    Condition.VANILLA_LLM,
    Condition.MANUAL,
)


@dataclass
class AccuracyTable:
    """Table 3: accuracy per (dataset, condition) plus the overall row."""

    per_dataset: dict[str, dict[Condition, float]] = field(default_factory=dict)
    overall: dict[Condition, float] = field(default_factory=dict)


@dataclass
class LatencyTable:
    """Table 4: average minutes per participant per (dataset, condition)."""

    per_dataset: dict[str, dict[Condition, float]] = field(default_factory=dict)
    total: dict[Condition, float] = field(default_factory=dict)


@dataclass
class BacktranslationFigure:
    """Figure 4: clarity-level histogram per condition."""

    distribution: dict[Condition, dict[int, int]] = field(default_factory=dict)
    mean_level: dict[Condition, float] = field(default_factory=dict)
    judgements: dict[Condition, list[RubricJudgement]] = field(default_factory=dict)


def accuracy_table(result: StudyResult) -> AccuracyTable:
    """Compute Table 3 from a study result."""
    table = AccuracyTable()
    datasets = sorted({annotation.dataset for annotation in result.annotations})
    for dataset in datasets:
        table.per_dataset[dataset] = {}
        for condition in CONDITION_ORDER:
            annotations = [
                a
                for a in result.annotations
                if a.dataset == dataset and a.condition is condition
            ]
            table.per_dataset[dataset][condition] = _accuracy(annotations)
    for condition in CONDITION_ORDER:
        annotations = [a for a in result.annotations if a.condition is condition]
        table.overall[condition] = _accuracy(annotations)
    return table


def _accuracy(annotations: list[StudyAnnotation]) -> float:
    if not annotations:
        return 0.0
    accurate = sum(
        1 for a in annotations if judge_annotation(a.sql, a.nl).accurate
    )
    return accurate / len(annotations)


def latency_table(result: StudyResult) -> LatencyTable:
    """Compute Table 4: per-participant total minutes, averaged per condition."""
    table = LatencyTable()
    datasets = sorted({annotation.dataset for annotation in result.annotations})
    for dataset in datasets:
        table.per_dataset[dataset] = {}
        for condition in CONDITION_ORDER:
            table.per_dataset[dataset][condition] = _mean_participant_minutes(
                [a for a in result.annotations if a.dataset == dataset], condition
            )
    for condition in CONDITION_ORDER:
        table.total[condition] = sum(
            table.per_dataset[dataset].get(condition, 0.0) for dataset in datasets
        )
    return table


def _mean_participant_minutes(
    annotations: list[StudyAnnotation], condition: Condition
) -> float:
    per_participant: dict[str, float] = {}
    for annotation in annotations:
        if annotation.condition is not condition:
            continue
        per_participant.setdefault(annotation.participant_id, 0.0)
        per_participant[annotation.participant_id] += annotation.latency_minutes
    if not per_participant:
        return 0.0
    return mean(per_participant.values())


def backtranslation_figure(
    result: StudyResult,
    workloads: dict[str, Workload],
    model_name: str = "gpt-4o",
    max_per_condition: int | None = None,
) -> BacktranslationFigure:
    """Compute Figure 4: backtranslate each annotation and grade it.

    Args:
        result: The study result.
        workloads: Mapping from dataset name to its workload (for schema and
            database access).
        model_name: Vanilla model used for backtranslation.
        max_per_condition: Optional cap on graded annotations per condition
            (keeps benchmark runtime bounded); ``None`` grades everything.
    """
    figure = BacktranslationFigure()
    backtranslators = {
        name: SimulatedLLM(model_name, schema=workload.schema)
        for name, workload in workloads.items()
    }
    for condition in CONDITION_ORDER:
        annotations = result.by_condition(condition)
        if max_per_condition is not None:
            annotations = annotations[:max_per_condition]
        judgements: list[RubricJudgement] = []
        for annotation in annotations:
            workload = workloads.get(annotation.dataset)
            if workload is None:
                continue
            predicted_sql = backtranslators[annotation.dataset].backtranslate(annotation.nl)
            judgements.append(
                grade_backtranslation(workload.database, annotation.sql, predicted_sql)
            )
        histogram = {level: 0 for level in range(1, 6)}
        for judgement in judgements:
            histogram[judgement.level] += 1
        figure.distribution[condition] = histogram
        figure.mean_level[condition] = (
            mean(j.level for j in judgements) if judgements else 0.0
        )
        figure.judgements[condition] = judgements
    return figure
