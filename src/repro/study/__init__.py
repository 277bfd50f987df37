"""Simulated user study: participants, conditions, runner, analysis."""

from repro.study.analysis import (
    AccuracyTable,
    BacktranslationFigure,
    CONDITION_ORDER,
    LatencyTable,
    accuracy_table,
    backtranslation_figure,
    latency_table,
)
from repro.study.conditions import (
    BenchPressCondition,
    Condition,
    ConditionOutput,
    ConditionRunner,
    ManualCondition,
    VanillaLLMCondition,
    make_condition_runner,
)
from repro.study.participants import Expertise, Participant, make_participants
from repro.study.runner import StudyAnnotation, StudyResult, StudyRunner, assign_conditions

__all__ = [
    "AccuracyTable",
    "BacktranslationFigure",
    "BenchPressCondition",
    "CONDITION_ORDER",
    "Condition",
    "ConditionOutput",
    "ConditionRunner",
    "Expertise",
    "LatencyTable",
    "ManualCondition",
    "Participant",
    "StudyAnnotation",
    "StudyResult",
    "StudyRunner",
    "VanillaLLMCondition",
    "accuracy_table",
    "assign_conditions",
    "backtranslation_figure",
    "latency_table",
    "make_condition_runner",
    "make_participants",
]
