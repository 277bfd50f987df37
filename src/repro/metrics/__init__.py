"""Evaluation metrics: execution, rubric, complexity, annotation."""

from repro.metrics.annotation import (
    ACCURACY_THRESHOLD,
    AnnotationJudgement,
    annotation_accuracy,
    judge_annotation,
    mean_coverage,
)
from repro.metrics.complexity import (
    QuerySetProfile,
    RelativeRow,
    TABLE1_METRICS,
    TABLE2_METRICS,
    build_table1,
    build_table2,
    profile_databases,
    profile_query_set,
    relative_to_baseline,
)
from repro.metrics.execution import (
    ExecutionComparison,
    GoldExecution,
    GoldResultCache,
    compare_execution,
    execute_safely,
    results_match,
)
from repro.metrics.rubric import (
    RubricJudgement,
    grade_backtranslation,
    level_distribution,
    mean_level,
)

__all__ = [
    "ACCURACY_THRESHOLD",
    "AnnotationJudgement",
    "ExecutionComparison",
    "GoldExecution",
    "GoldResultCache",
    "QuerySetProfile",
    "RelativeRow",
    "RubricJudgement",
    "TABLE1_METRICS",
    "TABLE2_METRICS",
    "annotation_accuracy",
    "build_table1",
    "build_table2",
    "compare_execution",
    "execute_safely",
    "grade_backtranslation",
    "judge_annotation",
    "level_distribution",
    "mean_coverage",
    "mean_level",
    "profile_databases",
    "profile_query_set",
    "relative_to_baseline",
    "results_match",
]
