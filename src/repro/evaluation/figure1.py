"""Figure 1 harness: execution accuracy of models across benchmarks.

For every benchmark workload and every model, each gold query's NL question is
fed to the simulated text-to-SQL model and the predicted SQL is executed
against the workload database; execution accuracy is the fraction of queries
whose result sets match the gold query's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.evaluation.text2sql_models import (
    GENERAL_MODELS,
    SimulatedText2SQLModel,
    best_model_for,
)
from repro.metrics.execution import GoldResultCache, compare_execution
from repro.workloads.base import Workload


@dataclass
class ModelBenchmarkScore:
    """Execution accuracy of one model on one benchmark."""

    model: str
    benchmark: str
    accuracy: float
    evaluated_queries: int
    matches: int


@dataclass
class Figure1Result:
    """All series needed to redraw Figure 1."""

    scores: list[ModelBenchmarkScore] = field(default_factory=list)
    best_models: dict[str, str] = field(default_factory=dict)

    def accuracy(self, model: str, benchmark: str) -> float:
        """Look up one bar of the figure."""
        for score in self.scores:
            if score.model == model and score.benchmark == benchmark:
                return score.accuracy
        raise KeyError(f"no score for model {model!r} on benchmark {benchmark!r}")

    def series(self, model: str) -> dict[str, float]:
        """Accuracy of one model across all benchmarks."""
        return {
            score.benchmark: score.accuracy for score in self.scores if score.model == model
        }

    def enterprise_gap(self, model: str, enterprise: str = "Beaver") -> float:
        """Average public-benchmark accuracy minus enterprise accuracy."""
        series = self.series(model)
        public = [value for name, value in series.items() if name != enterprise]
        if not public or enterprise not in series:
            return 0.0
        return sum(public) / len(public) - series[enterprise]


def evaluate_model_on_workload(
    model: SimulatedText2SQLModel,
    workload: Workload,
    max_queries: int | None = None,
    gold_cache: GoldResultCache | None = None,
) -> ModelBenchmarkScore:
    """Run one model over one workload and compute execution accuracy.

    Pass a shared :class:`GoldResultCache` when scoring several models on the
    same workload so each gold query executes once instead of once per model,
    and a prediction another model already made for the same question is not
    executed and compared again.
    """
    queries = workload.queries
    if max_queries is not None:
        queries = queries[:max_queries]
    matches = 0
    evaluated = 0
    for query in queries:
        predicted = model.predict(query.gold_nl, query.sql)
        comparison = compare_execution(
            workload.database, query.sql, predicted, gold_cache=gold_cache
        )
        if not comparison.gold_executed:
            continue
        evaluated += 1
        if comparison.match:
            matches += 1
    accuracy = matches / evaluated if evaluated else 0.0
    return ModelBenchmarkScore(
        model=model.name,
        benchmark=workload.name,
        accuracy=accuracy,
        evaluated_queries=evaluated,
        matches=matches,
    )


def run_figure1(
    workloads: dict[str, Workload],
    models: tuple[str, ...] = GENERAL_MODELS,
    include_best_models: bool = True,
    max_queries: int | None = None,
) -> Figure1Result:
    """Evaluate the general models (and per-benchmark best models) everywhere."""
    result = Figure1Result()
    for benchmark_name, workload in workloads.items():
        model_names = list(models)
        if include_best_models:
            best = best_model_for(benchmark_name)
            result.best_models[benchmark_name] = best
            if best not in model_names:
                model_names.append(best)
        # One gold cache per workload: every model is scored against the same
        # gold set, so each gold query executes exactly once per benchmark and
        # each distinct (gold, predicted) pair is compared once.
        gold_cache = GoldResultCache(workload.database)
        for model_name in model_names:
            model = SimulatedText2SQLModel.for_workload(model_name, workload)
            result.scores.append(
                evaluate_model_on_workload(
                    model, workload, max_queries=max_queries, gold_cache=gold_cache
                )
            )
    return result
