"""Plain-text renderers that print the paper's tables and figures.

Every benchmark harness ends with one of these renderers so that running a
bench prints the same rows/series the paper reports, ready for side-by-side
comparison with the published numbers.
"""

from __future__ import annotations

from repro.metrics.complexity import RelativeRow, TABLE1_METRICS, TABLE2_METRICS
from repro.study.analysis import (
    AccuracyTable,
    BacktranslationFigure,
    CONDITION_ORDER,
    LatencyTable,
)


def format_table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    """Render a simple fixed-width text table."""
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: list[str]) -> str:
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(headers))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in rows)
    return "\n".join(lines)


def _arrow(value: float) -> str:
    if value == 0:
        return "0.0%"
    direction = "^" if value > 0 else "v"
    return f"{direction}{abs(value) * 100:.1f}%"


def render_table1(
    baseline_name: str,
    baseline_averages: dict[str, float],
    rows: list[RelativeRow],
) -> str:
    """Render Table 1 (query-level complexity) in the paper's layout."""
    headers = ["Query Sets", "#Keywords", "#Tokens", "#Tables", "#Columns", "#Agg", "#Nestings"]
    table_rows: list[list[str]] = []
    table_rows.append(
        [f"{baseline_name} (DW)"]
        + [f"{baseline_averages[key]:.1f}" for key in TABLE1_METRICS]
    )
    for row in rows:
        if row.name == baseline_name:
            continue
        table_rows.append([row.name] + [_arrow(row.relative[key]) for key in TABLE1_METRICS])
    return format_table(headers, table_rows, title="Table 1: Query-level complexity metrics")


def render_table2(
    baseline_name: str,
    baseline_profile: dict[str, float],
    rows: list[RelativeRow],
) -> str:
    """Render Table 2 (data-level complexity) in the paper's layout."""
    headers = [
        "Data Sets", "Columns/Table", "Rows/Table", "Table/DB", "Uniqueness", "Sparsity", "Data Types",
    ]
    table_rows: list[list[str]] = []
    baseline_cells = [
        f"{baseline_profile['columns_per_table']:.1f}",
        f"{baseline_profile['rows_per_table']:.0f}",
        f"{baseline_profile['tables_per_db']:.0f}",
        f"{baseline_profile['uniqueness'] * 100:.1f}%",
        f"{baseline_profile['sparsity'] * 100:.1f}%",
        f"{baseline_profile['data_types']:.0f}",
    ]
    table_rows.append([f"{baseline_name} (DW)"] + baseline_cells)
    for row in rows:
        if row.name == baseline_name:
            continue
        table_rows.append([row.name] + [_arrow(row.relative[key]) for key in TABLE2_METRICS])
    return format_table(headers, table_rows, title="Table 2: Data-level complexity metrics")


def render_table3(table: AccuracyTable) -> str:
    """Render Table 3 (annotation accuracy by condition)."""
    headers = ["Avg Accuracy", "BenchPress", "Vanilla LLM", "Manual"]
    rows: list[list[str]] = []
    for dataset, scores in sorted(table.per_dataset.items()):
        rows.append(
            [dataset] + [f"{scores[condition] * 100:.1f}%" for condition in CONDITION_ORDER]
        )
    rows.append(
        ["Overall"] + [f"{table.overall[condition] * 100:.1f}%" for condition in CONDITION_ORDER]
    )
    return format_table(headers, rows, title="Table 3: Annotation accuracy")


def render_table4(table: LatencyTable) -> str:
    """Render Table 4 (annotation latency by condition, minutes)."""
    headers = ["Avg Latency", "BenchPress", "Vanilla LLM", "Manual"]
    rows: list[list[str]] = []
    for dataset, scores in sorted(table.per_dataset.items()):
        rows.append(
            [dataset] + [f"{scores[condition]:.1f} min" for condition in CONDITION_ORDER]
        )
    rows.append(
        ["Total"] + [f"{table.total[condition]:.1f} min" for condition in CONDITION_ORDER]
    )
    return format_table(headers, rows, title="Table 4: Average annotation latency")


def render_figure4(figure: BacktranslationFigure) -> str:
    """Render Figure 4 (backtranslation clarity-level histogram) as text bars."""
    lines = ["Figure 4: Clarity of backtranslation (level 1-5 counts per condition)"]
    for condition in CONDITION_ORDER:
        histogram = figure.distribution.get(condition, {})
        lines.append(f"  {condition.value} (mean level {figure.mean_level.get(condition, 0.0):.2f})")
        for level in range(1, 6):
            count = histogram.get(level, 0)
            lines.append(f"    level {level}: {'#' * count} ({count})")
    return "\n".join(lines)


def render_figure1(
    scores: dict[str, dict[str, float]], best_models: dict[str, str] | None = None
) -> str:
    """Render Figure 1 (execution accuracy per model per benchmark).

    A model not scored on a benchmark (each per-benchmark best model is
    scored on its own benchmark only) shows ``—`` in that cell.

    Args:
        scores: model -> benchmark -> accuracy.
        best_models: benchmark -> name of the per-benchmark best model.
    """
    benchmarks: list[str] = []
    for series in scores.values():
        for benchmark in series:
            if benchmark not in benchmarks:
                benchmarks.append(benchmark)
    headers = ["Model"] + benchmarks
    rows = [
        [model] + [
            f"{series[benchmark] * 100:.1f}%" if benchmark in series else "—"
            for benchmark in benchmarks
        ]
        for model, series in scores.items()
    ]
    title = "Figure 1: Execution accuracy across benchmarks"
    text = format_table(headers, rows, title=title)
    if best_models:
        annotations = ", ".join(f"{bench}: {model}" for bench, model in best_models.items())
        text += f"\nBest model per benchmark: {annotations}"
    return text
