"""End-to-end telemetry tour: metrics, spans, EXPLAIN ANALYZE, slow queries.

Runs a two-tenant annotation drain with a live :class:`~repro.obs.Telemetry`
attached, then shows every observability surface the stack exposes:

1. the Prometheus text exposition of everything the drain recorded
   (submit/drain counters, wave sizes, LLM latency histograms, retrieval
   timings),
2. the tracing span tree the same drain produced (drain → waves → LLM calls),
3. an ``EXPLAIN ANALYZE`` of a query against the in-memory SQL engine —
   per-operator wall time and rows in/out, plus cache-counter deltas,
4. the engine's slow-query log.

Run with:  python examples/observability_demo.py
"""

from __future__ import annotations

import json

from repro.core import AnnotationService, TaskConfig
from repro.engine import Database
from repro.obs import Telemetry
from repro.workloads import build_benchmark


def run_instrumented_drain(telemetry: Telemetry) -> None:
    service = AnnotationService(max_concurrency=2, telemetry=telemetry)
    for name in ("Spider", "Bird"):
        workload = build_benchmark(name, seed=11, row_scale=0.001, query_count=6)
        service.register_project(
            name, workload.schema, config=TaskConfig(batch_size=3)
        )
        service.submit_many(workload.query_sql, project=name)
    completed = service.drain()
    ok = sum(1 for item in completed if not item.failed)
    print(f"drained {len(completed)} jobs across 2 tenants ({ok} annotated)")


def show_span_tree(telemetry: Telemetry) -> None:
    spans = telemetry.tracer.finished_spans()
    print(f"\n=== span tree ({len(spans)} spans) ===")
    by_id = {span.span_id: span for span in spans}

    def depth(span) -> int:
        steps, parent = 0, span.parent_id
        while parent is not None and parent in by_id:
            steps, parent = steps + 1, by_id[parent].parent_id
        return steps

    for span in spans:
        indent = "  " * depth(span)
        attrs = ", ".join(f"{k}={v}" for k, v in sorted(span.attributes.items()))
        print(
            f"{indent}{span.name}  [{span.duration_seconds * 1000:0.2f}ms]"
            + (f"  ({attrs})" if attrs else "")
        )


def show_explain_analyze() -> None:
    database = Database("demo")
    database.execute(
        "CREATE TABLE events (id INT PRIMARY KEY, kind TEXT, amount REAL)"
    )
    database.execute(
        "INSERT INTO events (id, kind, amount) VALUES "
        + ", ".join(
            f"({i}, '{'click' if i % 3 else 'purchase'}', {i * 1.5})"
            for i in range(300)
        )
    )
    database.set_slow_query_log(0.0)  # log everything for the demo

    sql = (
        "SELECT kind, COUNT(*) AS n, AVG(amount) AS avg_amount FROM events "
        "WHERE amount > 30 GROUP BY kind ORDER BY n DESC"
    )
    info = database.explain(sql, analyze=True)
    analyze = info["analyze"]
    print("\n=== EXPLAIN ANALYZE ===")
    print(sql)
    print(f"rows={analyze['rows_returned']}  total={analyze['total_seconds'] * 1000:0.3f}ms")
    for operator in analyze["operators"]:
        indent = "  " * operator["depth"]
        detail = {
            key: value
            for key, value in operator.items()
            if key not in ("op", "seconds", "rows_in", "rows_out", "depth")
        }
        extra = f"  {detail}" if detail else ""
        print(
            f"  {indent}{operator['op']:<14} {operator['rows_in']:>5} -> "
            f"{operator['rows_out']:<5} rows  "
            f"{operator['seconds'] * 1000:0.3f}ms{extra}"
        )
    print(f"plan cache:   {analyze['plan_cache']}")

    # Regular executes are timed once a threshold is set (0.0 = log all).
    database.execute(sql)
    database.execute("SELECT COUNT(*) FROM events WHERE kind = 'purchase'")

    print("\n=== slow-query log ===")
    for entry in database.slow_queries:
        print(f"  {entry['seconds'] * 1000:8.3f}ms  {entry['rows']:>4} rows  {entry['sql']}")


def main() -> None:
    telemetry = Telemetry()
    run_instrumented_drain(telemetry)

    print("\n=== Prometheus exposition ===")
    print(telemetry.render_prometheus(), end="")

    show_span_tree(telemetry)
    show_explain_analyze()

    # The same snapshot is available as JSON for dashboards/tests.
    families = telemetry.metrics_dict()
    print(f"\nmetrics_dict(): {len(families)} families, e.g. llm_requests_total = ")
    print(json.dumps(families["llm_requests_total"], indent=2))


if __name__ == "__main__":
    main()
