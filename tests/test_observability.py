"""Observability-stack tests: the metrics registry (behaviour, exposition
stability, thread safety), tracer (nesting, context isolation, ring bound,
span attributes and timestamps), structured logging, the Telemetry facade, end-to-end service
instrumentation (drain parity with and without telemetry, quarantine error
detail, journal/snapshot round-trips of telemetry counters, thread stress
under flaky clients), and engine-side EXPLAIN ANALYZE plus the slow-query
log."""

from __future__ import annotations

import json
import logging
import re
import threading
import time
from pathlib import Path

import pytest

from repro.core import AnnotationService, TaskConfig
from repro.engine import Database
from repro.errors import ExecutionError, LLMError
from repro.llm import SimulatedLLM
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_TELEMETRY,
    MetricsRegistry,
    NullTelemetry,
    StructuredLogger,
    Telemetry,
    Tracer,
    current_span,
)

from tests.test_concurrency import (
    PROJECTS,
    QUERIES,
    build_service,
    completed_keys,
    make_schema,
    submit_mix,
)
from tests.faults import FlakyLLM

# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", project="alpha")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        with pytest.raises(ValueError):
            counter.inc(-1)

        gauge = registry.gauge("queue_depth")
        gauge.set(5)
        gauge.dec(2)
        gauge.inc()
        assert gauge.value == 4

        histogram = registry.histogram("latency_seconds", buckets=(0.1, 1.0))
        for sample in (0.05, 0.5, 5.0):
            histogram.observe(sample)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(5.55)
        assert histogram.cumulative() == [(0.1, 1), (1.0, 2), (float("inf"), 3)]

    def test_boundary_sample_lands_in_inclusive_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(0.1, 1.0))
        histogram.observe(0.1)  # le="0.1" is an inclusive upper bound
        assert histogram.cumulative()[0] == (0.1, 1)

    def test_same_labels_return_same_series(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", project="alpha", kind="x")
        b = registry.counter("c_total", kind="x", project="alpha")
        assert a is b
        assert registry.counter("c_total", project="beta") is not a

    def test_type_and_bucket_conflicts_raise(self):
        registry = MetricsRegistry()
        registry.counter("m_total")
        with pytest.raises(ValueError):
            registry.gauge("m_total")
        registry.histogram("h_seconds", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h_seconds", buckets=(1.0, 5.0))
        # Omitting buckets on later calls is fine.
        registry.histogram("h_seconds").observe(0.5)

    def test_bad_buckets_rejected(self):
        # Empty buckets mean "use the defaults"; bad orderings are errors.
        histogram = MetricsRegistry().histogram("h", buckets=())
        assert histogram.buckets == DEFAULT_LATENCY_BUCKETS
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(2.0, 1.0))

    def test_prometheus_exposition_is_byte_stable(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", help="Jobs processed.", project="alpha").inc()
        registry.counter("jobs_total", project="beta").inc(2)
        registry.gauge("queue_depth").set(3)
        histogram = registry.histogram("latency_seconds", buckets=(0.1, 1.0))
        for sample in (0.05, 0.5, 5.0):
            histogram.observe(sample)

        expected = (
            "# HELP jobs_total Jobs processed.\n"
            "# TYPE jobs_total counter\n"
            'jobs_total{project="alpha"} 1\n'
            'jobs_total{project="beta"} 2\n'
            "# TYPE latency_seconds histogram\n"
            'latency_seconds_bucket{le="0.1"} 1\n'
            'latency_seconds_bucket{le="1"} 2\n'
            'latency_seconds_bucket{le="+Inf"} 3\n'
            "latency_seconds_sum 5.55\n"
            "latency_seconds_count 3\n"
            "# TYPE queue_depth gauge\n"
            "queue_depth 3\n"
        )
        assert registry.render_prometheus() == expected
        # Rendering is a pure read: a second pass is identical.
        assert registry.render_prometheus() == expected

    def test_as_dict_matches_exposition_and_is_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", project="alpha").inc()
        registry.histogram("latency_seconds", buckets=(0.1, 1.0)).observe(0.5)
        snapshot = registry.as_dict()
        assert snapshot["jobs_total"]["type"] == "counter"
        assert snapshot["jobs_total"]["series"] == [
            {"labels": {"project": "alpha"}, "value": 1.0}
        ]
        histogram = snapshot["latency_seconds"]["series"][0]
        assert histogram["count"] == 1
        assert histogram["buckets"] == {"0.1": 0, "1": 1, "+Inf": 1}
        json.dumps(snapshot)  # must be JSON-serialisable as-is

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", sql='SELECT "a"\nFROM t\\x').inc()
        rendered = registry.render_prometheus()
        assert 'sql="SELECT \\"a\\"\\nFROM t\\\\x"' in rendered

    def test_registry_is_thread_safe_under_contention(self):
        registry = MetricsRegistry()
        threads_n, increments = 8, 2500

        def hammer():
            for _ in range(increments):
                registry.counter("hits_total", worker="shared").inc()
                registry.histogram("work_seconds", worker="shared").observe(0.001)

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = threads_n * increments
        assert registry.counter("hits_total", worker="shared").value == total
        assert registry.histogram("work_seconds", worker="shared").count == total


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------

class TestTracer:
    def test_nesting_parent_and_trace_ids(self):
        tracer = Tracer()
        with tracer.span("outer", project="alpha") as outer:
            assert current_span() is outer
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id == outer.span_id
        assert current_span() is None
        spans = tracer.finished_spans()
        assert [span.name for span in spans] == ["inner", "outer"]
        assert all(span.ended for span in spans)
        assert all(span.duration_seconds >= 0 for span in spans)

    def test_error_status_and_attribute(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        (span,) = tracer.finished_spans()
        assert span.status == "error"
        assert span.attributes["error"] == "RuntimeError: boom"

    def test_ring_buffer_is_bounded(self):
        tracer = Tracer(capacity=4)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        names = [span.name for span in tracer.finished_spans()]
        assert names == ["s6", "s7", "s8", "s9"]
        tracer.clear()
        assert tracer.finished_spans() == []
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_threads_have_independent_current_span(self):
        tracer = Tracer()
        seen: dict[str, int | None] = {}

        def worker(name: str):
            with tracer.span(name) as span:
                seen[name] = span.parent_id

        with tracer.span("main-scope"):
            threads = [
                threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        # Worker threads start fresh contexts: no parent leaks across threads.
        assert all(parent is None for parent in seen.values())

    def test_spans_keep_their_own_attributes_and_unix_start(self):
        tracer = Tracer()
        before = time.time()
        with tracer.span("outer", project="alpha"):
            with tracer.span("inner", job_id=7):
                pass
        after = time.time()
        inner, outer = tracer.finished_spans()
        assert inner.parent_id == outer.span_id
        assert (inner.attributes, outer.attributes) == ({"job_id": 7}, {"project": "alpha"})
        assert inner.status == outer.status == "ok"
        # Unix starts derive from the tracer's anchor plus monotonic offsets.
        assert before - 1.0 <= outer.start_unix <= inner.start_unix <= after + 1.0


class TestStructuredLogging:
    def test_event_lines_carry_sorted_fields_and_span_ids(self, caplog):
        tracer = Tracer()
        log = StructuredLogger("repro.test.obs")
        with caplog.at_level(logging.INFO, logger="repro.test.obs"):
            with tracer.span("drain", project="alpha", job_id=3) as span:
                log.event("job_quarantined", error_type="LLMError", zeta=1)
        record = caplog.records[-1]
        message = record.getMessage()
        assert message.startswith("job_quarantined error_type=LLMError zeta=1")
        assert f"trace_id={span.trace_id}" in message
        assert f"span_id={span.span_id}" in message
        assert "project=alpha" in message
        assert "job_id=3" in message
        assert record.trace_id == span.trace_id

    def test_event_outside_span_has_no_span_fields(self, caplog):
        log = StructuredLogger("repro.test.obs")
        with caplog.at_level(logging.INFO, logger="repro.test.obs"):
            log.event("startup", version=1)
        message = caplog.records[-1].getMessage()
        assert message == "startup version=1"
        assert caplog.records[-1].trace_id == ""


# ----------------------------------------------------------------------
# the Telemetry facade
# ----------------------------------------------------------------------

class TestTelemetryFacade:
    def test_live_facade_records_into_registry_and_tracer(self):
        telemetry = Telemetry()
        telemetry.count("a_total", project="p")
        telemetry.gauge("g", 2.0)
        telemetry.observe("h_seconds", 0.01)
        telemetry.observe_size("batch_size", 3)
        with telemetry.span("scope") as span:
            span.set_attribute("k", "v")
        snapshot = telemetry.metrics_dict()
        assert snapshot["a_total"]["series"][0]["value"] == 1.0
        assert snapshot["batch_size"]["type"] == "histogram"
        assert telemetry.render_prometheus().endswith("\n")
        assert [s.name for s in telemetry.tracer.finished_spans()] == ["scope"]

    def test_null_telemetry_is_inert_and_reentrant(self):
        null = NULL_TELEMETRY
        assert isinstance(null, NullTelemetry)
        assert null.enabled is False
        null.count("x_total")
        null.gauge("g", 1.0)
        null.observe("h", 0.5)
        null.observe_size("s", 2)
        null.event("anything", project="p")
        with null.span("outer") as outer:
            outer.set_attribute("k", "v")
            with null.span("inner"):
                pass
        assert null.metrics_dict() == {}
        assert null.render_prometheus() == ""
        # Exceptions must still propagate through the null span scope.
        with pytest.raises(RuntimeError):
            with null.span("failing"):
                raise RuntimeError("boom")


# ----------------------------------------------------------------------
# service-level instrumentation
# ----------------------------------------------------------------------

def build_telemetry_service(telemetry=None, **kwargs):
    service = AnnotationService(
        max_concurrency=kwargs.pop("max_concurrency", 1), telemetry=telemetry
    )
    for name in kwargs.pop("projects", PROJECTS):
        llm_factory = kwargs.get("llm_factory")
        llm = llm_factory(name) if llm_factory is not None else None
        service.register_project(
            name,
            make_schema(),
            config=kwargs.get("config") or TaskConfig(batch_size=3),
            llm=llm,
        )
    return service


class TestServiceTelemetry:
    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_drain_results_identical_with_and_without_telemetry(self, concurrency):
        plain = build_service(max_concurrency=concurrency)
        submit_mix(plain)
        expected = plain.drain()

        traced = build_telemetry_service(
            telemetry=Telemetry(), max_concurrency=concurrency
        )
        submit_mix(traced)
        actual = traced.drain()

        assert completed_keys(actual) == completed_keys(expected)
        assert traced.stats.llm_requests == plain.stats.llm_requests

    def test_drain_populates_expected_metric_families(self):
        telemetry = Telemetry()
        service = build_telemetry_service(telemetry=telemetry, max_concurrency=2)
        submit_mix(service)
        completed = service.drain()
        assert completed
        snapshot = telemetry.metrics_dict()
        for family in (
            "service_jobs_submitted_total",
            "service_jobs_completed_total",
            "service_drain_seconds",
            "service_pending_jobs",
            "scheduler_rounds_total",
            "scheduler_round_active_projects",
            "pipeline_wave_size",
            "pipeline_wave_llm_seconds",
            "pipeline_wave_queue_wait_seconds",
            "llm_requests_total",
            "llm_call_seconds",
            "llm_prompt_tokens_total",
            "retrieval_searches_total",
        ):
            assert family in snapshot, f"missing metric family {family}"
        submitted = sum(
            series["value"]
            for series in snapshot["service_jobs_submitted_total"]["series"]
        )
        assert submitted == service.stats.submitted
        llm_total = sum(
            series["value"] for series in snapshot["llm_requests_total"]["series"]
        )
        assert llm_total == service.stats.llm_requests
        span_names = {span.name for span in telemetry.tracer.finished_spans()}
        assert "service.drain" in span_names
        assert "pipeline.wave" in span_names

    def test_quarantine_counts_and_error_detail(self):
        telemetry = Telemetry()

        def terminal_factory(name):
            return FlakyLLM(
                SimulatedLLM("gpt-4o", schema=make_schema()),
                fail_times=10_000,
                error_factory=lambda n: LLMError(f"terminal backend failure #{n}"),
            )

        service = build_telemetry_service(
            telemetry=telemetry,
            projects=["alpha"],
            config=TaskConfig(
                batch_size=3,
                llm_retry_base_delay=0.001,
                llm_retry_max_delay=0.002,
            ),
            llm_factory=terminal_factory,
        )
        service.submit(QUERIES[0], project="alpha")
        completed = service.drain()
        assert len(completed) == 1
        failed = completed[0]
        assert failed.record is None
        assert failed.error_type == "LLMError"
        assert "terminal backend failure" in failed.error
        from repro.core.service import MAX_TRACEBACK_CHARS

        assert "LLMError" in failed.traceback
        assert len(failed.traceback) <= MAX_TRACEBACK_CHARS + len("... (truncated)\n")
        assert service.quarantine[0].traceback == failed.traceback
        snapshot = telemetry.metrics_dict()
        quarantined = snapshot["service_jobs_quarantined_total"]["series"]
        assert quarantined[0]["labels"]["error_type"] == "LLMError"
        assert quarantined[0]["value"] == 1.0
        assert "llm_errors_total" in snapshot

    def test_truncated_traceback_keeps_the_tail(self):
        from repro.core.service import (
            MAX_TRACEBACK_CHARS,
            format_quarantine_traceback,
        )

        try:
            raise LLMError("x" * (3 * MAX_TRACEBACK_CHARS))
        except LLMError as exc:
            rendered = format_quarantine_traceback(exc)
        assert rendered.startswith("... (truncated)\n")
        assert len(rendered) <= MAX_TRACEBACK_CHARS + len("... (truncated)\n")
        # Truncation keeps the tail, where the raise site and message live.
        assert rendered.endswith("x" * 50 + "\n")

    def test_quarantine_error_detail_survives_journal_recovery(self, tmp_path):
        def terminal_factory(name):
            return FlakyLLM(
                SimulatedLLM("gpt-4o", schema=make_schema()),
                fail_times=10_000,
                error_factory=lambda n: LLMError(f"persistent outage #{n}"),
            )

        service = AnnotationService.open_durable(
            tmp_path / "svc", llm_factory=terminal_factory
        )
        service.register_project(
            "alpha",
            make_schema(),
            config=TaskConfig(
                batch_size=3,
                llm_retry_base_delay=0.001,
                llm_retry_max_delay=0.002,
            ),
            llm=terminal_factory("alpha"),
        )
        service.submit(QUERIES[0], project="alpha")
        service.drain()
        service.close()

        recovered = AnnotationService.open_durable(
            tmp_path / "svc", llm_factory=terminal_factory
        )
        assert len(recovered.quarantine) == 1
        item = recovered.quarantine[0]
        assert item.error_type == "LLMError"
        assert "persistent outage" in item.error
        assert "LLMError" in item.traceback

    def test_stats_snapshot_restore_replay_round_trip(self, tmp_path):
        service = AnnotationService.open_durable(
            tmp_path / "svc", snapshot_every=4
        )
        for name in PROJECTS[:2]:
            service.register_project(
                name, make_schema(), config=TaskConfig(batch_size=3)
            )
        submit_mix(service, projects=PROJECTS[:2])
        service.drain()
        assert service.stats.llm_requests > 0
        state = service.capture_state()
        assert state["stats"]["llm_requests"] == service.stats.llm_requests
        service.close()

        # Warm start (snapshot + suffix) and cold replay must both restore
        # the telemetry-era counters, including llm_requests.
        warm = AnnotationService.open_durable(tmp_path / "svc")
        cold = AnnotationService.recover(tmp_path / "svc" / "journal.bin")
        for recovered in (warm, cold):
            assert recovered.stats.llm_requests == service.stats.llm_requests
            assert recovered.stats.completed == service.stats.completed
            assert recovered.stats.waves == service.stats.waves
        warm.close()
        cold.close()

        restored = AnnotationService()
        restored.restore_state(state)
        assert restored.stats.llm_requests == service.stats.llm_requests

    def test_flaky_thread_stress_with_shared_telemetry(self):
        retry_config = TaskConfig(
            batch_size=3, llm_retry_base_delay=0.001, llm_retry_max_delay=0.002
        )

        def flaky_factory(name):
            return FlakyLLM(
                SimulatedLLM("gpt-4o", schema=make_schema()), fail_times=2
            )

        reference = build_service(config=retry_config, llm_factory=flaky_factory)
        submit_mix(reference)
        expected = completed_keys(reference.drain())

        telemetry = Telemetry()
        stressed = build_telemetry_service(
            telemetry=telemetry,
            max_concurrency=4,
            config=retry_config,
            llm_factory=flaky_factory,
        )
        submit_mix(stressed)
        assert completed_keys(stressed.drain()) == expected

        snapshot = telemetry.metrics_dict()
        retries = sum(
            series["value"] for series in snapshot["llm_retries_total"]["series"]
        )
        # Four tenants, each with an independent 2-failure budget.
        assert retries == 2 * len(PROJECTS)
        assert "llm_backoff_seconds" in snapshot
        # Registry survived concurrent drains: exposition still renders.
        assert telemetry.render_prometheus().strip()

    def test_durable_drain_counts_journal_and_snapshot_writes(self, tmp_path):
        telemetry = Telemetry()
        service = AnnotationService.open_durable(
            tmp_path / "svc", snapshot_every=2, telemetry=telemetry
        )
        service.register_project(
            "alpha", make_schema(), config=TaskConfig(batch_size=3)
        )
        service.submit(QUERIES[0], project="alpha")
        service.submit(QUERIES[1], project="alpha")
        service.drain()
        service.close()
        snapshot = telemetry.metrics_dict()
        appends = {
            series["labels"]["type"]: series["value"]
            for series in snapshot["journal_appends_total"]["series"]
        }
        assert appends.get("job_submitted") == 2.0
        assert "project_registered" in appends
        assert "journal_bytes_total" in snapshot
        assert "journal_fsyncs_total" in snapshot
        assert snapshot["snapshot_writes_total"]["series"][0]["value"] >= 1.0
        assert "snapshot_write_seconds" in snapshot


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE + slow-query log
# ----------------------------------------------------------------------

@pytest.fixture()
def shop() -> Database:
    database = Database("shop")
    database.execute(
        "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT, tier TEXT)"
    )
    database.execute(
        "CREATE TABLE orders (id INT PRIMARY KEY, customer_id INT, status TEXT)"
    )
    database.execute(
        "INSERT INTO customers (id, name, tier) VALUES "
        + ", ".join(
            f"({i}, 'cust_{i}', '{'gold' if i % 4 == 0 else 'basic'}')"
            for i in range(12)
        )
    )
    database.execute(
        "INSERT INTO orders (id, customer_id, status) VALUES "
        + ", ".join(
            f"({i}, {i % 12}, '{'open' if i % 3 else 'closed'}')" for i in range(40)
        )
    )
    return database


GROUPED_SQL = (
    "SELECT customer_id, COUNT(*) AS n FROM orders WHERE status = 'open' "
    "GROUP BY customer_id ORDER BY n DESC, customer_id LIMIT 5"
)


class TestExplainAnalyze:
    def test_analyze_reports_operators_without_perturbing_results(self, shop):
        baseline = shop.execute(GROUPED_SQL)
        info = shop.explain(GROUPED_SQL, analyze=True)
        analyze = info["analyze"]
        assert analyze["rows_returned"] == len(baseline.rows)
        assert analyze["columns"] == baseline.columns
        assert analyze["total_seconds"] >= 0
        assert analyze["truncated"] is False
        ops = [operator["op"] for operator in analyze["operators"]]
        assert "scan" in ops
        assert "filter" in ops
        assert "sort" in ops
        assert "limit" in ops
        assert "aggregate" in ops
        scan = next(o for o in analyze["operators"] if o["op"] == "scan")
        assert scan["rows_out"] == 40
        filtered = next(o for o in analyze["operators"] if o["op"] == "filter")
        assert filtered["rows_in"] == 40
        assert 0 < filtered["rows_out"] < 40
        limit = next(o for o in analyze["operators"] if o["op"] == "limit")
        assert limit["rows_out"] == len(baseline.rows)
        # Running ANALYZE leaves the database unchanged: same rows afterwards.
        assert shop.execute(GROUPED_SQL).rows == baseline.rows

    def test_analyze_reports_what_a_cross_join_runs(self, shop):
        sql = (
            "SELECT c.name, o.id FROM customers c CROSS JOIN orders o "
            "WHERE c.tier = 'gold' AND o.status = 'closed' AND o.customer_id = c.id "
            "ORDER BY o.id"
        )
        baseline = shop.execute(sql)
        analyze = shop.explain(sql, analyze=True)["analyze"]
        assert analyze["rows_returned"] == len(baseline.rows) == 4
        operators = {operator["op"]: operator for operator in analyze["operators"]}
        # The product streams into WHERE after the two single-table
        # conjuncts filtered its inputs.
        assert "scan" not in operators and "filter" not in operators
        stream = operators["stream"]
        assert stream["inputs"] == [12, 40]
        assert stream["kept"] == [3, 14]
        assert stream["pushed"] == 2
        assert stream["rows_in"] == 52
        assert stream["rows_out"] == 4
        assert shop.execute(sql).rows == baseline.rows

    def test_analyze_counts_plan_cache_and_compiled_expressions(self, shop):
        sql = "SELECT name FROM customers WHERE tier = 'gold' ORDER BY name"
        first = shop.explain(sql, analyze=True)["analyze"]
        second = shop.explain(sql, analyze=True)["analyze"]
        assert first["plan_cache"]["misses"] >= 1 or first["plan_cache"]["hits"] >= 1
        # The second run must be served from the statement cache.
        assert second["plan_cache"]["hits"] >= 1
        assert second["plan_cache"]["misses"] == 0

    def test_analyze_set_operation_and_subquery_depth(self, shop):
        union = shop.explain(
            "SELECT name FROM customers WHERE tier = 'gold' "
            "UNION SELECT name FROM customers WHERE id < 2 ORDER BY name",
            analyze=True,
        )["analyze"]
        ops = [operator["op"] for operator in union["operators"]]
        assert "set_op" in ops
        set_op = next(o for o in union["operators"] if o["op"] == "set_op")
        assert set_op["operator"] == "UNION"
        assert set_op["depth"] == 0
        # Both branches executed under the set operation at depth 1.
        assert [o["depth"] for o in union["operators"] if o["op"] == "scan"] == [1, 1]

        nested = shop.explain(
            "SELECT name FROM customers WHERE id IN "
            "(SELECT customer_id FROM orders WHERE status = 'closed')",
            analyze=True,
        )["analyze"]
        depths = {o["depth"] for o in nested["operators"]}
        assert 0 in depths
        assert any(depth > 0 for depth in depths)

    def test_analyze_cannot_nest(self, shop):
        from repro.engine.executor import _AnalyzeCollector

        executor = shop._executor
        statement = shop.parse_cached("SELECT name FROM customers")
        executor.analyze_select(statement)  # plain analyze is fine
        executor._analyze = _AnalyzeCollector()  # simulate an in-flight analyze
        try:
            with pytest.raises(ExecutionError):
                executor.analyze_select(statement)
        finally:
            executor._analyze = None

    def test_explain_describes_statement_and_set_operation(self, shop):
        assert shop.explain(GROUPED_SQL) == {"statement": "Select"}
        union = shop.explain(
            "SELECT id FROM customers EXCEPT SELECT customer_id FROM orders"
        )
        assert union["set_operation"] == "EXCEPT"
        insert = shop.explain("INSERT INTO customers (id) VALUES (99)")
        assert insert["statement"] == "Insert"
        assert "reason" in insert
        # explain only parses: the INSERT did not run.
        assert len(shop.table("customers")) == 12

    def test_explain_without_analyze_is_unchanged(self, shop):
        info = shop.explain(GROUPED_SQL)
        assert "analyze" not in info
        info = shop.explain(GROUPED_SQL, analyze=False)
        assert "analyze" not in info

    def test_slow_query_log_capture_and_disable(self, shop):
        telemetry = Telemetry()
        shop.telemetry = telemetry
        shop.set_slow_query_log(0.0)  # everything is "slow"
        shop.execute("SELECT name FROM customers WHERE tier = 'gold'")
        assert len(shop.slow_queries) == 1
        entry = shop.slow_queries[0]
        assert entry["sql"] == "SELECT name FROM customers WHERE tier = 'gold'"
        assert entry["seconds"] >= 0
        assert entry["rows"] == 3
        snapshot = telemetry.metrics_dict()
        assert snapshot["database_slow_queries_total"]["series"][0]["value"] == 1.0

        shop.set_slow_query_log(None)
        shop.execute("SELECT name FROM customers")
        assert len(shop.slow_queries) == 1  # disabled: nothing new recorded

    def test_slow_query_log_threshold_filters_fast_queries(self, shop):
        shop.set_slow_query_log(10.0)  # nothing takes ten seconds
        shop.execute("SELECT name FROM customers")
        assert len(shop.slow_queries) == 0

    def test_slow_query_log_capacity_bounds_the_ring(self, shop):
        shop.set_slow_query_log(0.0, capacity=2)
        for index in range(5):
            shop.execute(f"SELECT name FROM customers WHERE id = {index}")
        assert len(shop.slow_queries) == 2
        assert shop.slow_queries[-1]["sql"].endswith("id = 4")
        with pytest.raises(ValueError):
            shop.set_slow_query_log(-1.0)
        with pytest.raises(ValueError):
            shop.set_slow_query_log(0.0, capacity=0)


# ----------------------------------------------------------------------
# benchmark hygiene (satellite: perf_counter standardisation)
# ----------------------------------------------------------------------

def test_benchmarks_use_perf_counter_not_wall_clock():
    """Benchmark timing must be monotonic: no ``time.time()`` anywhere."""
    bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
    offenders = []
    for path in sorted(bench_dir.glob("*.py")):
        if re.search(r"\btime\.time\(", path.read_text(encoding="utf-8")):
            offenders.append(path.name)
    assert offenders == [], f"benchmarks using wall-clock timing: {offenders}"
