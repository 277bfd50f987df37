"""Spans recorded from the benchmark's side around calls into each layer.

:func:`install` wraps the public entry points of every layer of ``repro``.
Methods are wrapped on their class; module-level functions are rebound in
every loaded ``repro`` module that imported them by name (``from … import``
binds a second reference the original module cannot redirect).  Each call
records one span ``(name, layer, start, end, parent, op id, count)`` in
memory; :meth:`Tracer.dump` writes them out when the run ends.

Worker threads of the concurrent drain start with an empty span stack; their
spans are parented to the span open on the main thread, which is blocked in
the drain that scheduled them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: Phase markers used as op ids outside measured ops.
BETWEEN_OPS = 0
SETUP_OP = -1
WARMUP_OP = -2

_perf = time.perf_counter


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        # Each span: [name, layer, start, end, parent, op_id, count]
        self.spans: list[list] = []
        self.op_id = SETUP_OP
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str, count: int) -> tuple[list, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else -1
        record = [name, layer, 0.0, 0.0, parent, self.op_id, count]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[2] = _perf()
        return record, stack

    def call(self, name: str, layer: str, count: int, fn, args, kwargs):
        record, stack = self._open(name, layer, count)
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = _perf()
            stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """Root span of one measured op; every layer span nests under it."""
        self.op_id = op_id
        record, stack = self._open("bench.op", "bench", 1)
        try:
            yield
        finally:
            record[3] = _perf()
            stack.pop()
            self.op_id = BETWEEN_OPS

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for name, layer, start, end, parent, op_id, count in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "layer": layer, "start": start, "end": end,
                         "parent": parent, "op": op_id, "count": count},
                        separators=(",", ":"),
                    )
                )
                out.write("\n")


def _wrapper(tracer: Tracer, name: str, layer: str, fn, count=None):
    call = tracer.call

    if count is None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(name, layer, 1, fn, args, kwargs)
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(name, layer, count(args, kwargs), fn, args, kwargs)
    return traced


def wrap_method(tracer: Tracer, cls: type, attr: str, name: str, layer: str,
                count=None) -> bool:
    """Wrap ``cls.attr`` where it is defined; False if the class lacks it."""
    raw = cls.__dict__.get(attr)
    if raw is None:
        return False
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(_wrapper(tracer, name, layer, raw.__func__, count)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(_wrapper(tracer, name, layer, raw.__func__, count)))
    else:
        setattr(cls, attr, _wrapper(tracer, name, layer, raw, count))
    return True


def wrap_function(tracer: Tracer, module: str, attr: str, name: str, layer: str) -> bool:
    """Wrap a module-level function and every by-name import of it."""
    original = getattr(importlib.import_module(module), attr, None)
    if original is None:
        return False
    traced = _wrapper(tracer, name, layer, original)
    for loaded_name, loaded in list(sys.modules.items()):
        if not loaded_name.startswith("repro") or loaded is None:
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, traced)
    return True


def _prompt_count(args, kwargs) -> int:
    prompts = args[1] if len(args) > 1 else kwargs.get("prompts", ())
    return len(prompts)


def install(tracer: Tracer, extra_methods=()) -> list[str]:
    """Wrap every layer's entry points; returns the names that were missing.

    ``extra_methods`` are ``(cls, attr, name, layer)`` tuples for classes the
    benchmark itself defines (the delayed LLM client's wait).
    """
    from repro.core import journal, pipeline, scheduler, service, snapshot
    from repro.engine import database
    from repro.evaluation import text2sql_models
    from repro.llm import base, simulated
    from repro.obs import telemetry, trace
    from repro.retrieval import example_store, retriever
    from repro.sql import lexer, parser

    methods = [
        (lexer.Lexer, "tokenize", "sql.lex", "sql"),
        (parser.Parser, "parse_statement", "sql.parse", "sql"),
        (parser.Parser, "parse_script", "sql.parse", "sql"),
        (retriever.ContextRetriever, "retrieve", "retrieval.search", "retrieval"),
        (retriever.ContextRetriever, "retrieve_batch", "retrieval.search", "retrieval"),
        (retriever.ContextRetriever, "record_annotation", "retrieval.insert", "retrieval"),
        (example_store.ExampleStore, "add", "retrieval.insert", "retrieval"),
        (example_store.ExampleStore, "load_state", "retrieval.insert", "retrieval"),
        (base.LLMClient, "generate_with_retry", "llm.call", "llm"),
        (base.LLMClient, "generate_batch_with_retry", "llm.call", "llm"),
        (base.RetryPolicy, "delay", "llm.retry", "llm"),
        (simulated.SimulatedLLM, "generate", "llm.round_trip", "llm"),
        (pipeline.AnnotationPipeline, "annotate", "pipeline.annotate", "core.pipeline"),
        (pipeline.AnnotationPipeline, "annotate_many", "pipeline.annotate", "core.pipeline"),
        (pipeline.AnnotationPipeline, "generate_candidates", "pipeline.generate", "core.pipeline"),
        (pipeline.AnnotationPipeline, "submit_feedback", "pipeline.commit", "core.pipeline"),
        (pipeline.WaveRun, "run_next_wave", "pipeline.wave", "core.pipeline"),
        (pipeline.WaveRun, "finish", "pipeline.finish", "core.pipeline"),
        (service.AnnotationService, "register_project", "service.register", "core.service"),
        (service.AnnotationService, "submit", "service.submit", "core.service"),
        (service.AnnotationService, "drain", "service.drain", "core.service"),
        (service.AnnotationService, "open_durable", "service.open", "core.service"),
        (service.AnnotationService, "recover", "service.recover", "core.service"),
        (service.AnnotationService, "close", "service.close", "core.service"),
        (service.AnnotationService, "capture_state", "service.capture", "core.service"),
        (service.AnnotationService, "restore_state", "snapshot.restore", "core.snapshot"),
        (service.AnnotationService, "_replay_event", "journal.replay_event", "core.journal"),
        (scheduler.WaveScheduler, "run_all", "service.schedule", "core.service"),
        (journal.EventJournal, "__init__", "journal.open", "core.journal"),
        (journal.EventJournal, "events", "journal.replay", "core.journal"),
        (journal.EventJournal, "append", "journal.append", "core.journal"),
        (journal.EventJournal, "commit", "journal.commit", "core.journal"),
        (journal.EventJournal, "close", "journal.close", "core.journal"),
        (snapshot.SnapshotManager, "save", "snapshot.save", "core.snapshot"),
        (snapshot.SnapshotManager, "latest", "snapshot.restore", "core.snapshot"),
        (database.Database, "create_table", "engine.insert", "engine"),
        (database.Database, "insert", "engine.insert", "engine"),
        (database.Database, "parse_cached", "engine.parse_cached", "engine"),
        (database.Database, "execute", "engine.execute_sql", "engine"),
        (database.Database, "execute_statement", "engine.execute", "engine"),
        (text2sql_models.SimulatedText2SQLModel, "predict", "evaluation.predict", "evaluation"),
        (text2sql_models.SimulatedText2SQLModel, "for_workload", "evaluation.model", "evaluation"),
    ]
    for cls in (telemetry.Telemetry, telemetry.NullTelemetry):
        for attr in ("count", "gauge", "observe", "observe_size", "event", "span"):
            methods.append((cls, attr, "obs.call", "obs"))
    scope = getattr(trace, "_SpanScope", None)
    if scope is not None:
        methods += [(scope, "__enter__", "obs.call", "obs"),
                    (scope, "__exit__", "obs.call", "obs")]
    missing = []
    for cls, attr, name, layer in [*methods, *extra_methods]:
        if not wrap_method(tracer, cls, attr, name, layer):
            missing.append(f"{cls.__name__}.{attr}")
    if not wrap_method(tracer, simulated.SimulatedLLM, "generate_batch",
                       "llm.round_trip", "llm", count=_prompt_count):
        missing.append("SimulatedLLM.generate_batch")

    functions = [
        ("repro.sql.analyzer", "analyze_query", "sql.analyze", "sql"),
        ("repro.sql.decompose", "decompose", "sql.decompose", "sql"),
        ("repro.sql.recompose", "recompose", "sql.recompose", "sql"),
        ("repro.schema.linking", "link_sql_to_schema", "schema.link", "schema"),
        ("repro.schema.linking", "link_text_to_schema", "schema.link", "schema"),
        ("repro.core.snapshot", "restore_pipeline_state", "snapshot.restore", "core.snapshot"),
        ("repro.metrics.execution", "compare_execution", "metrics.compare", "metrics"),
    ]
    for module, attr, name, layer in functions:
        if not wrap_function(tracer, module, attr, name, layer):
            missing.append(f"{module}.{attr}")

    # Durable commits end in os.fsync; count them where the journal calls it.
    journal.os = _FsyncCountingOs(tracer)
    return missing


class _FsyncCountingOs:
    """Stand-in for ``os`` inside the journal module that traces ``fsync``."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def fsync(self, fd):
        return self._tracer.call("journal.fsync", "core.journal", 1, os.fsync, (fd,), {})

    def __getattr__(self, attr):
        return getattr(os, attr)
