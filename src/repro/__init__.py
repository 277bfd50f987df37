"""BenchPress reproduction: human-in-the-loop SQL-to-NL benchmark curation.

The package mirrors the system described in *BenchPress: A Human-in-the-Loop
Annotation System for Rapid Text-to-SQL Benchmark Curation* (CIDR 2026):

* :mod:`repro.core` — the annotation system itself (the annotation service
  and its projects, ingestion, the annotation loop, feedback, export),
* :mod:`repro.sql` / :mod:`repro.engine` / :mod:`repro.schema` — the SQL
  front-end, in-memory execution engine, and schema substrate,
* :mod:`repro.retrieval` / :mod:`repro.llm` — the RAG component and the
  deterministic simulated LLM,
* :mod:`repro.workloads` — synthetic Spider/Bird/Fiben/Beaver workloads,
* :mod:`repro.study` / :mod:`repro.evaluation` / :mod:`repro.metrics` /
  :mod:`repro.reporting` — the experiment harnesses reproducing the paper's
  tables and figures.

Quickstart::

    from repro import AnnotationService, build_benchmark
    workload = build_benchmark("Beaver", query_count=10)
    service = AnnotationService()
    service.register_project("Beaver", workload.schema)
    service.submit_many(workload.query_sql, project="Beaver")
    for completed in service.drain():
        print(completed.record.query_id, completed.record.nl)
"""

import importlib

__version__ = "1.0.0"

#: Each top-level export and the subpackage it lives in.  They resolve on
#: first access (PEP 562), so importing one subpackage, say
#: ``repro.engine``, does not load numpy and the annotation stack.
_EXPORTS = {
    "AnnotationPipeline": "repro.core",
    "AnnotationService": "repro.core",
    "ContextRetriever": "repro.retrieval",
    "Database": "repro.engine",
    "DatabaseSchema": "repro.schema",
    "ExampleStore": "repro.retrieval",
    "Feedback": "repro.core",
    "FeedbackAction": "repro.core",
    "KnowledgeBase": "repro.llm",
    "SimulatedLLM": "repro.llm",
    "TaskConfig": "repro.core",
    "build_benchmark": "repro.workloads",
    "export_benchmark_json": "repro.core",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
