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

from repro.core import (
    AnnotationPipeline,
    AnnotationService,
    Feedback,
    FeedbackAction,
    TaskConfig,
    export_benchmark_json,
)
from repro.engine import Database
from repro.llm import KnowledgeBase, SimulatedLLM
from repro.retrieval import ContextRetriever, ExampleStore
from repro.schema import DatabaseSchema
from repro.workloads import build_benchmark

__version__ = "1.0.0"

__all__ = [
    "AnnotationPipeline",
    "AnnotationService",
    "ContextRetriever",
    "Database",
    "DatabaseSchema",
    "ExampleStore",
    "Feedback",
    "FeedbackAction",
    "KnowledgeBase",
    "SimulatedLLM",
    "TaskConfig",
    "__version__",
    "build_benchmark",
    "export_benchmark_json",
]
