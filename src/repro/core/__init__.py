"""The BenchPress system: the annotation service, its pipelines, ingestion and export."""

from repro.core.config import AnnotationTask, TaskConfig
from repro.core.export import export_benchmark_json, to_benchmark_records
from repro.core.feedback import Feedback, FeedbackAction, FeedbackLoop, FeedbackOutcome
from repro.core.ingestion import split_sql_log
from repro.core.journal import (
    EventJournal,
    JournalEvent,
    JournalRecovery,
    JournalSalvageReport,
)
from repro.core.pipeline import (
    AnnotationPipeline,
    AnnotationRecord,
    CandidateSet,
    WaveRun,
    WaveStats,
)
from repro.core.scheduler import WaveScheduler
from repro.core.service import (
    AnnotationJob,
    AnnotationService,
    CompletedJob,
    DrainReport,
    ProjectStats,
    ServiceStats,
)
from repro.core.snapshot import SnapshotManager

__all__ = [
    "AnnotationJob",
    "AnnotationPipeline",
    "AnnotationRecord",
    "AnnotationService",
    "AnnotationTask",
    "CandidateSet",
    "CompletedJob",
    "DrainReport",
    "EventJournal",
    "Feedback",
    "FeedbackAction",
    "FeedbackLoop",
    "FeedbackOutcome",
    "JournalEvent",
    "JournalRecovery",
    "JournalSalvageReport",
    "ProjectStats",
    "ServiceStats",
    "SnapshotManager",
    "TaskConfig",
    "WaveRun",
    "WaveScheduler",
    "WaveStats",
    "export_benchmark_json",
    "split_sql_log",
    "to_benchmark_records",
]
