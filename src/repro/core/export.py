"""Export (paper step 7).

Accepted annotations are exported in the typical benchmark-ready JSON format
used by Spider/Bird-style datasets: a list of records with the NL question,
the gold SQL, and the database identifier.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.pipeline import AnnotationRecord
from repro.errors import ExportError


def to_benchmark_records(annotations: list[AnnotationRecord]) -> list[dict[str, object]]:
    """Convert accepted annotations to benchmark-ready dictionaries."""
    records = []
    for record in annotations:
        if not record.accepted or not record.nl:
            continue
        records.append(
            {
                "question": record.nl,
                "query": record.sql,
                "db_id": record.dataset or "default",
                "query_id": record.query_id,
                "source": "benchpress",
                "model": record.model_name,
                "decomposed": record.was_decomposed,
            }
        )
    return records


def export_benchmark_json(
    annotations: list[AnnotationRecord], path: str | Path, indent: int = 2
) -> Path:
    """Write accepted annotations to a benchmark JSON file and return its path."""
    records = to_benchmark_records(annotations)
    if not records:
        raise ExportError("there are no accepted annotations to export")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(records, indent=indent), encoding="utf-8")
    return path
