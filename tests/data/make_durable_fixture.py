"""Build the durable-service fixture recovered by ``tests/test_durable_fixture.py``.

The committed ``durable_service/`` directory (``journal.bin`` plus
``snapshots/``) was written by the build whose journal repeated each
archived example's SQL and NL inside its ``annotation_committed`` events and
whose snapshots and ``project_registered`` events spelled every schema field
and every feedback field, defaults included.  ``durable_expected.json``
holds what that build's live service held when it closed.  Recovering the
directory checks that a change to the durable format still reads what
earlier builds wrote.  Regenerating both with the current code only
re-records today's format.

    PYTHONPATH=src python tests/data/make_durable_fixture.py

The service has two projects ("hr" and "shop", the second with its own
config).  It drains statements one at a time, some with quoted identifiers,
takes interactive feedback (regenerate, edit, discard, rewrite), writes one
snapshot mid-way and then a journal suffix after it, and leaves one job
pending.  No job fails, so no traceback lands in the journal.
"""

from __future__ import annotations

import argparse
import base64
import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

from repro.core import AnnotationService, Feedback, FeedbackAction, TaskConfig
from repro.retrieval import ExampleStore
from repro.schema import ColumnSchema, DatabaseSchema, ForeignKey, TableSchema

HERE = Path(__file__).parent
DIRECTORY = HERE / "durable_service"
EXPECTED = HERE / "durable_expected.json"

#: (project, SQL) drained one job at a time before the snapshot.
BEFORE_SNAPSHOT = [
    ("hr", "SELECT name FROM employees"),
    ("shop", 'SELECT "title" FROM products WHERE price > 20'),
    ("hr", "SELECT dept_id, COUNT(*) FROM employees GROUP BY dept_id"),
    ("shop", "SELECT p.title, o.quantity FROM orders o JOIN products p ON o.product_id = p.product_id"),
]
#: (project, SQL) drained one job at a time after the snapshot.
AFTER_SNAPSHOT = [
    ("hr", 'SELECT e."name", d.dept_name FROM employees e JOIN departments d ON e.dept_id = d.dept_id'),
    ("shop", "SELECT `quantity` FROM orders WHERE quantity >= 3"),
    ("hr", "SELECT name FROM employees WHERE salary > 100000"),
]
#: Submitted last and never drained.
PENDING = ("shop", "SELECT COUNT(*) FROM orders")


def hr_schema() -> DatabaseSchema:
    return DatabaseSchema(
        name="hr",
        description="Human resources",
        tables=[
            TableSchema(
                name="employees",
                description="One row per person on the payroll",
                columns=[
                    ColumnSchema("emp_id", "INT", primary_key=True, nullable=False),
                    ColumnSchema("name", description="Full name"),
                    ColumnSchema("salary", "REAL"),
                    ColumnSchema("dept_id", "INT"),
                ],
                foreign_keys=[ForeignKey("dept_id", "departments", "dept_id")],
            ),
            TableSchema(
                name="departments",
                columns=[
                    ColumnSchema("dept_id", "INT", primary_key=True, nullable=False),
                    ColumnSchema("dept_name", "TEXT", nullable=False),
                    ColumnSchema("budget", "REAL"),
                ],
            ),
        ],
    )


def shop_schema() -> DatabaseSchema:
    return DatabaseSchema(
        name="shop",
        tables=[
            TableSchema(
                name="products",
                columns=[
                    ColumnSchema("product_id", "INT", primary_key=True, nullable=False),
                    ColumnSchema("title"),
                    ColumnSchema("price", "REAL"),
                ],
            ),
            TableSchema(
                name="orders",
                columns=[
                    ColumnSchema("order_id", "INT", primary_key=True, nullable=False),
                    ColumnSchema("product_id", "INT"),
                    ColumnSchema("quantity", "INT"),
                ],
                foreign_keys=[ForeignKey("product_id", "products", "product_id")],
            ),
        ],
    )


def digest(value: object) -> str:
    """First 64 bits of the sha256 of the canonical JSON encoding of ``value``."""
    canonical = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def archive_view(example_store: ExampleStore) -> dict:
    """One project's retrieval archive, read from its objects.

    The examples and their skeletons; per row of the vector index, its
    doc id and the text it was embedded from (its example's SQL and NL,
    newline-joined); the stored vectors as base64
    little-endian float64 rows; and the embedding model's IDF state: each
    feature some document bears, sorted, with its document frequency and
    its signed vector index ``(index + 1) * sign``.
    """
    examples = {example.example_id: example for example in example_store._examples.values()}
    index = example_store._store
    model = index.model
    frequencies = model._frequencies
    features = sorted(
        (feature, feature_id)
        for feature, feature_id in model._feature_ids.items()
        if frequencies[feature_id] > 0
    )
    return {
        "counter": example_store._counter,
        "version": example_store.version,
        "examples": [dataclasses.asdict(example) for example in examples.values()],
        "skeletons": {example_id: example_store.skeleton(example_id) for example_id in examples},
        "vector_store": {
            "model": {
                "dimensions": model.dimensions,
                "use_ngrams": model.use_ngrams,
                "document_count": model._document_count,
                "features": [feature for feature, _ in features],
                "frequencies": [float(frequencies[feature_id]) for _, feature_id in features],
                "hashes": [
                    (int(model._indices[feature_id]) + 1) * int(model._signs[feature_id])
                    for _, feature_id in features
                ],
            },
            "entries": [
                {
                    "doc_id": doc_id,
                    "text": f"{examples[doc_id].sql}\n{examples[doc_id].nl}",
                }
                for doc_id in index._ids
            ],
            "vectors": base64.b64encode(
                index._matrix[: len(index)].astype("<f8").tobytes()
            ).decode("ascii"),
        },
    }


def durable_view(service: AnnotationService) -> dict:
    """What a restart must restore, spelled independently of the durable format.

    Schemas and feedback go through ``dataclasses.asdict`` rather than the
    journal's own encoders, and the archive is read from its objects
    (:func:`archive_view`) rather than its state dict, so the view reads the
    same whichever encoding wrote the state.
    """
    projects = {}
    for name in service.project_names:
        pipeline = service.pipeline(name)
        loop = pipeline.feedback_loop
        knowledge = loop.knowledge.state_dict()
        records = [dataclasses.asdict(record) for record in pipeline.annotations]
        projects[name] = {
            "schema": dataclasses.asdict(pipeline.schema),
            "config": pipeline.config.to_dict(),
            "records": records,
            "records_digest": digest(records),
            "feedback": {
                "priorities": list(loop.priorities),
                "revision": loop.revision,
                "history": [
                    dict(dataclasses.asdict(feedback), action=feedback.action.value)
                    for feedback in loop.history
                ],
                "knowledge": knowledge,
            },
            "example_store": archive_view(pipeline.retriever.example_store),
        }
    view = {
        "next_job_id": service.capture_state()["next_job_id"],
        "queue": [dataclasses.asdict(job) for job in service.pending_jobs()],
        "projects": projects,
    }
    return json.loads(json.dumps(view))


def drain_one(service: AnnotationService, project: str, sql: str) -> None:
    service.submit(sql, project=project)
    service.drain()


def give_feedback(service: AnnotationService) -> None:
    """Interactive feedback on the "hr" pipeline: every action but accept."""
    pipeline = service.pipeline("hr")
    sql = "SELECT name FROM employees WHERE dept_id IN (SELECT dept_id FROM departments WHERE budget > 250000)"
    regenerated = pipeline.submit_feedback(
        pipeline.generate_candidates(sql),
        Feedback(
            action=FeedbackAction.REGENERATE,
            new_priorities=["mention the budget threshold"],
            knowledge=[("dept", "short for department")],
            failure_patterns=[("nested IN", "say 'in a department whose'")],
        ),
    )
    assert regenerated is None
    pipeline.submit_feedback(
        pipeline.generate_candidates(sql),
        Feedback(action=FeedbackAction.EDIT, selected_index=0, edited_text="Staff of big-budget departments."),
    )
    pipeline.submit_feedback(
        pipeline.generate_candidates("SELECT budget FROM departments"),
        Feedback(action=FeedbackAction.DISCARD, comment="not a useful question"),
    )


def rewrite_feedback(service: AnnotationService) -> None:
    pipeline = service.pipeline("shop")
    pipeline.submit_feedback(
        pipeline.generate_candidates("SELECT MAX(price) FROM products"),
        Feedback(action=FeedbackAction.REWRITE, edited_text="What is the highest product price?"),
    )


def build(directory: Path) -> dict:
    """Write the durable directory and return the live service's view."""
    shutil.rmtree(directory, ignore_errors=True)
    service = AnnotationService.open_durable(directory, snapshot_every=0)
    service.register_project("hr", hr_schema())
    service.register_project(
        "shop", shop_schema(), config=TaskConfig(model_name="gpt-3.5-turbo", num_candidates=2)
    )
    for project, sql in BEFORE_SNAPSHOT:
        drain_one(service, project, sql)
    give_feedback(service)
    service.snapshot()
    for project, sql in AFTER_SNAPSHOT:
        drain_one(service, project, sql)
    rewrite_feedback(service)
    service.submit(PENDING[1], project=PENDING[0])
    view = durable_view(service)
    service.close()
    return view


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--directory", default=str(DIRECTORY))
    parser.add_argument("--expected", default=str(EXPECTED))
    args = parser.parse_args()
    view = build(Path(args.directory))
    with open(args.expected, "w", encoding="ascii") as handle:
        json.dump(view, handle, indent=1)
        handle.write("\n")
    records = sum(len(project["records"]) for project in view["projects"].values())
    print(f"wrote {len(view['projects'])} projects and {records} records to {args.directory}")


if __name__ == "__main__":
    main()
