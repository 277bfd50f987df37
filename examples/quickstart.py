"""Quickstart: annotate a handful of enterprise SQL log queries with BenchPress.

Registers a project with the annotation service, loads the built-in
Beaver-like enterprise benchmark, runs the annotation loop (decomposition ->
retrieval -> candidate generation -> feedback), and exports the accepted
annotations as a benchmark-ready JSON file.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from pathlib import Path

from repro.core import AnnotationService, Feedback, FeedbackAction, export_benchmark_json
from repro.workloads import build_benchmark


def main() -> None:
    # 1. Dataset ingestion: pick one of the supported benchmarks
    #    (Spider, Bird, Fiben, Beaver) or upload your own schema + SQL log
    #    (see enterprise_annotation.py).
    workload = build_benchmark("Beaver", seed=1, query_count=8, row_scale=0.002)

    # 2. Project setup: the service keeps one annotation pipeline per project;
    #    query ids are numbered after the project name (beaver-00001, ...).
    service = AnnotationService()
    service.register_project(workload.name, workload.schema)
    pipeline = service.pipeline(workload.name)
    queries = workload.query_sql
    print(f"Project ready: {len(queries)} queries to annotate")
    print(f"Task configuration: {pipeline.config.describe()}\n")

    # 3. Annotation loop: the service accepts the model's top suggestion for
    #    the first queries; the project's pipeline then shows editing and
    #    knowledge injection on the next one.
    service.submit_many(queries[:3], project=workload.name)
    for completed in service.drain():
        record = completed.record
        print(f"[{record.query_id}] {record.nl}\n")

    candidate_set = pipeline.generate_candidates(queries[3])
    print("Candidates for the next query:")
    for index, candidate in enumerate(candidate_set.candidates):
        print(f"  ({index}) {candidate}")

    feedback = Feedback(
        action=FeedbackAction.EDIT,
        edited_text=candidate_set.candidates[0],
        knowledge=[("Moira", "the mailing-list management system used for newsletters")],
        new_priorities=["always spell out filtering logic"],
    )
    record = pipeline.submit_feedback(candidate_set, feedback)
    print(f"\nAccepted after edit: {record.nl}")
    print(f"Knowledge base now holds {len(pipeline.feedback_loop.knowledge)} entries")
    print(f"Example store now holds {pipeline.example_count} annotations for retrieval")

    # 4. Review & export.
    output = Path("benchpress_export.json")
    export_benchmark_json(pipeline.annotations, output)
    print(f"\nExported {len(pipeline.accepted_annotations)} annotations to {output}")


if __name__ == "__main__":
    main()
