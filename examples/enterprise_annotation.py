"""Enterprise scenario: annotate your own SQL logs against your own schema.

Mirrors the paper's motivating workflow: an organisation has abundant SQL logs
but no natural-language annotations.  This example registers a small
warehouse schema as a project of the annotation service, submits a raw query
log and drains it through the annotation pipeline (including nested-query
decomposition), and verifies round-trip fidelity with the backtranslation
rubric.

Run with:  python examples/enterprise_annotation.py
"""

from __future__ import annotations

from repro.core import AnnotationService, split_sql_log
from repro.engine import Database
from repro.llm import SimulatedLLM
from repro.metrics import grade_backtranslation
from repro.schema import parse_ddl_script

SCHEMA_DDL = """
CREATE TABLE ACADEMIC_TERMS_ALL (TERM_KEY INT PRIMARY KEY, TERM_CODE VARCHAR(10),
    TERM_NAME VARCHAR(40), IS_CURRENT BOOLEAN, START_DATE DATE);
CREATE TABLE STUDENT_ENROLLMENT (ENROLLMENT_KEY INT PRIMARY KEY, MIT_ID INT,
    TERM_KEY INT REFERENCES ACADEMIC_TERMS_ALL (TERM_KEY), SUBJECT_CODE VARCHAR(12),
    UNITS INT, STATUS VARCHAR(10));
CREATE TABLE MOIRA_LIST (MOIRA_LIST_KEY INT PRIMARY KEY, MOIRA_LIST_NAME VARCHAR(40),
    DEPARTMENT VARCHAR(20), MEMBER_COUNT INT);
"""

SQL_LOG = """
SELECT TERM_NAME FROM ACADEMIC_TERMS_ALL WHERE IS_CURRENT = TRUE;
SELECT SUBJECT_CODE, COUNT(*) FROM STUDENT_ENROLLMENT WHERE STATUS = 'ENROLLED' GROUP BY SUBJECT_CODE;
SELECT MOIRA_LIST_NAME FROM MOIRA_LIST WHERE MOIRA_LIST_NAME LIKE 'B%' AND MEMBER_COUNT > 50;
SELECT COUNT(*) FROM STUDENT_ENROLLMENT WHERE TERM_KEY IN (SELECT TERM_KEY FROM ACADEMIC_TERMS_ALL WHERE IS_CURRENT = TRUE);
"""

SAMPLE_DATA = """
INSERT INTO ACADEMIC_TERMS_ALL VALUES (1, '2024FA', 'Fall 2024', FALSE, '2024-09-01'),
    (2, '2025JA', 'January term 2025', FALSE, '2025-01-06'), (3, '2025SP', 'Spring 2025', TRUE, '2025-02-03');
INSERT INTO STUDENT_ENROLLMENT VALUES (1, 901, 3, '6.1040', 12, 'ENROLLED'),
    (2, 902, 3, '6.5830', 12, 'ENROLLED'), (3, 901, 1, '18.06', 12, 'COMPLETED'),
    (4, 903, 3, '6.5830', 12, 'ENROLLED'), (5, 904, 2, '21L.001', 9, 'DROPPED');
INSERT INTO MOIRA_LIST VALUES (1, 'BENCHPRESS-DEV', 'EECS', 64), (2, 'BIO-SEMINAR', 'Biology', 40),
    (3, 'BADMINTON-CLUB', 'DAPER', 120);
"""


def main() -> None:
    schema = parse_ddl_script(SCHEMA_DDL, schema_name="mit_dw_sample")

    service = AnnotationService()
    pipeline = service.register_project("warehouse-logs", schema)

    # Inject institutional knowledge up front (the feedback loop reuses it for
    # every later query).
    pipeline.feedback_loop.knowledge.add(
        "J-term", "the one-month January term in the MIT academic calendar"
    )
    pipeline.feedback_loop.knowledge.add("Moira", "the mailing-list management system")

    # Upload the log: each statement becomes one queued annotation job, and
    # a drain annotates them all.  A statement that does not parse would come
    # back as a failed job, quarantined, without stopping the others.
    statements = split_sql_log(SQL_LOG)
    service.submit_many(statements, project="warehouse-logs")
    print(f"Ingested {len(statements)} log statements\n")

    records = []
    for completed in service.drain():
        if completed.failed:
            print(f"Quarantined: {completed.job.sql}\n  -> {completed.error}\n")
            continue
        record = completed.record
        records.append(record)
        decomposed = " (decomposed)" if record.was_decomposed else ""
        print(f"SQL{decomposed}: {record.sql}")
        print(f"  -> {record.nl}\n")

    # Verify annotation fidelity by round-tripping through a vanilla LLM and
    # executing both queries on a populated copy of the warehouse.
    database = Database("mit_dw_sample")
    database.execute_script(SCHEMA_DDL)
    database.execute_script(SAMPLE_DATA)
    backtranslator = SimulatedLLM("gpt-4o", schema=schema)

    print("Backtranslation fidelity (1 = invalid ... 5 = fully correct):")
    for record in records:
        predicted = backtranslator.backtranslate(record.nl)
        judgement = grade_backtranslation(database, record.sql, predicted)
        print(f"  level {judgement.level}  {record.query_id}")


if __name__ == "__main__":
    main()
