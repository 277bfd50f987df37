"""Build the analyzer golden corpus replayed by ``tests/test_sql_analyzer.py``.

The committed ``analyzer_corpus.json`` was written by the generator-based
analyzer (one ``iter_subqueries`` / ``_all_expressions`` walk per metric),
the ``deepcopy``-based decomposer and the linear-scan schema lookups that
preceded the single-pass versions.  Replaying it checks that the rewrite kept
every static profile, every decomposition unit and every schema link.
Regenerating it with the current code only re-records today's behaviour.

    PYTHONPATH=src python tests/data/make_analyzer_corpus.py

Statements are every distinct SQL text of the perfbench fixtures (annotation
logs, tenant pools and the Figure 1 gold questions), each with the schema it
was generated for.  For every statement and every decomposition unit the
corpus holds the ``analyze_query`` profile, the ``extract_*`` / ``count_*`` /
``nesting_depth`` / ``is_nested`` results, the printed ``iter_subqueries``
order (with and without CTEs) and the ``link_sql_to_schema`` result; for every
statement also the full ``decompose`` output.  Printed SQL and linking results
are stored as (64-bit) sha256 digests of their canonical JSON to keep the
file small.
The file is byte-identical under any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
from pathlib import Path

from repro.core.snapshot import schema_from_state
from repro.schema.linking import link_sql_to_schema
from repro.sql.analyzer import (
    analyze_query,
    count_joins,
    count_predicates,
    extract_aggregates,
    extract_columns,
    extract_literals,
    extract_tables,
    is_nested,
    iter_subqueries,
    nesting_depth,
)
from repro.sql.decompose import decompose
from repro.sql.parser import parse_select
from repro.sql.printer import print_select

FIXTURE_DIR = Path(__file__).resolve().parents[2] / "perfbench" / "fixtures"


def load_fixture(name: str) -> dict:
    with gzip.open(FIXTURE_DIR / f"{name}.json.gz", "rb") as handle:
        return json.loads(handle.read())["data"]


def fixture_statements() -> tuple[dict[str, dict], list[list[str]]]:
    """Return ``(schemas by name, [[schema name, sql], ...])`` in fixture order."""
    schemas: dict[str, dict] = {}
    statements: list[list[str]] = []
    seen: set[tuple[str, str]] = set()

    def add(schema_state: dict, sql: str) -> None:
        name = schema_state["name"]
        schemas.setdefault(name, schema_state)
        if (name, sql) not in seen:
            seen.add((name, sql))
            statements.append([name, sql])

    log = load_fixture("log")
    for entries in log["logs"]:
        for sql in entries:
            add(log["schema"], sql)
    tenants = load_fixture("tenants")
    for project in sorted(tenants["projects"]):
        for sql in tenants["projects"][project]["sql"]:
            add(tenants["projects"][project]["schema"], sql)
    evaluation = load_fixture("eval")
    for family in sorted(evaluation["families"]):
        bundle = evaluation["families"][family]
        for question in bundle["questions"]:
            add(bundle["schema"], question["sql"])
    return schemas, statements


def digest(value: object) -> str:
    """First 64 bits of the sha256 of the canonical JSON encoding of ``value``."""
    canonical = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def linking_state(linking) -> dict:
    return {
        "tables": linking.tables,
        "columns": [list(pair) for pair in linking.columns],
        "links": [[link.table, link.column, link.score, link.source] for link in linking.links],
        "unresolved_tables": linking.unresolved_tables,
        "unresolved_columns": linking.unresolved_columns,
    }


def profile_block(sql: str, select, schema) -> dict:
    """Every analyzer and linking result for one query block.

    Long printed texts (subqueries, linking results) are kept as digests.
    """
    profile = analyze_query(sql, select)
    extracted = {
        "tables": extract_tables(select),
        "columns": extract_columns(select),
        "aggregate_calls": extract_aggregates(select),
        "literals": extract_literals(select),
        "nestings": nesting_depth(select),
        "joins": count_joins(select),
        "predicates": count_predicates(select),
        "is_nested": is_nested(select),
    }
    complexity = profile.complexity
    block = {
        "complexity": complexity.as_dict()
        | {
            "has_group_by": complexity.has_group_by,
            "has_order_by": complexity.has_order_by,
            "has_set_operation": complexity.has_set_operation,
        },
        "tables": profile.tables,
        "columns": profile.columns,
        "aggregate_calls": profile.aggregate_calls,
        "literals": profile.literals,
    }
    # The standalone functions agree with the profile; the corpus records
    # one copy and the replay checks both against it.
    for key in ("tables", "columns", "aggregate_calls", "literals"):
        assert extracted[key] == block[key], key
    for key in ("nestings", "joins", "predicates"):
        assert extracted[key] == complexity.as_dict()[key], key
    assert extracted["is_nested"] == (complexity.nestings > 0)
    block["subqueries_digest"] = digest(
        [print_select(query) for query in iter_subqueries(select)]
    )
    block["subqueries_without_ctes_digest"] = digest(
        [print_select(query) for query in iter_subqueries(select, include_ctes=False)]
    )
    linking = linking_state(link_sql_to_schema(select, schema))
    block["unresolved_tables"] = linking["unresolved_tables"]
    block["unresolved_columns"] = linking["unresolved_columns"]
    block["linking_digest"] = digest(linking)
    return block


def record_statement(schema_name: str, sql: str, schema) -> dict:
    select = parse_select(sql)
    result = decompose(select)
    return {
        "schema": schema_name,
        "sql": sql,
        "profile": profile_block(sql, select, schema),
        "decomposition": {
            "original_sql_digest": digest(result.original_sql),
            "decomposed_sql_digest": digest(result.decomposed_sql),
            "was_nested": result.was_nested,
            "units": [
                {
                    "name": unit.name,
                    "sql_digest": digest(unit.sql),
                    "role": unit.role,
                    "tables": unit.tables,
                    "columns": unit.columns,
                    "depends_on": unit.depends_on,
                    "profile": profile_block(unit.sql, unit.query, schema),
                }
                for unit in result.units
            ],
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default=str(Path(__file__).with_name("analyzer_corpus.json"))
    )
    args = parser.parse_args()
    schema_states, statements = fixture_statements()
    schemas = {name: schema_from_state(state) for name, state in schema_states.items()}
    cases = [record_statement(name, sql, schemas[name]) for name, sql in statements]
    payload = {
        "count": len(cases),
        "schemas": sorted(schemas),
        "cases": cases,
    }
    with open(args.out, "w", encoding="ascii") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")
    units = sum(len(case["decomposition"]["units"]) for case in cases)
    print(f"wrote {len(cases)} statements and {units} decomposition units to {args.out}")


if __name__ == "__main__":
    main()
