"""Build the workload digest golden replayed by ``tests/test_workload_digests.py``.

The committed ``workload_digests.json`` was written by the row-at-a-time
table load (``StoredTable.insert_row`` checking and coercing one cell at a
time) fed by a generator that built one dict per row.  Replaying it checks
that a rewrite of either keeps every generated table and query.
Regenerating it with the current code only re-records today's behaviour.

    PYTHONPATH=src python tests/data/make_workload_digests.py

It covers the four benchmarks at seeds 0-2 at the paper harnesses' scale
(``benchmarks/conftest.py``: row scale 0.0015, 20 queries).  For each
workload the file holds the Table 2 profile; every table's name, row count
and digests of its columns (name, declared type, NOT NULL, primary key) and
of its cells (each cell's Python type name and value, row by row); and every
query's id with a digest of its SQL and gold NL.  Digests are the first
64 bits of the sha256 of canonical JSON, which spells floats exactly.
The file is byte-identical under any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

from repro.schema import profile_database
from repro.workloads import BENCHMARK_NAMES, build_benchmark

ROW_SCALE = 0.0015
QUERY_COUNT = 20
SEEDS = (0, 1, 2)


def digest(value: object) -> str:
    """First 64 bits of the sha256 of the canonical JSON encoding of ``value``."""
    canonical = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def build(name: str, seed: int):
    return build_benchmark(name, seed=seed, row_scale=ROW_SCALE, query_count=QUERY_COUNT)


def table_state(table) -> dict:
    return {
        "name": table.name,
        "columns_digest": digest(
            [
                [column.name, column.data_type.value, column.not_null, column.primary_key]
                for column in table.columns
            ]
        ),
        "rows": len(table.rows),
        "cells_digest": digest(
            [[[type(value).__name__, value] for value in row] for row in table.rows]
        ),
    }


def record_workload(name: str, seed: int, workload) -> dict:
    return {
        "benchmark": name,
        "seed": seed,
        "profile": profile_database(workload.database).as_dict(),
        "tables": [table_state(table) for table in workload.database.tables()],
        "queries": [
            {"query_id": query.query_id, "digest": digest([query.sql, query.gold_nl])}
            for query in workload.queries
        ],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default=str(Path(__file__).with_name("workload_digests.json"))
    )
    args = parser.parse_args()
    workloads = [
        record_workload(name, seed, build(name, seed))
        for name in BENCHMARK_NAMES
        for seed in SEEDS
    ]
    payload = {
        "row_scale": ROW_SCALE,
        "query_count": QUERY_COUNT,
        "workloads": workloads,
    }
    with open(args.out, "w", encoding="ascii") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")
    tables = sum(len(entry["tables"]) for entry in workloads)
    queries = sum(len(entry["queries"]) for entry in workloads)
    print(f"wrote {len(workloads)} workloads, {tables} tables and {queries} queries to {args.out}")


if __name__ == "__main__":
    main()
