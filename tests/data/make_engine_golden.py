"""Record the engine results golden replayed by ``tests/test_engine_golden.py``.

The committed ``engine_golden.json`` was recorded while the engine still had
two executors, the compiled one and a tree-walking ``interpreted`` one, and
the recorder asserted that both gave the same outcome for every statement.
Replaying it checks that the one executor left still returns what both
returned.  Regenerating it with later code only re-records that code's
behaviour; compare the new file with ``sqlite3`` (``tests/test_engine_oracle.py``)
before committing it.

    PYTHONPATH=src python tests/data/make_engine_golden.py

The file has one section per database, each listing the fixed statements the
engine suites run on it, in order:

* the gold SQL of the ``tiny_*`` workloads (``tests/conftest.py``);
* the join edge cases, join chains, expressions, error statements, set
  chains, ``IN`` membership, condition-free joins and column-only
  projections of ``tests/test_engine_parity.py``;
* the hand-written cross-product statements of ``tests/test_engine_stream.py``;
* the gold and predicted SQL the Figure 1 models produce for 8 questions of
  each benchmark at seeds 0-2 (row scale 0.0004);
* the 53 join/aggregate queries the engine throughput harness timed
  (``tests/engine_databases.py``).

Each entry holds the statement and either the number of rows with a digest
of the columns and of every cell's Python type name and value, row by row,
or the class and message of the error it raised.  Digests are the first 64
bits of the sha256 of canonical JSON, which spells floats exactly.  The file
is byte-identical under any ``PYTHONHASHSEED``.

``engine_analyze_golden.json`` holds, per section, one digest per statement
of what ``EXPLAIN ANALYZE`` reports for it: each operator's ``op``, rows in,
rows out, depth and detail (not its seconds), and whether the list was
truncated; ``null`` for a statement that is not a SELECT or raises.  Cached
subquery results leave their operators out of later statements, so the
digests hold for the section's statements analyzed in order on a freshly
built database, and nothing else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from repro.engine import Database  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.evaluation import SimulatedText2SQLModel  # noqa: E402
from repro.evaluation.text2sql_models import GENERAL_MODELS, best_model_for  # noqa: E402
from repro.workloads import BENCHMARK_NAMES, build_benchmark  # noqa: E402
from tests.engine_databases import (  # noqa: E402
    build_bench_database,
    build_bench_queries,
    build_hr_database,
    build_join_database,
    build_join_order_database,
    build_mixed_database,
    build_set_database,
    build_shop_database,
    build_stream_database,
)
from tests.test_engine_parity import (  # noqa: E402
    CONDITION_FREE_JOINS,
    ERROR_QUERIES,
    EXPRESSION_QUERIES,
    JOIN_EDGE_QUERIES,
    MEMBERSHIP_QUERIES,
    PROJECTION_QUERIES,
    SET_CHAIN_QUERIES,
    SHOP_QUERIES,
    WORST_ORDER_QUERIES,
)
from tests.test_engine_stream import EDGE_QUERIES  # noqa: E402

GOLDEN_PATH = Path(__file__).with_name("engine_golden.json")
ANALYZE_PATH = Path(__file__).with_name("engine_analyze_golden.json")

#: The ``tiny_*`` fixtures of ``tests/conftest.py``: (benchmark, row scale),
#: all at generator seed 11 with 10 queries.
TINY_WORKLOADS = (("Spider", 0.002), ("Beaver", 0.0008), ("Bird", 0.0008))

#: The Figure 1 statements: 8 questions per benchmark at this row scale.
FIGURE1_ROW_SCALE = 0.0004
FIGURE1_QUESTIONS = 8
FIGURE1_SEEDS = (0, 1, 2)


def digest(value: object) -> str:
    """First 64 bits of the sha256 of the canonical JSON encoding of ``value``."""
    canonical = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def record(database: Database, sql: str) -> dict:
    """What executing ``sql`` on ``database`` gives, as one golden entry."""
    try:
        result = database.execute(sql)
    except ReproError as exc:
        return {"sql": sql, "error": type(exc).__name__, "message": str(exc)}
    return {
        "sql": sql,
        "rows": len(result.rows),
        "digest": digest(
            [
                result.columns,
                [[[type(value).__name__, value] for value in row] for row in result.rows],
            ]
        ),
    }


def analyze_digest(database: Database, sql: str) -> str | None:
    """Digest of the EXPLAIN ANALYZE operator list of ``sql`` (seconds left out)."""
    try:
        analyze = database.explain(sql, analyze=True).get("analyze")
    except ReproError:
        return None
    if analyze is None:
        return None
    operators = [
        sorted((key, value) for key, value in operator.items() if key != "seconds")
        for operator in analyze["operators"]
    ]
    return digest([operators, analyze["truncated"]])


def analyze_section(database: Database, statements: list[str]) -> list[str | None]:
    """Every statement's :func:`analyze_digest`, analyzed in order."""
    return [analyze_digest(database, sql) for sql in statements]


def _tiny(name: str, row_scale: float):
    workload = build_benchmark(name, seed=11, row_scale=row_scale, query_count=10)
    return workload.database, workload.query_sql


def _figure1(name: str, seed: int):
    workload = build_benchmark(
        name, seed=seed, row_scale=FIGURE1_ROW_SCALE, query_count=FIGURE1_QUESTIONS
    )
    statements = {query.sql for query in workload.queries}
    for model_name in (*GENERAL_MODELS, best_model_for(name)):
        model = SimulatedText2SQLModel.for_workload(model_name, workload)
        for query in workload.queries:
            predicted = model.predict(query.gold_nl, query.sql)
            if predicted:
                statements.add(predicted)
    return workload.database, sorted(statements)


def _fixed(build, statements):
    return lambda: (build(), list(statements))


#: Section name -> function returning (database, statements).
SECTIONS = {
    **{
        f"tiny-{name}": (lambda name=name, scale=scale: _tiny(name, scale))
        for name, scale in TINY_WORKLOADS
    },
    "joins": _fixed(build_join_database, JOIN_EDGE_QUERIES),
    "shop": _fixed(build_shop_database, SHOP_QUERIES),
    "join-order": _fixed(build_join_order_database, WORST_ORDER_QUERIES),
    "hr": _fixed(build_hr_database, EXPRESSION_QUERIES + ERROR_QUERIES),
    "sets": _fixed(build_set_database, [sql for sql, _ in SET_CHAIN_QUERIES]),
    "mixed": _fixed(
        build_mixed_database, MEMBERSHIP_QUERIES + CONDITION_FREE_JOINS + PROJECTION_QUERIES
    ),
    "stream": _fixed(build_stream_database, EDGE_QUERIES),
    **{
        f"figure1-{name}-{seed}": (lambda name=name, seed=seed: _figure1(name, seed))
        for seed in FIGURE1_SEEDS
        for name in BENCHMARK_NAMES
    },
    "engine-throughput": _fixed(build_bench_database, build_bench_queries()),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=GOLDEN_PATH)
    parser.add_argument("--analyze-out", type=Path, default=ANALYZE_PATH)
    args = parser.parse_args()
    golden = {}
    analyzed = {}
    for name, build in SECTIONS.items():
        database, statements = build()
        golden[name] = [record(database, sql) for sql in statements]
        analyzed[name] = analyze_section(*build())
    args.out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="ascii")
    args.analyze_out.write_text(
        json.dumps(analyzed, indent=1, sort_keys=True) + "\n", encoding="ascii"
    )
    count = sum(len(entries) for entries in golden.values())
    print(f"wrote {count} statements in {len(golden)} sections to {args.out}")
    print(f"wrote their EXPLAIN ANALYZE digests to {args.analyze_out}")


if __name__ == "__main__":
    main()
