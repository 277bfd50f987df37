"""Generate the benchmark's frozen inputs.

    python3 perfbench/gen_fixtures.py --seed 7

Builds every workload once with the program's generator under the pinned
``PYTHONHASHSEED`` (re-executing itself under it when needed) and writes
compact fingerprinted fixtures to ``perfbench/fixtures/``:

* ``log``     — four nested, Beaver-shaped SQL logs for ``annotate_log``, with
  the record digest of each log drained through a fresh durable service;
* ``tenants`` — one SQL pool per family for ``annotate_tenants`` and
  ``recover``, with each project's record digest;
* ``eval``    — per family: schema, table rows, the screened questions and the
  frozen per-(model, question) execution-match outcomes for ``eval_fig1``;
* ``manifest.json`` — parameters, fingerprints and every screened-out
  (family, question) entry with its reason.

Screening: every gold query and every model's predicted SQL is executed once
in a forked child under a time budget and an address-space budget; a
question any of whose statements exceeds either is dropped.  Two runs at the
same seed write byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import fixtures  # noqa: E402
import workloads  # noqa: E402

ROW_SCALE = 0.0015
LOG_COUNT = 4
LOG_LENGTH = 48
TENANT_POOL = 24
EVAL_QUESTIONS = 10
#: Screening budgets for one execution of one gold or predicted statement.
SCREEN_SECONDS = 0.5
SCREEN_EXTRA_ADDRESS_MB = 512
#: Address-space cap of the generating process itself.
GENERATOR_ADDRESS_MB = 4096

_STATUS_OK, _STATUS_MEMORY, _STATUS_TIME = 0, 3, 4


class _OverBudget(BaseException):
    """Raised by the screening alarm; a BaseException so no handler eats it."""


def _address_space_bytes() -> int:
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[0])
    return pages * os.sysconf("SC_PAGE_SIZE")


def _screen(database, sql: str) -> str:
    """Execute one statement in a forked child; '' if within budget, else why."""
    from repro.errors import ReproError

    pid = os.fork()
    if pid == 0:  # child: never returns
        status = _STATUS_OK
        try:
            limit = _address_space_bytes() + SCREEN_EXTRA_ADDRESS_MB * 2**20
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

            def alarm(*_args):
                raise _OverBudget()

            signal.signal(signal.SIGALRM, alarm)
            signal.setitimer(signal.ITIMER_REAL, SCREEN_SECONDS)
            try:
                database.execute_statement(database.parse_cached(sql))
            except ReproError:
                pass  # a failing statement is cheap and a legitimate outcome
            signal.setitimer(signal.ITIMER_REAL, 0)
        except MemoryError:
            status = _STATUS_MEMORY
        except _OverBudget:
            status = _STATUS_TIME
        os._exit(status)
    deadline = time.monotonic() + SCREEN_SECONDS * 20 + 10
    while True:
        done, wait_status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return "time"
        time.sleep(0.002)
    code = os.waitstatus_to_exitcode(wait_status)
    if code == _STATUS_OK:
        return ""
    if code == _STATUS_MEMORY:
        return "memory"
    if code == _STATUS_TIME:
        return "time"
    return f"child exit {code}"


def _eval_family(name: str, seed: int, dropped: list) -> dict:
    from repro.core.snapshot import schema_to_state
    from repro.evaluation import SimulatedText2SQLModel
    from repro.workloads import build_benchmark

    workload = build_benchmark(
        name, seed=seed, row_scale=ROW_SCALE, query_count=EVAL_QUESTIONS
    )
    models = [
        SimulatedText2SQLModel.for_workload(model, workload)
        for model in workloads.figure1_models(name)
    ]
    kept = []
    for query in workload.queries:
        statements = [("gold", query.sql)] + [
            (model.name, model.predict(query.gold_nl, query.sql)) for model in models
        ]
        reasons = [
            f"{who}: {reason}"
            for who, sql in statements
            if sql and (reason := _screen(workload.database, sql))
        ]
        if reasons:
            dropped.append(
                {"family": name, "query_id": query.query_id, "reasons": reasons}
            )
            continue
        kept.append(
            {"query_id": query.query_id, "sql": query.sql, "gold_nl": query.gold_nl}
        )
    tables = [
        {
            "name": table.name,
            "columns": [[column.name, column.type_name] for column in table.columns],
            "primary_key": [
                column.name for column in table.columns if column.primary_key
            ],
            "rows": [list(row) for row in workload.database.table(table.name).rows],
        }
        for table in workload.schema.tables
    ]
    return {
        "name": name,
        "row_scale": ROW_SCALE,
        "schema": schema_to_state(workload.schema),
        "tables": tables,
        "questions": kept,
    }


def _expected_matches(family: dict) -> dict:
    """Frozen per-(model, question) match outcomes on the fixture-built data."""
    from repro.evaluation import SimulatedText2SQLModel
    from repro.metrics import GoldResultCache, compare_execution

    workload = fixtures.build_workload(family)
    cache = GoldResultCache(workload.database)
    expected = {}
    for model_name in workloads.figure1_models(family["name"]):
        model = SimulatedText2SQLModel.for_workload(model_name, workload)
        outcomes = {}
        for query in workload.queries:
            predicted = model.predict(query.gold_nl, query.sql)
            comparison = compare_execution(
                workload.database, query.sql, predicted, gold_cache=cache
            )
            if not comparison.gold_executed:
                raise SystemExit(f"gold query {query.query_id} no longer executes")
            outcomes[query.query_id] = comparison.match
        expected[model_name] = outcomes
    return expected


def generate(seed: int, out_dir: Path) -> dict:
    from repro.core.snapshot import schema_to_state
    from repro.workloads import build_benchmark

    work = workloads.scratch_dir("gen")
    try:
        # annotate_log: one Beaver build split into equally long logs.
        beaver = build_benchmark(
            "Beaver", seed=seed + 1, row_scale=ROW_SCALE,
            query_count=LOG_COUNT * LOG_LENGTH,
        )
        sql = beaver.query_sql
        logs = [sql[i * LOG_LENGTH:(i + 1) * LOG_LENGTH] for i in range(LOG_COUNT)]
        log_data = {"schema": schema_to_state(beaver.schema), "logs": logs}
        log_data["digests"] = [
            fixtures.records_digest(
                workloads.drain_log(log_data["schema"], log, work / f"log{index}")["records"]
            )
            for index, log in enumerate(logs)
        ]

        # annotate_tenants / recover: one pool per family.
        tenant_data = {"projects": {}}
        for name in fixtures.FAMILIES:
            workload = build_benchmark(
                name, seed=seed + 2, row_scale=ROW_SCALE, query_count=TENANT_POOL
            )
            tenant_data["projects"][name] = {
                "schema": schema_to_state(workload.schema),
                "sql": workload.query_sql,
            }
        for name, digest in workloads.tenant_digests(tenant_data).items():
            tenant_data["projects"][name]["digest"] = digest

        # eval_fig1: screened questions plus frozen outcomes.
        dropped: list = []
        eval_data = {"families": {}}
        for name in fixtures.FAMILIES:
            family = _eval_family(name, seed, dropped)
            family["expected"] = _expected_matches(family)
            eval_data["families"][name] = family
    finally:
        shutil.rmtree(work, ignore_errors=True)

    manifest = {
        "generation_seed": seed,
        "pythonhashseed": fixtures.PINNED_HASH_SEED,
        "row_scale": ROW_SCALE,
        "log": {"count": LOG_COUNT, "length": LOG_LENGTH},
        "tenant_pool": TENANT_POOL,
        "eval_questions_generated": EVAL_QUESTIONS,
        "eval_questions_kept": {
            name: len(family["questions"])
            for name, family in eval_data["families"].items()
        },
        "screening": {
            "seconds_per_statement": SCREEN_SECONDS,
            "extra_address_space_mb": SCREEN_EXTRA_ADDRESS_MB,
            "dropped": dropped,
        },
        "fingerprints": {
            "log": fixtures.write_fixture("log", log_data, out_dir),
            "tenants": fixtures.write_fixture("tenants", tenant_data, out_dir),
            "eval": fixtures.write_fixture("eval", eval_data, out_dir),
        },
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7, help="workload generation seed")
    parser.add_argument("--out", default=str(fixtures.FIXTURE_DIR))
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != fixtures.PINNED_HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=fixtures.PINNED_HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    workloads.add_source_path()
    limit = GENERATOR_ADDRESS_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    manifest = generate(args.seed, Path(args.out))
    print(json.dumps(manifest["fingerprints"], indent=1))
    print("kept questions:", manifest["eval_questions_kept"])
    print("dropped:", len(manifest["screening"]["dropped"]))


if __name__ == "__main__":
    main()
