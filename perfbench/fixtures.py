"""Frozen benchmark inputs: canonical, fingerprinted, gzip-compressed JSON.

Every fixture file under ``perfbench/fixtures/`` holds ``{"fingerprint":
<sha256 of the canonical data>, "data": ...}``.  :func:`load_fixture`
recomputes the fingerprint and refuses a file that does not match, so the
benchmark never runs on inputs other than the ones ``gen_fixtures.py`` wrote.

The program under test receives these inputs only through its public API:
``Database.create_table``/``insert`` for table rows, ``schema_from_state``
for schemas and ``Workload`` for the evaluation bundle.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
from pathlib import Path

#: Directory holding the committed fixture files.
FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"

#: Hash seed every generating and every measured process runs under.
PINNED_HASH_SEED = "0"

#: The four benchmark families, in the order the paper lists them.
FAMILIES = ("Spider", "Bird", "Fiben", "Beaver")


class FixtureError(RuntimeError):
    """A fixture file is missing or its fingerprint does not match."""


def canonical(obj: object) -> bytes:
    """Byte-stable JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def fingerprint(obj: object) -> str:
    return hashlib.sha256(canonical(obj)).hexdigest()


def fixture_path(name: str, directory: Path = FIXTURE_DIR) -> Path:
    return directory / f"{name}.json.gz"


def write_fixture(name: str, data: object, directory: Path = FIXTURE_DIR) -> str:
    """Write one fixture; returns its fingerprint.

    The gzip header carries no file name and a zero mtime, so two
    generations of the same data are byte-identical.
    """
    digest = fingerprint(data)
    body = canonical({"fingerprint": digest, "data": data})
    directory.mkdir(parents=True, exist_ok=True)
    path = fixture_path(name, directory)
    with open(path, "wb") as raw:
        with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as out:
            out.write(body)
    return digest


def load_fixture(name: str, directory: Path = FIXTURE_DIR) -> dict:
    """Read one fixture and verify its fingerprint."""
    path = fixture_path(name, directory)
    try:
        with gzip.open(path, "rb") as handle:
            payload = json.loads(handle.read())
    except (OSError, ValueError) as exc:
        raise FixtureError(f"cannot read fixture {path}: {exc}") from exc
    data = payload.get("data")
    if payload.get("fingerprint") != fingerprint(data):
        raise FixtureError(f"fixture {path} does not match its fingerprint")
    return data


def records_digest(records) -> str:
    """Digest of annotation records over (query_id, nl, accepted, candidates)."""
    return fingerprint(
        [
            [record.query_id, record.nl, record.accepted, list(record.candidates)]
            for record in records
        ]
    )


def require_pinned_hash_seed() -> None:
    """Refuse to run unless the interpreter was started with the pinned seed."""
    if os.environ.get("PYTHONHASHSEED") != PINNED_HASH_SEED:
        raise SystemExit(
            f"run under PYTHONHASHSEED={PINNED_HASH_SEED} "
            f"(got {os.environ.get('PYTHONHASHSEED')!r})"
        )


# ----------------------------------------------------------------------
# building program objects from fixture data (public APIs only)
# ----------------------------------------------------------------------

def build_database(family: dict):
    """A populated ``Database`` from a family's frozen tables."""
    from repro.engine import Database

    database = Database(name=family["name"])
    for table in family["tables"]:
        database.create_table(
            table["name"],
            [tuple(column) for column in table["columns"]],
            primary_key=table["primary_key"],
        )
    for table in family["tables"]:
        database.insert(table["name"], [tuple(row) for row in table["rows"]])
    return database


def build_workload(family: dict):
    """A ``Workload`` (database, schema, questions) from frozen family data."""
    from repro.core.snapshot import schema_from_state
    from repro.workloads import Workload, WorkloadQuery
    from repro.workloads import beaver_spec, bird_spec, fiben_spec, spider_spec

    make_spec = {
        "spider": spider_spec,
        "bird": bird_spec,
        "fiben": fiben_spec,
        "beaver": beaver_spec,
    }[family["name"].lower()]
    questions = family["questions"]
    return Workload(
        name=family["name"],
        spec=make_spec(row_scale=family["row_scale"], query_count=len(questions)),
        database=build_database(family),
        schema=schema_from_state(family["schema"]),
        queries=[
            WorkloadQuery(
                query_id=question["query_id"],
                sql=question["sql"],
                gold_nl=question["gold_nl"],
            )
            for question in questions
        ],
    )
