"""Build the retrieval golden corpus replayed by ``tests/test_retrieval.py``.

The committed ``retrieval_corpus.json`` was written by the example archive
that routed each dataset to its own shard matrix (``ShardedVectorStore``),
which preceded the single-matrix index, and which still filtered retrievals
by dataset.  Replaying it checks that the swap kept every retrieval result of
a one-dataset store (the only shape a project's archive takes), the ids and
order of every unfiltered retrieval of a mixed store, and that snapshots
written before the swap still load.  Regenerating it with the current code
only re-records today's behaviour, in which no retrieval is filtered.

    PYTHONPATH=src python tests/data/make_retrieval_corpus.py [--seed 24]

Each store replays one fixed add sequence.  After every ``CHECK_EVERY``-th
add (and after the last) it runs a fixed query set and records, per query
(named by its position) and per dataset label (the filter it was written
with): the ranked
``(doc_id, float.hex(score))`` hits of a one-query index search and of the
batched search behind ``retrieve_many``, the example ids of a one-query
``retrieve_many`` (recorded as ``retrieve``, after the single-query method
the corpus was written with), of the whole query set's ``retrieve_many`` and
of a one-query ``retrieve_many`` with ``exclude_identical=False``, and
``retrieve_count``.

* Three stores each hold one dataset, the only shape a project's archive
  takes in served traffic; one of them outgrows the 64-row initial matrix.
* One store mixes three datasets; when the corpus was written, its filtered
  searches picked rows out of a shared matrix.
* One small store's ``state_dict()`` is recorded, its embedding vocabulary
  in list form (``tests/model_state.py``), with the retrievals it answers,
  to check that snapshots written before the swap load and answer the same.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from repro.retrieval import EmbeddingModel, ExampleStore  # noqa: E402
from tests.model_state import list_form  # noqa: E402

#: Adds between two recorded checkpoints.
CHECK_EVERY = 8
#: ``top_k`` values every checkpoint asks for.
TOP_KS = (1, 3)

#: Per dataset: tables with their columns.
SCHEMAS = {
    "beaver": {
        "students": ["name", "term", "campus", "gpa", "year"],
        "courses": ["title", "department", "units", "term"],
        "enrollments": ["student_id", "course_id", "grade", "term"],
    },
    "hr": {
        "employees": ["name", "salary", "dept_id", "hire_date"],
        "departments": ["dept_name", "budget", "location"],
        "jobs": ["job_title", "min_salary", "max_salary"],
    },
    "spider": {
        "singer": ["name", "country", "age", "song_name"],
        "concert": ["concert_name", "theme", "year", "stadium_id"],
        "stadium": ["location", "capacity", "average"],
    },
}

LITERALS = ["fall", "spring", "EECS", "Boston", "France", "rock", "2019", "north"]


def make_pair(rng: random.Random, dataset: str) -> tuple[str, str]:
    """One (SQL, NL) pair over ``dataset``'s schema."""
    tables = SCHEMAS[dataset]
    table = rng.choice(sorted(tables))
    column, other = rng.sample(tables[table], 2)
    literal = rng.choice(LITERALS)
    number = rng.randint(1, 50)
    shape = rng.randrange(6)
    if shape == 0:
        return (
            f"SELECT {column} FROM {table} WHERE {other} = '{literal}'",
            f"List the {column} of every {table} row whose {other} is {literal}.",
        )
    if shape == 1:
        return (
            f"SELECT COUNT(*) FROM {table} WHERE {other} > {number}",
            f"How many {table} have a {other} above {number}?",
        )
    if shape == 2:
        return (
            f"SELECT {column}, AVG({other}) FROM {table} GROUP BY {column}",
            f"For each {column}, what is the average {other} of {table}?",
        )
    if shape == 3:
        joined = rng.choice(sorted(set(tables) - {table}))
        joined_column = rng.choice(tables[joined])
        return (
            f"SELECT T1.{column} FROM {table} AS T1 JOIN {joined} AS T2 "
            f"ON T1.id = T2.id WHERE T2.{joined_column} LIKE '%{literal}%'",
            f"Find the {column} of {table} linked to a {joined} "
            f"whose {joined_column} mentions {literal}.",
        )
    if shape == 4:
        return (
            f"SELECT {column} FROM {table} ORDER BY {other} DESC LIMIT {number}",
            f"Show the {column} of the top {number} {table} by {other}.",
        )
    return (
        f"SELECT DISTINCT {column} FROM {table} WHERE {other} IS NOT NULL",
        f"Which distinct {column} values of {table} have a known {other}?",
    )


def make_sequence(rng: random.Random, datasets: list[str], count: int) -> list[list[str]]:
    """``count`` ``[sql, nl, dataset]`` adds, datasets taken round robin."""
    return [
        [*make_pair(rng, datasets[index % len(datasets)]), datasets[index % len(datasets)]]
        for index in range(count)
    ]


def make_queries(rng: random.Random, sequence: list[list[str]], count: int) -> list[str]:
    """Query SQL: half re-use stored SQL (so skeleton exclusion fires), half new."""
    datasets = sorted({dataset for _, _, dataset in sequence})
    queries = []
    for index in range(count):
        if index % 2 == 0:
            queries.append(rng.choice(sequence)[0])
        else:
            queries.append(make_pair(rng, rng.choice(datasets))[0])
    return queries


def make_stores(seed: int) -> list[dict]:
    """The fixed store configurations (sequence, queries, filters)."""
    rng = random.Random(seed)
    stores = []
    for dataset, count in (("beaver", 24), ("hr", 20), ("spider", 80)):
        sequence = make_sequence(rng, [dataset], count)
        stores.append({
            "name": dataset,
            "mixed": False,
            "sequence": sequence,
            "queries": make_queries(rng, sequence, 6),
            "filters": [dataset, None],
        })
    mixed = make_sequence(rng, ["beaver", "hr", "spider"], 40)
    stores.append({
        "name": "mixed",
        "mixed": True,
        "sequence": mixed,
        "queries": make_queries(rng, mixed, 8),
        "filters": ["beaver", "hr", "spider", "absent", None],
    })
    return stores


def hit_pairs(hits) -> list[list[str]]:
    return [[hit.doc_id, float.hex(hit.score)] for hit in hits]


def checkpoint(store: ExampleStore, queries: list[str], filters: list) -> list[dict]:
    """Every recorded retrieval result of ``store`` as it stands.

    Each entry of ``filters`` labels one round of calls.  The archive takes
    no dataset filter any more, so every round searches the whole store: a
    one-dataset store answers its dataset's round as the filtered archive
    did, while a mixed store's dataset rounds now answer unfiltered.
    """
    calls = []
    index = store._store
    for dataset in filters:
        for top_k in TOP_KS:
            batched = index.search_batch(queries, top_k=top_k + 5)
            many = store.retrieve_many(queries, top_k=top_k)
            for position, (query, batch_hits, many_examples) in enumerate(
                zip(queries, batched, many)
            ):
                calls.append({
                    "query": position,
                    "dataset": dataset,
                    "top_k": top_k,
                    "hits": hit_pairs(index.search_batch([query], top_k=top_k + 5)[0]),
                    "batch_hits": hit_pairs(batch_hits),
                    "retrieve": [
                        example.example_id
                        for example in store.retrieve_many([query], top_k=top_k)[0]
                    ],
                    "retrieve_many": [example.example_id for example in many_examples],
                    "retrieve_all": [
                        example.example_id
                        for example in store.retrieve_many(
                            [query], top_k=top_k, exclude_identical=False
                        )[0]
                    ],
                    "retrieve_count": store.retrieve_count(query, top_k=top_k),
                })
    return calls


def replay(config: dict, model: EmbeddingModel | None = None) -> tuple[ExampleStore, list[dict]]:
    """Run one store's add sequence; its checkpoints (after adds 0, 8, ..., last)."""
    store = ExampleStore(model)
    checkpoints = [{"after": 0, "calls": checkpoint(store, config["queries"], config["filters"])}]
    sequence = config["sequence"]
    for index, (sql, nl, _dataset) in enumerate(sequence, start=1):
        store.add(sql, nl)
        if index % CHECK_EVERY == 0 or index == len(sequence):
            checkpoints.append({
                "after": index,
                "calls": checkpoint(store, config["queries"], config["filters"]),
            })
    return store, checkpoints


def make_small_state(seed: int) -> dict:
    """A small mixed store kept as a verbatim ``state_dict()``."""
    rng = random.Random(seed + 1)
    sequence = make_sequence(rng, ["beaver", "hr", "spider"], 6)
    return {
        "name": "small",
        "mixed": True,
        "dimensions": 32,
        "sequence": sequence,
        "queries": make_queries(rng, sequence, 4),
        "filters": ["beaver", "spider", None],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=24)
    parser.add_argument(
        "--out", default=str(Path(__file__).with_name("retrieval_corpus.json"))
    )
    args = parser.parse_args()
    stores = []
    for config in make_stores(args.seed):
        _, checkpoints = replay(config)
        stores.append(dict(config, checkpoints=checkpoints))
    small = make_small_state(args.seed)
    store, checkpoints = replay(small, EmbeddingModel(dimensions=small["dimensions"]))
    small.update(checkpoints=checkpoints, state=list_form(store.state_dict()))
    payload = {"seed": args.seed, "stores": stores, "small": small}
    with open(args.out, "w", encoding="ascii") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")
    calls = sum(len(point["calls"]) for config in stores for point in config["checkpoints"])
    print(f"wrote {len(stores)} stores ({calls} recorded calls) and one state to {args.out}")


if __name__ == "__main__":
    main()
