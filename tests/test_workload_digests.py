"""Replay the workload digest golden (``tests/data/workload_digests.json``).

The golden was recorded with the row-at-a-time table load; see
``tests/data/make_workload_digests.py``.  Each of the four benchmarks at
seeds 0-2 must still generate the same tables (columns, cell types and
values), the same queries and gold NL, and the same Table 2 profile.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.schema import profile_database
from tests.data.make_workload_digests import record_workload

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "workload_digests.json").read_text(encoding="ascii")
)
CASES = {(entry["benchmark"], entry["seed"]): entry for entry in GOLDEN["workloads"]}


@pytest.fixture(params=sorted(CASES), ids=lambda case: f"{case[0]}-{case[1]}")
def case(request, harness_workloads):
    name, seed = request.param
    workload = harness_workloads[seed][name]
    assert workload.spec.row_scale == GOLDEN["row_scale"]
    assert workload.spec.query_count == GOLDEN["query_count"]
    return CASES[request.param], workload


def test_golden_covers_four_benchmarks_at_three_seeds():
    assert len(CASES) == 12
    assert {seed for _, seed in CASES} == {0, 1, 2}


def test_tables_and_queries_match_golden(case):
    expected, workload = case
    replayed = record_workload(expected["benchmark"], expected["seed"], workload)
    assert [table["name"] for table in replayed["tables"]] == [
        table["name"] for table in expected["tables"]
    ]
    for got, want in zip(replayed["tables"], expected["tables"]):
        assert got == want, got["name"]
    assert replayed["queries"] == expected["queries"]


def test_table2_profile_matches_golden(case):
    expected, workload = case
    assert profile_database(workload.database).as_dict() == expected["profile"]
