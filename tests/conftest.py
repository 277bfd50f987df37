"""Shared fixtures for the test suite.

Workload fixtures are session-scoped and use a tiny row scale so the whole
suite stays fast while still exercising the full generation/execution paths.
"""

from __future__ import annotations

import pytest

from repro.engine import Database
from repro.schema import ColumnSchema, DatabaseSchema, ForeignKey, TableSchema
from repro.workloads import BENCHMARK_NAMES, build_benchmark
from tests.engine_databases import build_hr_database


@pytest.fixture()
def hr_schema() -> DatabaseSchema:
    """A small two-table HR schema used across unit tests."""
    return DatabaseSchema(
        name="hr",
        tables=[
            TableSchema(
                name="employees",
                columns=[
                    ColumnSchema("emp_id", "INT", primary_key=True, nullable=False),
                    ColumnSchema("name", "TEXT"),
                    ColumnSchema("salary", "REAL"),
                    ColumnSchema("dept_id", "INT"),
                    ColumnSchema("hire_date", "DATE"),
                ],
                foreign_keys=[ForeignKey("dept_id", "departments", "dept_id")],
            ),
            TableSchema(
                name="departments",
                columns=[
                    ColumnSchema("dept_id", "INT", primary_key=True, nullable=False),
                    ColumnSchema("dept_name", "TEXT"),
                    ColumnSchema("budget", "REAL"),
                ],
            ),
        ],
    )


@pytest.fixture()
def hr_database() -> Database:
    """A populated HR database matching :func:`hr_schema`."""
    return build_hr_database()


@pytest.fixture(scope="session")
def tiny_spider():
    """A tiny Spider-like workload (session-scoped for speed)."""
    return build_benchmark("Spider", seed=11, row_scale=0.002, query_count=10)


@pytest.fixture(scope="session")
def tiny_beaver():
    """A tiny Beaver-like workload (session-scoped for speed)."""
    return build_benchmark("Beaver", seed=11, row_scale=0.0008, query_count=10)


@pytest.fixture(scope="session")
def tiny_bird():
    """A tiny Bird-like workload (session-scoped for speed)."""
    return build_benchmark("Bird", seed=11, row_scale=0.0008, query_count=10)


@pytest.fixture(scope="session")
def generated_sql() -> dict[tuple[str, int], list[str]]:
    """Query texts of every benchmark family at seeds 0-2, by ``(family, seed)``."""
    return {
        (name, seed): build_benchmark(name, seed=seed, row_scale=0.0001).query_sql
        for name in BENCHMARK_NAMES
        for seed in range(3)
    }


@pytest.fixture(scope="session")
def harness_workloads():
    """Every benchmark family at the paper harnesses' scale
    (``benchmarks/conftest.py``: row scale 0.0015, 20 queries), by generator
    seed 0-2.  Session-scoped: several suites read them and none changes
    their rows."""
    return {
        seed: {
            name: build_benchmark(name, seed=seed, row_scale=0.0015, query_count=20)
            for name in BENCHMARK_NAMES
        }
        for seed in range(3)
    }
