"""Synthetic benchmark workloads (Spider/Bird/Fiben/Beaver stand-ins)."""

from repro.workloads.base import (
    QueryShapeSpec,
    Workload,
    WorkloadQuery,
    WorkloadSpec,
)
from repro.workloads.benchmarks import (
    BENCHMARK_NAMES,
    DEFAULT_ROW_SCALE,
    beaver_spec,
    bird_spec,
    build_benchmark,
    fiben_spec,
    spider_spec,
)
from repro.workloads.generator import WorkloadGenerator, build_workload

__all__ = [
    "BENCHMARK_NAMES",
    "DEFAULT_ROW_SCALE",
    "QueryShapeSpec",
    "Workload",
    "WorkloadGenerator",
    "WorkloadQuery",
    "WorkloadSpec",
    "beaver_spec",
    "bird_spec",
    "build_benchmark",
    "build_workload",
    "fiben_spec",
    "spider_spec",
]
