"""Calibrated specifications for the four benchmarks used in the paper.

Each spec is tuned so that the generated workload reproduces the *relative*
complexity profile reported in Tables 1–2 of the paper:

* **Beaver (DW)** — the enterprise baseline: many wide tables, heavy column
  name duplication (low uniqueness), 15% NULL sparsity, long multi-join
  aggregating queries with nesting and CTEs.
* **Spider** — small clean academic schemas, short queries, no sparsity.
* **Bird** — mid-sized schemas with larger tables than Spider but still much
  simpler queries than Beaver.
* **Fiben** — financial analytics benchmark: small tables but many of them,
  analytical (aggregate-heavy, nested) queries that are closer to Beaver in
  structure than Spider/Bird are.

Row counts follow the paper scaled by ``DEFAULT_ROW_SCALE`` (1/100) so that
population stays laptop-fast; the scale is shared by every workload, which
preserves the relative differences Table 2 reports.
"""

from __future__ import annotations

from repro.workloads.base import QueryShapeSpec, WorkloadSpec
from repro.workloads.generator import build_workload
from repro.workloads.base import Workload

#: Shared down-scaling of the paper's rows/table figures.
DEFAULT_ROW_SCALE: float = 0.01

#: Domain vocabulary for the enterprise data-warehouse (Beaver-like) workload.
_BEAVER_VOCABULARY: tuple[str, ...] = (
    "academic", "term", "student", "course", "subject", "enrollment", "degree",
    "moira", "list", "member", "appointment", "employee", "payroll", "grant",
    "award", "building", "room", "facility", "asset", "budget", "ledger",
    "invoice", "vendor", "purchase", "requisition", "library", "network",
    "device", "address", "warehouse", "snapshot", "organization", "unit",
)

_BEAVER_TERMS: dict[str, str] = {
    "J-term": "the one-month January term in the MIT academic calendar",
    "Moira": "the mailing-list management system used for newsletters",
    "DLC": "a department, lab, or center within the organization",
    "warehouse snapshot": "a nightly copy of operational tables into the data warehouse",
    "term code": "a six-digit identifier encoding academic year and season",
}

_SPIDER_VOCABULARY: tuple[str, ...] = (
    "singer", "concert", "stadium", "student", "pet", "teacher", "course",
    "flight", "airport", "employee", "department", "car", "maker", "museum",
    "visitor", "orchestra", "show", "dog", "owner", "city",
)

_BIRD_VOCABULARY: tuple[str, ...] = (
    "account", "client", "loan", "card", "transaction", "district", "order",
    "payment", "school", "satscore", "user", "post", "badge", "comment",
    "player", "match", "team", "season", "movie", "rating",
)

_FIBEN_VOCABULARY: tuple[str, ...] = (
    "company", "security", "holding", "portfolio", "transaction", "officer",
    "industry", "sector", "exchange", "dividend", "earnings", "quarter",
    "analyst", "rating", "bond", "issuer", "fund", "manager", "index", "price",
)


def spider_spec(row_scale: float = DEFAULT_ROW_SCALE, query_count: int = 60) -> WorkloadSpec:
    """Spider-like workload: small clean schemas, simple queries."""
    return WorkloadSpec(
        name="Spider",
        domain="open-domain academic examples",
        table_count=5,
        columns_per_table_min=4,
        columns_per_table_max=7,
        rows_per_table=2_000,
        null_rate=0.0,
        column_name_duplication=0.10,
        type_pool=("INT", "VARCHAR", "REAL", "DATE"),
        query_count=query_count,
        row_scale=row_scale,
        vocabulary=_SPIDER_VOCABULARY,
        query_shape=QueryShapeSpec(
            min_tables=1,
            max_tables=2,
            aggregation_rate=0.35,
            max_aggregates=1,
            extra_projection_max=2,
            predicate_min=0,
            predicate_max=2,
            group_by_rate=0.25,
            order_by_rate=0.3,
            limit_rate=0.2,
            nesting_rate=0.30,
            max_nestings=1,
            cte_rate=0.0,
            distinct_rate=0.1,
        ),
    )


def bird_spec(row_scale: float = DEFAULT_ROW_SCALE, query_count: int = 60) -> WorkloadSpec:
    """Bird-like workload: bigger data than Spider, still fairly simple queries."""
    return WorkloadSpec(
        name="Bird",
        domain="open-domain databases with larger data",
        table_count=45,
        columns_per_table_min=5,
        columns_per_table_max=9,
        rows_per_table=550_000,
        null_rate=0.0,
        column_name_duplication=0.06,
        type_pool=("INT", "VARCHAR", "REAL", "DATE", "BOOLEAN"),
        query_count=query_count,
        row_scale=row_scale,
        vocabulary=_BIRD_VOCABULARY,
        query_shape=QueryShapeSpec(
            min_tables=1,
            max_tables=3,
            aggregation_rate=0.30,
            max_aggregates=1,
            extra_projection_max=2,
            predicate_min=1,
            predicate_max=2,
            group_by_rate=0.2,
            order_by_rate=0.3,
            limit_rate=0.25,
            nesting_rate=0.30,
            max_nestings=1,
            cte_rate=0.0,
            distinct_rate=0.1,
        ),
    )


def fiben_spec(row_scale: float = DEFAULT_ROW_SCALE, query_count: int = 60) -> WorkloadSpec:
    """Fiben-like workload: many narrow tables, analytical nested queries."""
    return WorkloadSpec(
        name="Fiben",
        domain="financial analytics",
        table_count=80,
        columns_per_table_min=2,
        columns_per_table_max=4,
        rows_per_table=76_000,
        null_rate=0.0,
        column_name_duplication=0.15,
        type_pool=("INT", "VARCHAR", "REAL", "DATE", "BOOLEAN"),
        query_count=query_count,
        row_scale=row_scale,
        vocabulary=_FIBEN_VOCABULARY,
        query_shape=QueryShapeSpec(
            min_tables=2,
            max_tables=5,
            aggregation_rate=0.75,
            max_aggregates=2,
            extra_projection_max=1,
            predicate_min=1,
            predicate_max=3,
            group_by_rate=0.55,
            order_by_rate=0.4,
            limit_rate=0.2,
            nesting_rate=0.6,
            max_nestings=2,
            cte_rate=0.15,
            distinct_rate=0.15,
        ),
    )


def beaver_spec(row_scale: float = DEFAULT_ROW_SCALE, query_count: int = 60) -> WorkloadSpec:
    """Beaver(DW)-like enterprise workload: wide ambiguous schemas, complex queries."""
    return WorkloadSpec(
        name="Beaver",
        domain="enterprise data warehouse",
        table_count=99,
        columns_per_table_min=12,
        columns_per_table_max=19,
        rows_per_table=128_000,
        null_rate=0.15,
        column_name_duplication=0.55,
        type_pool=("INT", "VARCHAR", "NUMBER", "DATE"),
        query_count=query_count,
        row_scale=row_scale,
        vocabulary=_BEAVER_VOCABULARY,
        domain_terms=dict(_BEAVER_TERMS),
        query_shape=QueryShapeSpec(
            min_tables=3,
            max_tables=6,
            aggregation_rate=0.95,
            max_aggregates=3,
            extra_projection_max=3,
            predicate_min=2,
            predicate_max=4,
            group_by_rate=0.65,
            order_by_rate=0.5,
            limit_rate=0.3,
            nesting_rate=0.85,
            max_nestings=2,
            cte_rate=0.30,
            distinct_rate=0.2,
        ),
    )


_SPEC_BUILDERS = {
    "spider": spider_spec,
    "bird": bird_spec,
    "fiben": fiben_spec,
    "beaver": beaver_spec,
}

#: Canonical benchmark names in the order the paper lists them.
BENCHMARK_NAMES: tuple[str, ...] = ("Spider", "Bird", "Fiben", "Beaver")


def build_benchmark(
    name: str,
    seed: int = 0,
    row_scale: float = DEFAULT_ROW_SCALE,
    query_count: int = 60,
) -> Workload:
    """Build one of the four supported benchmarks by name (case-insensitive)."""
    key = name.lower()
    if key not in _SPEC_BUILDERS:
        raise ValueError(f"unknown benchmark {name!r}; expected one of {BENCHMARK_NAMES}")
    spec = _SPEC_BUILDERS[key](row_scale=row_scale, query_count=query_count)
    return build_workload(spec, seed=seed)
