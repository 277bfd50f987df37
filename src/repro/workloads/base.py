"""Workload abstractions.

A *workload* bundles everything one benchmark contributes to the experiments:
a populated in-memory database, its logical schema, a set of SQL log queries
(with gold NL descriptions for evaluation), and the specification it was
generated from.

The specifications are calibrated against the complexity statistics the paper
reports in Tables 1–2 so that the synthetic Spider/Bird/Fiben/Beaver stand-ins
reproduce the *relative* differences between public and enterprise workloads.
Row counts are scaled down by ``row_scale`` (default 1/100 of the paper's
figures) to keep pure-Python population fast; the scaling factor is identical
across workloads so relative differences are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.database import Database
from repro.schema.model import DatabaseSchema


@dataclass
class QueryShapeSpec:
    """Distributional parameters controlling generated query complexity."""

    min_tables: int = 1
    max_tables: int = 2
    aggregation_rate: float = 0.4       # probability a query aggregates at all
    max_aggregates: int = 1             # aggregates per aggregating query
    extra_projection_max: int = 2       # plain projected columns
    predicate_min: int = 0
    predicate_max: int = 2
    group_by_rate: float = 0.3
    order_by_rate: float = 0.3
    limit_rate: float = 0.2
    nesting_rate: float = 0.15          # probability of adding one nested block
    max_nestings: int = 1
    cte_rate: float = 0.0               # probability of wrapping a block as a CTE
    distinct_rate: float = 0.1


@dataclass
class WorkloadSpec:
    """Full generation specification for one benchmark workload."""

    name: str
    domain: str
    table_count: int
    columns_per_table_min: int
    columns_per_table_max: int
    rows_per_table: int
    null_rate: float                      # Table 2 "sparsity"
    column_name_duplication: float        # drives Table 2 "uniqueness" (higher = less unique)
    type_pool: tuple[str, ...]            # declared SQL types to draw from
    query_count: int = 60
    query_shape: QueryShapeSpec = field(default_factory=QueryShapeSpec)
    row_scale: float = 1.0
    vocabulary: tuple[str, ...] = ()
    domain_terms: dict[str, str] = field(default_factory=dict)

    def scaled_rows(self) -> int:
        """Rows per table after applying the row scale (at least 4)."""
        return max(4, int(self.rows_per_table * self.row_scale))


@dataclass
class WorkloadQuery:
    """One SQL log entry of a workload."""

    query_id: str
    sql: str
    gold_nl: str = ""
    tables: list[str] = field(default_factory=list)
    is_nested: bool = False
    dataset: str = ""


@dataclass
class Workload:
    """A generated benchmark workload."""

    name: str
    spec: WorkloadSpec
    database: Database
    schema: DatabaseSchema
    queries: list[WorkloadQuery] = field(default_factory=list)

    @property
    def query_sql(self) -> list[str]:
        """The SQL text of every query in the workload."""
        return [query.sql for query in self.queries]

    def sample_queries(self, count: int, seed: int = 0) -> list[WorkloadQuery]:
        """Deterministically sample ``count`` queries (for the user study)."""
        import random

        rng = random.Random(seed)
        if count >= len(self.queries):
            return list(self.queries)
        return rng.sample(self.queries, count)
