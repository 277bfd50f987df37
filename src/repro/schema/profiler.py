"""Schema and data profiling — the data-level complexity metrics of Table 2.

Given a populated :class:`repro.engine.Database`, the profiler computes:

* ``columns_per_table`` — average number of columns per table,
* ``rows_per_table`` — average number of rows per table,
* ``tables_per_db`` — number of tables in the database,
* ``uniqueness`` — fraction of column *names* that are unique across the
  schema (lower uniqueness means more repeated/ambiguous names, the paper's
  schema-ambiguity signal),
* ``sparsity`` — fraction of NULL cells across all tables,
* ``data_type_diversity`` — number of distinct declared data types.

These six quantities are exactly the columns of the paper's Table 2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.engine.database import Database
from repro.errors import SchemaError


@dataclass
class DataProfile:
    """Data-level complexity metrics for one database (a row of Table 2)."""

    columns_per_table: float
    rows_per_table: float
    tables_per_db: int
    uniqueness: float
    sparsity: float
    data_type_diversity: int

    def as_dict(self) -> dict[str, float]:
        """Return the profile as a plain dict keyed like the Table 2 columns."""
        return {
            "columns_per_table": self.columns_per_table,
            "rows_per_table": self.rows_per_table,
            "tables_per_db": self.tables_per_db,
            "uniqueness": self.uniqueness,
            "sparsity": self.sparsity,
            "data_types": self.data_type_diversity,
        }


def profile_database(database: Database) -> DataProfile:
    """Compute the Table 2 metrics over a populated engine database."""
    tables = database.tables()
    if not tables:
        raise SchemaError("cannot profile an empty database")

    total_columns = sum(len(table.columns) for table in tables)
    total_rows = sum(len(table) for table in tables)

    column_name_counts = Counter(
        column.name.lower() for table in tables for column in table.columns
    )
    unique_names = sum(1 for count in column_name_counts.values() if count == 1)
    uniqueness = unique_names / len(column_name_counts) if column_name_counts else 1.0

    null_cells = 0
    total_cells = 0
    for table in tables:
        width = len(table.columns)
        total_cells += width * len(table)
        for row in table.rows:
            null_cells += sum(1 for value in row if value is None)
    sparsity = null_cells / total_cells if total_cells else 0.0

    data_types = {column.data_type for table in tables for column in table.columns}

    return DataProfile(
        columns_per_table=total_columns / len(tables),
        rows_per_table=total_rows / len(tables),
        tables_per_db=len(tables),
        uniqueness=uniqueness,
        sparsity=sparsity,
        data_type_diversity=len(data_types),
    )
