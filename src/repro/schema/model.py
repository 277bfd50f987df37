"""Logical schema model.

The schema model is the contract between the workload generators, the
retrieval component (which surfaces "relevant tables with all their columns"
to the LLM prompt — paper step 4), the schema profiler (Table 2 metrics) and
the annotation UI abstractions in :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError


def _find(owner: object, items: list, name: str):
    """First entry of ``items`` whose name equals ``name`` case-insensitively.

    Answers from a dict kept on ``owner`` (outside its dataclass fields, so
    it never shows in ``asdict``, ``==`` or ``repr``) and rebuilt whenever
    ``items`` is another list object or has another length; appends and
    replacing the list are seen, renaming an entry in place is not.
    """
    index = owner.__dict__.get("_name_index")
    if index is None or index[0] is not items or index[1] != len(items):
        by_name: dict = {}
        for item in items:
            by_name.setdefault(item.name.lower(), item)
        index = owner._name_index = (items, len(items), by_name)
    return index[2].get(name.lower()) if items else None


@dataclass
class ColumnSchema:
    """One column of a table."""

    name: str
    type_name: str = "TEXT"
    nullable: bool = True
    primary_key: bool = False
    description: str = ""

    def render(self) -> str:
        """Render the column as it appears in DDL/prompt context."""
        suffix = " PRIMARY KEY" if self.primary_key else ""
        return f"{self.name} {self.type_name}{suffix}"


@dataclass
class ForeignKey:
    """A foreign-key relationship between two tables."""

    column: str
    referenced_table: str
    referenced_column: str


@dataclass
class TableSchema:
    """One table of a database schema."""

    name: str
    columns: list[ColumnSchema] = field(default_factory=list)
    foreign_keys: list[ForeignKey] = field(default_factory=list)
    description: str = ""

    def column(self, name: str) -> ColumnSchema:
        """Look up a column by case-insensitive name (the first declared wins)."""
        column = _find(self, self.columns, name)
        if column is None:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return column

    def has_column(self, name: str) -> bool:
        """Whether the table declares a column with the given name."""
        return _find(self, self.columns, name) is not None


@dataclass
class DatabaseSchema:
    """A whole database schema: a named collection of tables."""

    name: str
    tables: list[TableSchema] = field(default_factory=list)
    description: str = ""

    def table(self, name: str) -> TableSchema:
        """Look up a table by case-insensitive name (the first declared wins)."""
        table = _find(self, self.tables, name)
        if table is None:
            raise SchemaError(f"schema {self.name!r} has no table {name!r}")
        return table

    def has_table(self, name: str) -> bool:
        """Whether the schema declares a table with this name."""
        return _find(self, self.tables, name) is not None

    def add_table(self, table: TableSchema) -> None:
        """Add a table, rejecting duplicates."""
        if self.has_table(table.name):
            raise SchemaError(f"schema {self.name!r} already has a table {table.name!r}")
        self.tables.append(table)
