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

    @property
    def column_names(self) -> list[str]:
        """Column names in declaration order."""
        return [column.name for column in self.columns]

    def column(self, name: str) -> ColumnSchema:
        """Look up a column by case-insensitive name (the first declared wins)."""
        column = _find(self, self.columns, name)
        if column is None:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return column

    def has_column(self, name: str) -> bool:
        """Whether the table declares a column with the given name."""
        return _find(self, self.columns, name) is not None

    def to_ddl(self) -> str:
        """Render a CREATE TABLE statement for this table."""
        elements = [column.render() for column in self.columns]
        for foreign_key in self.foreign_keys:
            elements.append(
                f"FOREIGN KEY ({foreign_key.column}) REFERENCES "
                f"{foreign_key.referenced_table} ({foreign_key.referenced_column})"
            )
        return f"CREATE TABLE {self.name} ({', '.join(elements)})"


@dataclass
class DatabaseSchema:
    """A whole database schema: a named collection of tables."""

    name: str
    tables: list[TableSchema] = field(default_factory=list)
    description: str = ""

    @property
    def table_names(self) -> list[str]:
        """Table names in declaration order."""
        return [table.name for table in self.tables]

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

    def all_columns(self) -> list[tuple[str, ColumnSchema]]:
        """Every (table name, column) pair in the schema."""
        return [(table.name, column) for table in self.tables for column in table.columns]

    def to_ddl(self) -> str:
        """Render the whole schema as a DDL script."""
        return ";\n".join(table.to_ddl() for table in self.tables) + (";" if self.tables else "")

    def column_count(self) -> int:
        """Total number of columns across all tables."""
        return sum(len(table.columns) for table in self.tables)

    def serialize_for_prompt(self, table_names: list[str] | None = None) -> str:
        """Render schema context for LLM prompts.

        When ``table_names`` is given only those tables are rendered; this is
        how BenchPress keeps prompts focused on the retrieved relevant tables.
        """
        selected = self.tables
        if table_names is not None:
            wanted = {name.lower() for name in table_names}
            selected = [table for table in self.tables if table.name.lower() in wanted]
        lines: list[str] = []
        for table in selected:
            columns = ", ".join(column.render() for column in table.columns)
            lines.append(f"TABLE {table.name} ({columns})")
            for foreign_key in table.foreign_keys:
                lines.append(
                    f"  -- {table.name}.{foreign_key.column} references "
                    f"{foreign_key.referenced_table}.{foreign_key.referenced_column}"
                )
        return "\n".join(lines)


def schema_from_database(database: "Database", name: str | None = None) -> DatabaseSchema:  # noqa: F821
    """Derive a :class:`DatabaseSchema` from an engine :class:`Database` catalog."""
    from repro.engine.database import Database as EngineDatabase

    if not isinstance(database, EngineDatabase):
        raise SchemaError("schema_from_database expects a repro.engine.Database")
    schema = DatabaseSchema(name=name or database.name)
    for table in database.tables():
        columns = [
            ColumnSchema(
                name=column.name,
                type_name=column.data_type.value,
                nullable=not column.not_null,
                primary_key=column.primary_key,
            )
            for column in table.columns
        ]
        schema.add_table(TableSchema(name=table.name, columns=columns))
    return schema
