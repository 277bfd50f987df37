"""Row storage for the in-memory engine.

A :class:`StoredTable` owns a list of value tuples plus per-column metadata.
The executor operates on :class:`Relation` objects — a lightweight
(column labels, rows) pair — so intermediate join/aggregation results and base
tables share a single representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CatalogError, ExecutionError
from repro.engine.types import DataType, SQLValue, coerce_value


@dataclass(frozen=True)
class ColumnLabel:
    """Identifies one output column of a relation.

    ``relation`` is the table alias (or base-table name) the column is visible
    under inside the query; it is empty for computed columns.
    """

    name: str
    relation: str = ""

    def matches(self, name: str, relation: str | None = None) -> bool:
        """Case-insensitive match against a (possibly qualified) reference."""
        if self.name.lower() != name.lower():
            return False
        if relation:
            return self.relation.lower() == relation.lower()
        return True


@dataclass
class Relation:
    """An ordered bag of rows with labelled columns."""

    labels: list[ColumnLabel]
    rows: list[tuple[SQLValue, ...]] = field(default_factory=list)

    @property
    def column_names(self) -> list[str]:
        """Unqualified output column names."""
        return [label.name for label in self.labels]

    def column_index(self, name: str, relation: str | None = None) -> int:
        """Resolve a column reference to the position of its first match.

        An unqualified name that several columns share (a self-join, or two
        tables with a same-named column) binds to the first of them, as the
        engine has always done although SQL rejects it; the compiled
        executor's WHERE pushdown relies on binding exactly this way.

        Raises:
            ExecutionError: when the reference matches no column.
        """
        for index, label in enumerate(self.labels):
            if label.matches(name, relation):
                return index
        qualified = f"{relation}.{name}" if relation else name
        raise ExecutionError(f"unknown column reference {qualified!r}")

    def renamed(self, alias: str) -> "Relation":
        """Return a copy whose columns are re-labelled under ``alias``."""
        labels = [ColumnLabel(name=label.name, relation=alias) for label in self.labels]
        return Relation(labels=labels, rows=list(self.rows))


@dataclass
class StoredColumn:
    """Column metadata of a stored base table."""

    name: str
    data_type: DataType
    not_null: bool = False
    primary_key: bool = False
    unique: bool = False


class StoredTable:
    """A named base table with typed columns and tuple storage."""

    def __init__(self, name: str, columns: list[StoredColumn]) -> None:
        if not columns:
            raise CatalogError(f"table {name!r} must have at least one column")
        names_lower = [column.name.lower() for column in columns]
        if len(set(names_lower)) != len(names_lower):
            raise CatalogError(f"table {name!r} has duplicate column names")
        self.name = name
        self.columns = columns
        self.rows: list[tuple[SQLValue, ...]] = []
        self._index_by_name = {column.name.lower(): i for i, column in enumerate(columns)}
        #: Invoked after every successful row mutation; the owning Database sets
        #: this to its data-version bump so caches invalidate even when rows
        #: are inserted directly on the table (as the workload generator does).
        self.on_mutation = None

    @property
    def column_names(self) -> list[str]:
        """Column names in declaration order."""
        return [column.name for column in self.columns]

    def column_position(self, name: str) -> int:
        """Position of a column by case-insensitive name."""
        try:
            return self._index_by_name[name.lower()]
        except KeyError as exc:
            raise CatalogError(f"table {self.name!r} has no column {name!r}") from exc

    def has_column(self, name: str) -> bool:
        """Whether the table has the given column (case-insensitive)."""
        return name.lower() in self._index_by_name

    def insert_row(self, values: dict[str, SQLValue] | list[SQLValue] | tuple[SQLValue, ...]) -> None:
        """Insert a row, coercing each value to the declared column type.

        ``values`` may be a mapping from column name to value (missing columns
        become NULL) or a positional sequence covering every column.
        """
        if isinstance(values, dict):
            lowered = {key.lower(): value for key, value in values.items()}
            unknown = set(lowered) - set(self._index_by_name)
            if unknown:
                raise CatalogError(
                    f"table {self.name!r} has no column(s) {sorted(unknown)!r}"
                )
            row = [lowered.get(column.name.lower()) for column in self.columns]
        else:
            if len(values) != len(self.columns):
                raise ExecutionError(
                    f"expected {len(self.columns)} values for table {self.name!r}, got {len(values)}"
                )
            row = list(values)

        coerced: list[SQLValue] = []
        for column, value in zip(self.columns, row):
            if value is None and column.not_null:
                raise ExecutionError(
                    f"NULL value for NOT NULL column {self.name}.{column.name}"
                )
            coerced.append(coerce_value(value, column.data_type))
        self.rows.append(tuple(coerced))
        self._mark_mutation()

    def insert_rows(self, rows: list[dict[str, SQLValue]] | list[tuple[SQLValue, ...]]) -> None:
        """Insert many rows."""
        for row in rows:
            self.insert_row(row)

    def delete_rows(self, predicate=None) -> int:
        """Delete rows matching ``predicate`` (all rows when ``None``).

        ``predicate`` receives each row tuple and returns whether to delete it.
        Returns the number of rows removed; mutation hooks fire only when at
        least one row was actually removed.
        """
        if predicate is None:
            removed = len(self.rows)
            if removed:
                self.rows = []
                self._mark_mutation()
            return removed
        kept = [row for row in self.rows if not predicate(row)]
        removed = len(self.rows) - len(kept)
        if removed:
            self.rows = kept
            self._mark_mutation()
        return removed

    def _mark_mutation(self) -> None:
        if self.on_mutation is not None:
            self.on_mutation()

    def to_relation(self, alias: str | None = None) -> Relation:
        """View the stored table as an executor relation."""
        visible_name = alias or self.name
        labels = [ColumnLabel(name=column.name, relation=visible_name) for column in self.columns]
        return Relation(labels=labels, rows=list(self.rows))

    def column_values(self, name: str) -> list[SQLValue]:
        """All values of one column (used by the schema profiler)."""
        position = self.column_position(name)
        return [row[position] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"StoredTable({self.name!r}, columns={self.column_names}, rows={len(self.rows)})"
