"""Row storage for the in-memory engine.

A :class:`StoredTable` owns a list of value tuples plus per-column metadata.
The executor operates on :class:`Relation` objects — a lightweight
(column labels, rows) pair — so intermediate join/aggregation results and base
tables share a single representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CatalogError, ExecutionError
from repro.engine.types import STORED_TYPES, DataType, SQLValue, coerce_value


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
        """The same rows (shared, not copied), columns re-labelled under ``alias``."""
        labels = [ColumnLabel(name=label.name, relation=alias) for label in self.labels]
        return Relation(labels=labels, rows=self.rows)


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
        #: Invoked once per call that changes rows (an ``insert_rows`` batch,
        #: a ``delete_rows`` that removes any); the owning Database sets this
        #: to its data-version bump so caches invalidate even when rows are
        #: inserted directly on the table (as the workload generator does).
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

    def insert_rows(
        self, rows: list[dict[str, SQLValue]] | list[tuple[SQLValue, ...]]
    ) -> None:
        """Insert a batch of rows: all of them, or none.

        Each row is a mapping from column name to value (missing columns
        become NULL, an unknown name raises :class:`CatalogError`) or a
        positional sequence covering every column.  The batch is checked
        column by column: NOT NULL is enforced and each value is coerced to
        its column's declared type by :func:`coerce_value`, except that a
        value which already has that type is stored as it is.  A bad row or
        cell appends nothing and raises what inserting the rows one at a
        time would have raised first (row-major order).  A call that appends
        rows fires :attr:`on_mutation` once.
        """
        positional, shape_error = self._positional_rows(rows)
        columns = list(zip(*positional))
        limit = len(positional)
        loaded: list[tuple | list] = []
        cell_error: BaseException | None = None
        for column, values in zip(self.columns, columns):
            coerced, bad = _load_column(self.name, column, values[:limit])
            if bad is not None:
                # Later columns can only fail first in an earlier row.
                limit, cell_error = bad
            loaded.append(coerced)
        if cell_error is not None:
            raise cell_error
        if shape_error is not None:
            raise shape_error
        if not positional:
            return
        if all(coerced is values for coerced, values in zip(loaded, columns)):
            # Nothing was coerced: keep the caller's rows (tuple() returns a
            # tuple unchanged) rather than allocate a second tuple per row,
            # which on a large load mostly costs garbage collections.
            self.rows.extend(map(tuple, positional))
        else:
            self.rows.extend(zip(*loaded))
        self._mark_mutation()

    def _positional_rows(self, rows) -> tuple[list, BaseException | None]:
        """``rows`` as positional rows up to the first one of the wrong shape,
        with that row's error (``None`` when every row has the right shape)."""
        width = len(self.columns)
        positional = []
        for row in rows:
            if isinstance(row, dict):
                lowered = {key.lower(): value for key, value in row.items()}
                unknown = lowered.keys() - self._index_by_name.keys()
                if unknown:
                    return positional, CatalogError(
                        f"table {self.name!r} has no column(s) {sorted(unknown)!r}"
                    )
                row = tuple(lowered.get(name) for name in self._index_by_name)
            elif len(row) != width:
                return positional, ExecutionError(
                    f"expected {width} values for table {self.name!r}, got {len(row)}"
                )
            positional.append(row)
        return positional, None

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
        """View the stored table as an executor relation.

        The relation shares the table's row list: no engine code changes a
        relation's rows in place, and the executor copies them before a
        result can leave it, so a later insert never reaches a result.
        """
        visible_name = alias or self.name
        labels = [ColumnLabel(name=column.name, relation=visible_name) for column in self.columns]
        return Relation(labels=labels, rows=self.rows)

    def column_values(self, name: str) -> list[SQLValue]:
        """All values of one column (used by the schema profiler)."""
        position = self.column_position(name)
        return [row[position] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"StoredTable({self.name!r}, columns={self.column_names}, rows={len(self.rows)})"


def _load_column(
    table_name: str, column: StoredColumn, values: tuple[SQLValue, ...]
) -> tuple[tuple | list | None, tuple[int, BaseException] | None]:
    """Check and coerce one column of a batch.

    Returns ``(values, None)`` when every value already has the column's
    stored type (NULLs allowed unless NOT NULL), the coerced values as a new
    list otherwise, or ``(None, (row index, error))`` for the first bad cell.
    """
    stored_type = STORED_TYPES[column.data_type]
    kinds = set(map(type, values))
    kinds.discard(stored_type)
    if not kinds or (kinds == {type(None)} and not column.not_null):
        return values, None
    data_type = column.data_type
    coerced = list(values)
    for index, value in enumerate(values):
        if type(value) is stored_type:
            continue
        if value is None:
            if column.not_null:
                return None, (
                    index,
                    ExecutionError(f"NULL value for NOT NULL column {table_name}.{column.name}"),
                )
            continue
        try:
            coerced[index] = coerce_value(value, data_type)
        except Exception as exc:  # raised once the whole batch is checked
            return None, (index, exc)
    return coerced, None
