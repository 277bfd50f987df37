"""Synthetic workload generation: schemas, data, and SQL log queries.

The generator is deterministic given (spec, seed).  It produces:

1. a :class:`~repro.schema.model.DatabaseSchema` whose shape (tables, column
   widths, name duplication, declared types) follows the workload spec,
2. a populated :class:`~repro.engine.database.Database` with the spec's row
   counts, NULL rate and value distributions,
3. a list of executable SQL queries whose structural complexity (joins,
   aggregation, nesting, predicates) follows the spec's
   :class:`~repro.workloads.base.QueryShapeSpec`, each paired with a complete
   gold NL description.

Filter literals are sampled from the generated data so most queries return
non-empty results, which matters for execution-accuracy comparisons.
"""

from __future__ import annotations

import random
import zlib
from collections.abc import Callable
from functools import partial

from repro.engine.database import Database
from repro.errors import WorkloadError
from repro.llm.sql2nl import describe_query
from repro.schema.model import ColumnSchema, DatabaseSchema, ForeignKey, TableSchema
from repro.sql.analyzer import is_nested
from repro.sql.parser import parse_select
from repro.workloads.base import Workload, WorkloadQuery, WorkloadSpec

#: Column names that recur across enterprise tables (drives low uniqueness).
SHARED_COLUMN_POOL: tuple[tuple[str, str], ...] = (
    ("ID", "INT"),
    ("NAME", "VARCHAR"),
    ("STATUS", "VARCHAR"),
    ("TYPE", "VARCHAR"),
    ("CODE", "VARCHAR"),
    ("DESCRIPTION", "VARCHAR"),
    ("CREATED_DATE", "DATE"),
    ("UPDATED_DATE", "DATE"),
    ("AMOUNT", "NUMBER"),
    ("QUANTITY", "INT"),
    ("USER_ID", "INT"),
    ("DEPARTMENT_ID", "INT"),
    ("IS_ACTIVE", "BOOLEAN"),
    ("CATEGORY", "VARCHAR"),
    ("SOURCE_SYSTEM", "VARCHAR"),
)

#: Categorical string values used to populate text columns.
TEXT_VALUE_POOL: tuple[str, ...] = (
    "ACTIVE", "INACTIVE", "PENDING", "CLOSED", "OPEN", "NEW", "ARCHIVED",
    "NORTH", "SOUTH", "EAST", "WEST", "CENTRAL",
    "GOLD", "SILVER", "BRONZE", "STANDARD", "PREMIUM",
    "STREET", "AVENUE", "CAMPUS", "REMOTE", "ONLINE",
)

_DATE_POOL: tuple[str, ...] = tuple(
    f"20{year:02d}-{month:02d}-{day:02d}"
    for year in range(18, 26)
    for month in (1, 4, 7, 10)
    for day in (1, 15)
)


class WorkloadGenerator:
    """Builds a complete synthetic workload from a specification."""

    def __init__(self, spec: WorkloadSpec, seed: int = 0) -> None:
        self.spec = spec
        self._seed = seed
        # crc32, not hash(): str hashes are salted per process, which would
        # make the same (spec, seed) generate a different workload each run.
        name_key = zlib.crc32(spec.name.encode("utf-8"))
        self._rng = random.Random((name_key & 0xFFFF) * 100003 + seed)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def build(self) -> Workload:
        """Generate schema, data and queries for the workload."""
        schema = self.generate_schema()
        database = self.populate_database(schema)
        queries = self.generate_queries(schema, database)
        return Workload(
            name=self.spec.name,
            spec=self.spec,
            database=database,
            schema=schema,
            queries=queries,
        )

    # ------------------------------------------------------------------
    # schema generation
    # ------------------------------------------------------------------

    def generate_schema(self) -> DatabaseSchema:
        """Generate the logical schema according to the spec."""
        spec = self.spec
        vocabulary = list(spec.vocabulary) or ["entity", "record", "item"]
        schema = DatabaseSchema(name=spec.name, description=f"Synthetic {spec.name} schema")

        # Cross-table registries driving the Table 2 uniqueness metric:
        # ``_schema_column_names`` avoids accidental collisions for names that
        # should stay unique, while ``_reusable_names`` is the pool of domain
        # column names that deliberately recur across tables (the enterprise
        # "same column everywhere" pattern).  The spec's
        # ``column_name_duplication`` controls how often a column slot draws
        # from the reusable pool instead of minting a fresh unique name.
        self._schema_column_names: set[str] = set()
        self._reusable_names: list[tuple[str, str]] = [
            (name, type_name) for name, type_name in SHARED_COLUMN_POOL
        ]
        used_table_names: set[str] = set()
        for table_index in range(spec.table_count):
            table_name = self._table_name(vocabulary, table_index, used_table_names)
            used_table_names.add(table_name.lower())
            width = self._rng.randint(spec.columns_per_table_min, spec.columns_per_table_max)
            columns, foreign_keys = self._table_columns(table_name, width, schema)
            schema.add_table(
                TableSchema(name=table_name, columns=columns, foreign_keys=foreign_keys)
            )
        return schema

    def _table_name(self, vocabulary: list[str], index: int, used: set[str]) -> str:
        suffixes = ("", "", "_ALL", "_HIST", "_DIM", "_FACT", "_V", "_SUMMARY")
        for _ in range(50):
            words = self._rng.sample(vocabulary, k=min(2, len(vocabulary)))
            suffix = self._rng.choice(suffixes) if self.spec.column_name_duplication > 0.3 else ""
            name = "_".join(word.upper() for word in words) + suffix
            if name.lower() not in used:
                return name
        return f"{vocabulary[0].upper()}_{index}"

    def _table_columns(
        self, table_name: str, width: int, schema: DatabaseSchema
    ) -> tuple[list[ColumnSchema], list[ForeignKey]]:
        spec = self.spec
        columns: list[ColumnSchema] = []
        foreign_keys: list[ForeignKey] = []
        used_names: set[str] = set()

        primary_key_name = f"{table_name}_KEY"
        columns.append(
            ColumnSchema(name=primary_key_name, type_name="INT", nullable=False, primary_key=True)
        )
        used_names.add(primary_key_name.lower())

        # Foreign keys to previously created tables (join fabric).
        if schema.tables:
            fk_count = min(len(schema.tables), self._rng.randint(1, 2))
            referenced = self._rng.sample(schema.tables, k=fk_count)
            for target in referenced:
                fk_name = f"{target.name}_KEY"
                if fk_name.lower() in used_names:
                    continue
                columns.append(ColumnSchema(name=fk_name, type_name="INT", nullable=True))
                used_names.add(fk_name.lower())
                foreign_keys.append(
                    ForeignKey(
                        column=fk_name,
                        referenced_table=target.name,
                        referenced_column=target.columns[0].name,
                    )
                )

        vocabulary = list(spec.vocabulary) or ["value"]
        suffixes = ("count", "total", "date", "name", "flag", "score",
                    "rate", "level", "group", "term", "code", "rank", "size", "share")
        attempts = 0
        while len(columns) < width and attempts < width * 40:
            attempts += 1
            duplicated_slot = self._rng.random() < spec.column_name_duplication
            if duplicated_slot and self._reusable_names and self._rng.random() < 0.65:
                name, type_name = self._rng.choice(self._reusable_names)
            else:
                word_a = self._rng.choice(vocabulary)
                word_b = self._rng.choice(suffixes)
                name = f"{word_a.upper()}_{word_b.upper()}"
                type_name = self._rng.choice(list(spec.type_pool))
                if name.lower() in self._schema_column_names and not duplicated_slot:
                    # Keep supposedly-unique names collision-free across tables
                    # by qualifying them with a second vocabulary word.
                    word_c = self._rng.choice(vocabulary)
                    name = f"{word_a.upper()}_{word_c.upper()}_{word_b.upper()}"
                    if name.lower() in self._schema_column_names:
                        continue
                if duplicated_slot:
                    # Freshly minted name that future tables may reuse.
                    self._reusable_names.append((name, type_name))
            if name.lower() in used_names:
                continue
            used_names.add(name.lower())
            self._schema_column_names.add(name.lower())
            columns.append(ColumnSchema(name=name, type_name=type_name, nullable=True))
        return columns, foreign_keys

    # ------------------------------------------------------------------
    # data population
    # ------------------------------------------------------------------

    def populate_database(self, schema: DatabaseSchema) -> Database:
        """Create and populate an engine database matching the schema.

        Rows are tuples in column order.  Values are drawn row by row, column
        by column: a primary key is the row number, any other cell is NULL
        with probability ``null_rate`` and otherwise drawn by its column's
        source (see :meth:`_value_source`).
        """
        database = Database(name=self.spec.name)
        rows_per_table = self.spec.scaled_rows()

        for table in schema.tables:
            database.create_table(
                table.name,
                [(column.name, column.type_name) for column in table.columns],
                primary_key=[column.name for column in table.columns if column.primary_key],
            )

        unit_draw = self._rng.random
        null_rate = self.spec.null_rate
        for table in schema.tables:
            fk_targets = {
                fk.column.lower(): fk.referenced_table for fk in table.foreign_keys
            }
            row_count = max(2, int(rows_per_table * self._rng.uniform(0.6, 1.4)))
            sources = [
                None if column.primary_key else self._value_source(column, fk_targets, database)
                for column in table.columns
            ]
            rows = [
                tuple(
                    row_number if draw is None
                    else None if unit_draw() < null_rate
                    else draw()
                    for draw in sources
                )
                for row_number in range(1, row_count + 1)
            ]
            database.table(table.name).insert_rows(rows)
        return database

    def _value_source(
        self, column: ColumnSchema, fk_targets: dict[str, str], database: Database
    ) -> Callable[[], object]:
        """A callable drawing one non-NULL value of a non-key column.

        A foreign key draws a row number of its (already populated) target
        table; any other column draws from its declared type's distribution.
        """
        rng = self._rng
        if column.name.lower() in fk_targets:
            target_rows = len(database.table(fk_targets[column.name.lower()]))
            if target_rows == 0:
                return lambda: None
            return partial(rng.randint, 1, target_rows)

        base_type = column.type_name.upper().split("(")[0]
        if base_type in ("INT", "INTEGER", "BIGINT", "SMALLINT"):
            return partial(rng.randint, 0, 500)
        if base_type in ("NUMBER", "REAL", "FLOAT", "DECIMAL", "NUMERIC", "DOUBLE"):
            return lambda: round(rng.uniform(0, 10000), 2)
        if base_type in ("BOOLEAN", "BOOL"):
            return lambda: rng.random() < 0.5
        if base_type in ("DATE", "DATETIME", "TIMESTAMP"):
            return partial(rng.choice, _DATE_POOL)
        return partial(rng.choice, TEXT_VALUE_POOL)

    # ------------------------------------------------------------------
    # query generation
    # ------------------------------------------------------------------

    def generate_queries(
        self, schema: DatabaseSchema, database: Database
    ) -> list[WorkloadQuery]:
        """Generate the workload's SQL log with gold NL descriptions."""
        queries: list[WorkloadQuery] = []
        attempts = 0
        max_attempts = self.spec.query_count * 20
        while len(queries) < self.spec.query_count and attempts < max_attempts:
            attempts += 1
            try:
                sql, tables = self._generate_query(schema, database)
                select = parse_select(sql)
                # Queries must execute on the substrate and, while attempts
                # remain plentiful, return at least one row: empty-result
                # queries make execution-accuracy comparisons trivially true
                # and are excluded from real text-to-SQL benchmarks as well.
                result = database.execute(sql)
                strict_phase = attempts < self.spec.query_count * 12
                if strict_phase and not result.rows:
                    continue
            except Exception:
                continue
            query_id = f"{self.spec.name.lower()}-{len(queries) + 1:04d}"
            queries.append(
                WorkloadQuery(
                    query_id=query_id,
                    sql=sql,
                    gold_nl=describe_query(select, fidelity=1.0),
                    tables=tables,
                    is_nested=is_nested(select),
                    dataset=self.spec.name,
                )
            )
        if len(queries) < max(1, self.spec.query_count // 2):
            raise WorkloadError(
                f"workload {self.spec.name!r}: only {len(queries)} of "
                f"{self.spec.query_count} queries could be generated"
            )
        return queries

    def _generate_query(
        self, schema: DatabaseSchema, database: Database
    ) -> tuple[str, list[str]]:
        shape = self.spec.query_shape
        table_count = self._rng.randint(shape.min_tables, shape.max_tables)
        tables = self._pick_join_path(schema, table_count)
        table_names = [table.name for table in tables]

        select_parts: list[str] = []
        group_parts: list[str] = []

        aggregates_added = 0
        if self._rng.random() < shape.group_by_rate:
            group_column = self._pick_column(tables, prefer_text=True)
            if group_column is not None:
                group_parts.append(group_column)
                select_parts.append(group_column)

        if group_parts or self._rng.random() < shape.aggregation_rate:
            aggregate_count = self._rng.randint(1, max(1, shape.max_aggregates))
            for _ in range(aggregate_count):
                select_parts.append(self._aggregate_expression(tables))
                aggregates_added += 1

        extra_columns = self._rng.randint(0, shape.extra_projection_max)
        if not group_parts and aggregates_added == 0:
            for _ in range(extra_columns):
                column = self._pick_column(tables)
                if column is not None and column not in select_parts:
                    select_parts.append(column)
        if not select_parts:
            column = self._pick_column(tables)
            select_parts.append(column if column is not None else "*")

        from_clause = self._join_clause(tables)

        predicates: list[str] = []
        predicate_count = self._rng.randint(shape.predicate_min, shape.predicate_max)
        for _ in range(predicate_count):
            predicate = self._predicate(tables, database)
            if predicate is not None:
                predicates.append(predicate)

        nestings = 0
        if self._rng.random() < shape.nesting_rate:
            nestings = self._rng.randint(1, max(1, shape.max_nestings))
            for _ in range(nestings):
                nested = self._nested_predicate(tables, schema, database)
                if nested is not None:
                    predicates.append(nested)

        sql_parts = ["SELECT"]
        if self._rng.random() < shape.distinct_rate and not group_parts:
            sql_parts.append("DISTINCT")
        sql_parts.append(", ".join(select_parts))
        sql_parts.append(f"FROM {from_clause}")
        if predicates:
            sql_parts.append("WHERE " + " AND ".join(predicates))
        if group_parts:
            sql_parts.append("GROUP BY " + ", ".join(group_parts))
            if aggregates_added and self._rng.random() < 0.35:
                sql_parts.append(f"HAVING COUNT(*) >= {self._rng.randint(1, 3)}")
        if self._rng.random() < shape.order_by_rate:
            order_column = group_parts[0] if group_parts else self._pick_column(tables)
            if order_column is not None:
                direction = self._rng.choice(("ASC", "DESC"))
                sql_parts.append(f"ORDER BY {order_column} {direction}")
        if self._rng.random() < shape.limit_rate:
            sql_parts.append(f"LIMIT {self._rng.choice((5, 10, 20, 50))}")

        sql = " ".join(sql_parts)

        if self._rng.random() < shape.cte_rate and group_parts and aggregates_added:
            sql = self._wrap_in_cte(sql)

        return sql, table_names

    # -- query building blocks -----------------------------------------

    def _pick_join_path(self, schema: DatabaseSchema, count: int) -> list[TableSchema]:
        start = self._rng.choice(schema.tables)
        path = [start]
        seen = {start.name.lower()}
        while len(path) < count:
            candidates: list[TableSchema] = []
            for table in path:
                for foreign_key in table.foreign_keys:
                    target = foreign_key.referenced_table
                    if target.lower() not in seen and schema.has_table(target):
                        candidates.append(schema.table(target))
                for other in schema.tables:
                    if other.name.lower() in seen:
                        continue
                    if any(
                        fk.referenced_table.lower() == table.name.lower()
                        for fk in other.foreign_keys
                    ):
                        candidates.append(other)
            if not candidates:
                break
            chosen = self._rng.choice(candidates)
            path.append(chosen)
            seen.add(chosen.name.lower())
        return path

    def _join_clause(self, tables: list[TableSchema]) -> str:
        clause = tables[0].name
        joined = [tables[0]]
        for table in tables[1:]:
            condition = self._fk_condition(joined, table)
            if condition is None:
                condition = (
                    f"{joined[0].name}.{joined[0].columns[0].name} = "
                    f"{table.name}.{table.columns[0].name}"
                )
            clause += f" JOIN {table.name} ON {condition}"
            joined.append(table)
        return clause

    def _fk_condition(self, joined: list[TableSchema], new_table: TableSchema) -> str | None:
        for table in joined:
            for foreign_key in table.foreign_keys:
                if foreign_key.referenced_table.lower() == new_table.name.lower():
                    return (
                        f"{table.name}.{foreign_key.column} = "
                        f"{new_table.name}.{foreign_key.referenced_column}"
                    )
            for foreign_key in new_table.foreign_keys:
                if foreign_key.referenced_table.lower() == table.name.lower():
                    return (
                        f"{new_table.name}.{foreign_key.column} = "
                        f"{table.name}.{foreign_key.referenced_column}"
                    )
        return None

    def _pick_column(
        self, tables: list[TableSchema], prefer_text: bool = False, numeric: bool = False
    ) -> str | None:
        candidates: list[str] = []
        for table in tables:
            for column in table.columns:
                if column.primary_key:
                    continue
                base_type = column.type_name.upper().split("(")[0]
                is_text = base_type in ("VARCHAR", "TEXT", "CHAR", "VARCHAR2", "STRING")
                is_number = base_type in (
                    "INT", "INTEGER", "NUMBER", "REAL", "FLOAT", "DECIMAL", "NUMERIC", "BIGINT"
                )
                if numeric and not is_number:
                    continue
                if prefer_text and not is_text:
                    continue
                candidates.append(f"{table.name}.{column.name}")
        if not candidates and (prefer_text or numeric):
            return self._pick_column(tables)
        if not candidates:
            return None
        return self._rng.choice(candidates)

    def _aggregate_expression(self, tables: list[TableSchema]) -> str:
        function = self._rng.choice(("COUNT", "COUNT", "SUM", "AVG", "MAX", "MIN"))
        if function == "COUNT" and self._rng.random() < 0.5:
            return "COUNT(*)"
        numeric_column = self._pick_column(tables, numeric=function != "COUNT")
        if numeric_column is None:
            return "COUNT(*)"
        if function == "COUNT" and self._rng.random() < 0.4:
            return f"COUNT(DISTINCT {numeric_column})"
        return f"{function}({numeric_column})"

    def _predicate(self, tables: list[TableSchema], database: Database) -> str | None:
        column_ref = self._pick_column(tables)
        if column_ref is None:
            return None
        table_name, column_name = column_ref.split(".")
        values = [
            value
            for value in database.table(table_name).column_values(column_name)
            if value is not None
        ]
        if not values:
            return f"{column_ref} IS NULL"
        value = self._rng.choice(values)
        if isinstance(value, bool):
            return f"{column_ref} = {'TRUE' if value else 'FALSE'}"
        if isinstance(value, (int, float)):
            operator = self._rng.choice(("=", ">", "<", ">=", "<="))
            rendered = int(value) if float(value).is_integer() else round(value, 2)
            return f"{column_ref} {operator} {rendered}"
        text = str(value).replace("'", "''")
        if self._rng.random() < 0.25:
            return f"{column_ref} LIKE '{text[: max(1, len(text) // 2)]}%'"
        return f"{column_ref} = '{text}'"

    def _nested_predicate(
        self, tables: list[TableSchema], schema: DatabaseSchema, database: Database
    ) -> str | None:
        # IN-subquery over a foreign-key relationship when possible, otherwise a
        # scalar-subquery comparison against an aggregate of the same column.
        table = self._rng.choice(tables)
        for foreign_key in table.foreign_keys:
            if schema.has_table(foreign_key.referenced_table):
                target = schema.table(foreign_key.referenced_table)
                filter_predicate = self._predicate([target], database)
                inner = f"SELECT {target.columns[0].name} FROM {target.name}"
                if filter_predicate is not None:
                    inner += f" WHERE {filter_predicate}"
                return f"{table.name}.{foreign_key.column} IN ({inner})"
        numeric_column = self._pick_column([table], numeric=True)
        if numeric_column is None:
            return None
        _, column_name = numeric_column.split(".")
        return (
            f"{numeric_column} > (SELECT AVG({column_name}) FROM {table.name})"
        )

    def _wrap_in_cte(self, sql: str) -> str:
        return (
            f"WITH summary AS ({sql}) SELECT * FROM summary"
        )


def build_workload(spec: WorkloadSpec, seed: int = 0) -> Workload:
    """Convenience wrapper: generate a workload from a spec."""
    return WorkloadGenerator(spec, seed=seed).build()
