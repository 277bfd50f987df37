"""Schema linking: connect SQL queries and NL text to schema elements.

Two uses inside BenchPress:

* the retrieval step (paper step 4) finds the *relevant tables with all their
  columns* for a SQL query — either by parsing the SQL (sqlglot in the paper,
  our own parser here) or by embedding similarity; both are implemented,
* the simulated text-to-SQL models and the backtranslation step need to map NL
  tokens back onto schema elements.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.schema.model import DatabaseSchema, TableSchema
from repro.sql.analyzer import extract_references
from repro.sql.ast_nodes import Select
from repro.sql.parser import parse_select


_CAMEL_SPLIT = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
_NON_ALNUM = re.compile(r"[^a-z0-9]+")


def split_identifier(identifier: str) -> list[str]:
    """Split a SQL identifier into lower-case word tokens.

    Handles snake_case, CamelCase and ALL_CAPS_WITH_UNDERSCORES, which covers
    the naming conventions in both public benchmarks and enterprise warehouses.
    """
    decamel = _CAMEL_SPLIT.sub(" ", identifier)
    return [token for token in _NON_ALNUM.split(decamel.lower()) if token]


@dataclass
class SchemaLink:
    """A single link between a query/NL and a schema element."""

    table: str
    column: str | None = None
    score: float = 1.0
    source: str = "sql"  # "sql" or "text"


@dataclass
class LinkingResult:
    """Result of linking a query (or NL utterance) to a schema."""

    tables: list[str] = field(default_factory=list)
    columns: list[tuple[str, str]] = field(default_factory=list)  # (table, column)
    links: list[SchemaLink] = field(default_factory=list)
    unresolved_tables: list[str] = field(default_factory=list)
    unresolved_columns: list[str] = field(default_factory=list)


def link_sql_to_schema(
    sql: str | Select,
    schema: DatabaseSchema,
    references: tuple[list[str], list[str]] | None = None,
) -> LinkingResult:
    """Resolve the tables/columns a SQL query references against a schema.

    Accepts either SQL text or an already-parsed :class:`Select` (linking
    depends only on the AST, so callers that have parsed already can skip
    the re-parse).  ``references`` may supply the query's
    :func:`~repro.sql.analyzer.extract_references` result (the decomposer
    keeps it on each unit), which skips the tree walk; ``sql`` is then not
    read.  Tables that are referenced but absent from the schema end up in
    ``unresolved_tables`` (a signal of schema drift in real logs).
    """
    if references is None:
        select = parse_select(sql) if isinstance(sql, str) else sql
        references = extract_references(select)
    referenced_tables, referenced_columns = references

    result = LinkingResult()
    matched_tables: list[TableSchema] = []
    for table_name in referenced_tables:
        if schema.has_table(table_name):
            table = schema.table(table_name)
            matched_tables.append(table)
            result.tables.append(table.name)
            result.links.append(SchemaLink(table=table.name, source="sql"))
        else:
            result.unresolved_tables.append(table_name)

    for column_name in referenced_columns:
        owner = next((table for table in matched_tables if table.has_column(column_name)), None)
        if owner is None:
            owner = next((table for table in schema.tables if table.has_column(column_name)), None)
        if owner is not None:
            result.columns.append((owner.name, owner.column(column_name).name))
            result.links.append(
                SchemaLink(table=owner.name, column=column_name, source="sql")
            )
        else:
            result.unresolved_columns.append(column_name)
    return result


def link_text_to_schema(
    text: str, schema: DatabaseSchema, max_tables: int = 5
) -> LinkingResult:
    """Heuristically link an NL utterance to the schema tables it mentions.

    Scoring: token overlap between the utterance and each table name plus its
    column names, normalised by table vocabulary size.  The top ``max_tables``
    tables (score > 0) are returned, which is what the simulated text-to-SQL
    models and the embedding-free fallback of the retriever use.
    """
    text_tokens = set(split_identifier(text))
    result = LinkingResult()
    scored: list[tuple[float, TableSchema]] = []
    for table in schema.tables:
        vocabulary: set[str] = set(split_identifier(table.name))
        for column in table.columns:
            vocabulary.update(split_identifier(column.name))
        if not vocabulary:
            continue
        overlap = len(text_tokens & vocabulary)
        if overlap == 0:
            continue
        score = overlap / len(vocabulary) + 0.1 * overlap
        scored.append((score, table))

    scored.sort(key=lambda pair: (-pair[0], pair[1].name))
    for score, table in scored[:max_tables]:
        result.tables.append(table.name)
        result.links.append(SchemaLink(table=table.name, score=score, source="text"))
        for column in table.columns:
            column_tokens = set(split_identifier(column.name))
            if column_tokens & text_tokens:
                result.columns.append((table.name, column.name))
                result.links.append(
                    SchemaLink(table=table.name, column=column.name, score=score, source="text")
                )
    return result


def ambiguous_column_names(schema: DatabaseSchema) -> dict[str, list[str]]:
    """Column names that appear in more than one table, with their owners.

    This is the paper's schema-ambiguity signal ("multiple tables with
    identically named columns such as ``user_id``"); BenchPress surfaces prior
    query usage for these columns in the annotation context.
    """
    owners: dict[str, list[str]] = {}
    for table in schema.tables:
        for column in table.columns:
            owners.setdefault(column.name.lower(), []).append(table.name)
    return {name: tables for name, tables in owners.items() if len(tables) > 1}
