"""Schema model, DDL ingestion, profiling, and schema linking."""

from repro.schema.ddl_parser import parse_ddl_script
from repro.schema.linking import (
    LinkingResult,
    SchemaLink,
    link_sql_to_schema,
    link_text_to_schema,
    split_identifier,
)
from repro.schema.model import ColumnSchema, DatabaseSchema, ForeignKey, TableSchema
from repro.schema.profiler import DataProfile, column_name_uniqueness, profile_database

__all__ = [
    "ColumnSchema",
    "DataProfile",
    "DatabaseSchema",
    "ForeignKey",
    "LinkingResult",
    "SchemaLink",
    "TableSchema",
    "column_name_uniqueness",
    "link_sql_to_schema",
    "link_text_to_schema",
    "parse_ddl_script",
    "profile_database",
    "split_identifier",
]
