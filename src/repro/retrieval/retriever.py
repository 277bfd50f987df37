"""Context retrieval for candidate generation (paper step 4).

For each SQL query (or decomposed subquery) BenchPress retrieves:

* semantically similar prior annotated examples (few-shot guidance), and
* the relevant schema tables *with all their columns* — via SQL parsing when
  the query parses, falling back to embedding/token similarity otherwise.

The combined context grounds the LLM's output in both content and structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.retrieval.cache import LruDict
from repro.retrieval.example_store import AnnotatedExample, ExampleStore
from repro.schema.linking import link_sql_to_schema, link_text_to_schema
from repro.schema.model import DatabaseSchema, TableSchema
from repro.sql.normalizer import QueryKeys, sql_keys


@dataclass
class RetrievedContext:
    """Everything the prompt builder needs for one query."""

    tables: list[TableSchema] = field(default_factory=list)
    examples: list[AnnotatedExample] = field(default_factory=list)
    ambiguous_columns: dict[str, list[str]] = field(default_factory=dict)

    def schema_text(self) -> str:
        """Schema context rendered for the prompt."""
        lines = []
        for table in self.tables:
            columns = ", ".join(column.render() for column in table.columns)
            lines.append(f"TABLE {table.name} ({columns})")
        return "\n".join(lines)


#: A query's ``(tables, columns)`` references, as
#: :func:`~repro.sql.analyzer.extract_references` returns them.
References = tuple[list[str], list[str]]


class ContextRetriever:
    """Combines schema linking and example retrieval into one context object.

    Callers may pass what they already derived from a query's text: its tree
    (``ast``), :class:`~repro.sql.normalizer.QueryKeys` (``keys``) and
    ``references``; each saves a parse, a lex or a walk, with equal results.
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        example_store: ExampleStore | None = None,
        top_k_examples: int = 3,
        max_tables: int = 8,
        linking_cache_size: int = 4096,
    ) -> None:
        self._schema = schema
        self._example_store = example_store or ExampleStore()
        self.top_k_examples = top_k_examples
        self.max_tables = max_tables
        # Schema linking depends only on the (static) schema and the query
        # text, so results are cached under the query's lexical key:
        # repeated retrieval of the same or trivially-reformatted query skips
        # parsing and linking entirely.
        self._linking_cache: LruDict[
            str, tuple[list[TableSchema], dict[str, list[str]]]
        ] = LruDict(linking_cache_size)
        # Ambiguous columns per linked table tuple (many queries share one).
        self._ambiguous: LruDict[tuple, dict[str, list[str]]] = LruDict(linking_cache_size)
        self._linking_hits = 0
        self._linking_misses = 0

    @property
    def example_store(self) -> ExampleStore:
        """The underlying example store (grows as annotations are accepted)."""
        return self._example_store

    @property
    def schema(self) -> DatabaseSchema:
        """The schema this retriever serves."""
        return self._schema

    def retrieve(
        self,
        sql: str,
        ast: object | None = None,
        keys: QueryKeys | None = None,
        references: References | None = None,
    ) -> RetrievedContext:
        """Build the retrieval context for one SQL query."""
        return self._contexts([sql], [ast], None if keys is None else [keys], [references])[0]

    def retrieve_batch(
        self,
        sqls: list[str],
        asts: list[object] | None = None,
        keys: list[QueryKeys] | None = None,
        references: list[References | None] | None = None,
    ) -> list[RetrievedContext]:
        """Build retrieval contexts for a wave of queries.

        Example retrieval ranks the whole wave in one call to the store's
        index, which scores each query with its own matrix-vector product
        (one matrix product for the wave could change the last bits of the
        scores and so the order of ties); schema linking hits the per-query
        cache.  ``asts``, ``keys`` and ``references`` are positionally
        aligned with ``sqls`` (``None`` entries allowed in ``asts`` and
        ``references``).  Equivalent to calling :meth:`retrieve` per query
        against the same store state.
        """
        return self._contexts(sqls, asts, keys, references)

    def _contexts(
        self,
        sqls: list[str],
        asts: list[object] | None,
        keys: list[QueryKeys] | None,
        references: list[References | None] | None,
    ) -> list[RetrievedContext]:
        keys = keys or [sql_keys(sql) for sql in sqls]
        example_lists = self._example_store.retrieve_many(
            sqls, self.top_k_examples, skeletons=[key.skeleton for key in keys]
        )
        nothing = [None] * len(sqls)
        contexts: list[RetrievedContext] = []
        for sql, examples, query_keys, ast, refs in zip(
            sqls, example_lists, keys, asts or nothing, references or nothing
        ):
            tables, ambiguous = self._linked(sql, query_keys, ast, refs)
            contexts.append(
                RetrievedContext(tables=tables, examples=examples, ambiguous_columns=ambiguous)
            )
        return contexts

    def record_annotation(
        self, sql: str, nl: str, keys: QueryKeys | None = None
    ) -> AnnotatedExample:
        """Store an accepted annotation so future retrievals can use it.

        The archive keeps the example's SQL and NL, so storing one links
        nothing to the schema.  ``keys`` is as in :meth:`retrieve`; its
        skeleton saves lexing the SQL.
        """
        skeleton = None if keys is None else keys.skeleton
        return self._example_store.add(sql, nl, skeleton=skeleton)

    def linking_cache_info(self) -> dict[str, int]:
        """Hit/miss/size counters for the schema-linking cache."""
        return {
            "hits": self._linking_hits,
            "misses": self._linking_misses,
            "size": len(self._linking_cache),
            "max_size": self._linking_cache.max_size,
        }

    # ------------------------------------------------------------------

    def example_count(self, sql: str, keys: QueryKeys | None = None) -> int:
        """How many few-shot examples :meth:`retrieve` would return right now."""
        skeleton = None if keys is None else keys.skeleton
        return self._example_store.retrieve_count(sql, self.top_k_examples, skeleton=skeleton)

    def _linked(
        self,
        sql: str,
        keys: QueryKeys,
        ast: object | None = None,
        references: References | None = None,
    ) -> tuple[list[TableSchema], dict[str, list[str]]]:
        """Cached (tables, ambiguous-columns) for one query, under its lexical
        key, so reformatted duplicates share one entry."""
        cached = self._linking_cache.get(keys.lexical)
        if cached is None:
            self._linking_misses += 1
            tables = self._relevant_tables(sql, ast, references)
            cached = (tables, self._ambiguous_among(tables))
            self._linking_cache.put(keys.lexical, cached)
        else:
            self._linking_hits += 1
        tables, ambiguous = cached
        return list(tables), dict(ambiguous)

    def _relevant_tables(
        self, sql: str, ast: object | None = None, references: References | None = None
    ) -> list[TableSchema]:
        try:
            linking = link_sql_to_schema(
                ast if ast is not None else sql, self._schema, references=references
            )
        except Exception:
            linking = link_text_to_schema(sql, self._schema, max_tables=self.max_tables)
        tables: list[TableSchema] = []
        seen: set[str] = set()
        for name in linking.tables:
            key = name.lower()
            if key in seen:
                continue
            seen.add(key)
            tables.append(self._schema.table(name))
            if len(tables) >= self.max_tables:
                break
        if not tables:
            # Fall back to lexical matching over the raw SQL text.
            fallback = link_text_to_schema(sql, self._schema, max_tables=self.max_tables)
            for name in fallback.tables:
                key = name.lower()
                if key not in seen:
                    seen.add(key)
                    tables.append(self._schema.table(name))
        return tables

    def _ambiguous_among(self, tables: list[TableSchema]) -> dict[str, list[str]]:
        names = tuple(table.name for table in tables)
        ambiguous = self._ambiguous.get(names)
        if ambiguous is None:
            owners: dict[str, list[str]] = {}
            for table in tables:
                for column in table.columns:
                    owners.setdefault(column.name.lower(), []).append(table.name)
            ambiguous = {name: tabs for name, tabs in owners.items() if len(tabs) > 1}
            self._ambiguous.put(names, ambiguous)
        return ambiguous
