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
from repro.sql.normalizer import lexical_normalize


@dataclass
class RetrievedContext:
    """Everything the prompt builder needs for one query."""

    sql: str
    tables: list[TableSchema] = field(default_factory=list)
    examples: list[AnnotatedExample] = field(default_factory=list)
    ambiguous_columns: dict[str, list[str]] = field(default_factory=dict)
    unresolved_tables: list[str] = field(default_factory=list)

    @property
    def table_names(self) -> list[str]:
        """Names of the retrieved tables."""
        return [table.name for table in self.tables]

    def schema_text(self) -> str:
        """Schema context rendered for the prompt."""
        lines = []
        for table in self.tables:
            columns = ", ".join(column.render() for column in table.columns)
            lines.append(f"TABLE {table.name} ({columns})")
        return "\n".join(lines)


class ContextRetriever:
    """Combines schema linking and example retrieval into one context object."""

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
        # text, so results are cached keyed on lexically-normalised SQL —
        # repeated retrieval of the same or trivially-reformatted query skips
        # parsing and linking entirely.
        self._linking_cache: LruDict[
            str, tuple[list[TableSchema], list[str], dict[str, list[str]]]
        ] = LruDict(linking_cache_size)
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
        self, sql: str, dataset: str | None = None, ast: object | None = None
    ) -> RetrievedContext:
        """Build the retrieval context for one SQL query.

        ``ast`` may supply the already-parsed query so a linking-cache miss
        skips re-parsing.
        """
        tables, unresolved, ambiguous = self._linked(sql, ast=ast)
        examples = self._example_store.retrieve(
            sql, top_k=self.top_k_examples, dataset=dataset
        )
        return RetrievedContext(
            sql=sql,
            tables=tables,
            examples=examples,
            ambiguous_columns=ambiguous,
            unresolved_tables=unresolved,
        )

    def retrieve_batch(
        self,
        sqls: list[str],
        dataset: str | None = None,
        asts: list[object] | None = None,
    ) -> list[RetrievedContext]:
        """Build retrieval contexts for a wave of queries.

        Example retrieval for the whole wave is one matrix product against
        the store; schema linking hits the per-query cache.  ``asts`` may
        supply already-parsed :class:`~repro.sql.ast_nodes.Select` nodes
        (positionally aligned, ``None`` entries allowed) so cache misses skip
        re-parsing.  Equivalent to calling :meth:`retrieve` per query against
        the same store state.
        """
        example_lists = self._example_store.retrieve_many(
            sqls, top_k=self.top_k_examples, dataset=dataset
        )
        contexts: list[RetrievedContext] = []
        for index, (sql, examples) in enumerate(zip(sqls, example_lists)):
            ast = asts[index] if asts is not None else None
            tables, unresolved, ambiguous = self._linked(sql, ast=ast)
            contexts.append(
                RetrievedContext(
                    sql=sql,
                    tables=tables,
                    examples=examples,
                    ambiguous_columns=ambiguous,
                    unresolved_tables=unresolved,
                )
            )
        return contexts

    def record_annotation(
        self,
        sql: str,
        nl: str,
        dataset: str = "",
        quality: float = 1.0,
        ast: object | None = None,
    ) -> AnnotatedExample:
        """Store an accepted annotation so future retrievals can use it.

        ``ast`` may supply the already-parsed query, as in :meth:`retrieve`.
        """
        tables, _, _ = self._linked(sql, ast=ast)
        return self._example_store.add(
            sql, nl, dataset=dataset, tables=[table.name for table in tables], quality=quality
        )

    def linking_cache_info(self) -> dict[str, int]:
        """Hit/miss/size counters for the schema-linking cache."""
        return {
            "hits": self._linking_hits,
            "misses": self._linking_misses,
            "size": len(self._linking_cache),
            "max_size": self._linking_cache.max_size,
        }

    # ------------------------------------------------------------------

    def example_count(self, sql: str, dataset: str | None = None) -> int:
        """How many few-shot examples :meth:`retrieve` would return right now."""
        return self._example_store.retrieve_count(
            sql, top_k=self.top_k_examples, dataset=dataset
        )

    def _linked(
        self, sql: str, ast: object | None = None
    ) -> tuple[list[TableSchema], list[str], dict[str, list[str]]]:
        """Cached (tables, unresolved, ambiguous-columns) for one query.

        Entries are stored under the lexically-normalised SQL (so reformatted
        duplicates share one entry) and aliased under the exact text, which
        keeps repeat lookups free of tokenisation.
        """
        cached = self._linking_cache.get(sql)
        if cached is None:
            normalized = lexical_normalize(sql)
            cached = self._linking_cache.get(normalized)
            if cached is not None:
                self._linking_cache.put(sql, cached)  # exact-text alias
        if cached is not None:
            self._linking_hits += 1
            tables, unresolved, ambiguous = cached
            return list(tables), list(unresolved), dict(ambiguous)
        self._linking_misses += 1
        tables, unresolved = self._relevant_tables(sql, ast=ast)
        ambiguous = self._ambiguous_among(tables)
        entry = (tables, unresolved, ambiguous)
        self._linking_cache.put(normalized, entry)
        if sql != normalized:
            self._linking_cache.put(sql, entry)
        return list(tables), list(unresolved), dict(ambiguous)

    def _relevant_tables(
        self, sql: str, ast: object | None = None
    ) -> tuple[list[TableSchema], list[str]]:
        try:
            linking = link_sql_to_schema(ast if ast is not None else sql, self._schema)
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
        return tables, linking.unresolved_tables

    def _ambiguous_among(self, tables: list[TableSchema]) -> dict[str, list[str]]:
        owners: dict[str, list[str]] = {}
        for table in tables:
            for column in table.columns:
                owners.setdefault(column.name.lower(), []).append(table.name)
        return {name: tabs for name, tabs in owners.items() if len(tabs) > 1}
