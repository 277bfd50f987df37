"""Store of annotated (SQL, NL) examples that grows during a session.

The paper's retrieval step uses "prior annotated queries (which naturally grow
over time)" as few-shot examples.  The example store starts empty (the
cold-start condition described in §5.1) and accumulates accepted annotations
as the annotation loop progresses.  Each project's store indexes its
examples in one :class:`~repro.retrieval.vector_store.VectorStore`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from repro.errors import RetrievalError
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.retrieval.embedding import EmbeddingModel
from repro.retrieval.vector_store import VectorStore
from repro.sql.normalizer import sql_keys


def has_quoted_identifier(sql: str) -> bool:
    """Whether ``sql`` may quote an identifier: the only SQL whose stored
    skeleton can predate skeletons keeping identifier quotes."""
    return '"' in sql or "`" in sql


@dataclass
class AnnotatedExample:
    """One accepted (SQL, NL) pair."""

    example_id: str
    sql: str
    nl: str
    dataset: str = ""
    tables: list[str] = field(default_factory=list)
    quality: float = 1.0


class ExampleStore:
    """Vector-indexed store of accepted annotations.

    Every example is indexed with its dataset as metadata, so a retrieval
    that names a dataset scores the whole index and keeps that dataset's
    rows.  A service project files all its examples under its own dataset.
    """

    #: Observability sink for search accounting; a class-level no-op default
    #: that ``AnnotationPipeline.attach_telemetry`` overwrites per instance.
    telemetry: Telemetry = NULL_TELEMETRY

    def __init__(self, model: EmbeddingModel | None = None) -> None:
        self._store = VectorStore(model)
        self._examples: dict[str, AnnotatedExample] = {}
        self._skeletons: dict[str, str] = {}
        self._counter = 0
        #: Monotonic mutation counter; batch schedulers compare versions to
        #: prove that retrieval results taken earlier are still current.
        self.version = 0

    def __len__(self) -> int:
        return len(self._examples)

    @property
    def is_empty(self) -> bool:
        """True while in the cold-start condition (no prior annotations)."""
        return not self._examples

    def add(self, sql: str, nl: str, dataset: str = "", tables: list[str] | None = None,
            quality: float = 1.0, skeleton: str | None = None) -> AnnotatedExample:
        """Add an accepted annotation and return the stored example.

        ``skeleton`` may supply the query skeleton of the SQL when it is
        already known (the drain's or the journal's); otherwise it is
        computed here.

        Failure-atomic: the vector store either indexes the example or
        raises unchanged, and the store registers the example only after.
        """
        if not sql.strip() or not nl.strip():
            raise RetrievalError("both SQL and NL must be non-empty to store an example")
        # Retrievals filter on the dataset through a row mask keyed by it,
        # so it must be hashable; checked before the model observes anything.
        try:
            hash(dataset)
        except TypeError:
            raise RetrievalError(f"dataset {dataset!r} is not hashable") from None
        example_id = f"ex-{self._counter + 1:05d}"
        example = AnnotatedExample(
            example_id=example_id,
            sql=sql.strip(),
            nl=nl.strip(),
            dataset=dataset,
            tables=list(tables or []),
            quality=quality,
        )
        if skeleton is None:
            skeleton = sql_keys(example.sql).skeleton
        # Index on the SQL text plus the NL so either side retrieves the pair.
        self._store.add(
            example_id,
            f"{example.sql}\n{example.nl}",
            metadata={"dataset": dataset, "quality": quality},
        )
        self._counter += 1
        self._examples[example_id] = example
        self._skeletons[example_id] = skeleton
        self.version += 1
        return example

    def skeleton(self, example_id: str) -> str:
        """The stored query skeleton of one example."""
        if example_id not in self._skeletons:
            raise RetrievalError(f"unknown example id {example_id!r}")
        return self._skeletons[example_id]

    def retrieve_many(
        self,
        sqls: list[str],
        top_k: int = 3,
        dataset: str | None = None,
        exclude_identical: bool = True,
        skeletons: list[str] | None = None,
    ) -> list[list[AnnotatedExample]]:
        """The ``top_k`` most similar prior annotations for each of a wave of
        queries, in order.

        ``exclude_identical`` drops examples whose literal-free skeleton
        equals the query's skeleton, so the store never leaks the gold answer
        for the exact query being annotated.  ``skeletons`` (aligned with
        ``sqls``) saves lexing the queries.
        """
        if not sqls:
            return []
        if self.is_empty:
            return [[] for _ in sqls]
        metadata_filter = {"dataset": dataset} if dataset else None
        tel = self.telemetry
        started = time.perf_counter() if tel.enabled else 0.0
        id_lists = self._store.search_ids(
            sqls, top_k=top_k + 5, metadata_filter=metadata_filter
        )
        if tel.enabled:
            tel.count("retrieval_searches_total", len(sqls))
            tel.observe("retrieval_search_seconds", time.perf_counter() - started)
        kept = [
            self._kept(doc_ids, top_k, sql, skeleton, exclude_identical)
            for sql, skeleton, doc_ids in zip(sqls, skeletons or [None] * len(sqls), id_lists)
        ]
        return [[self._examples[doc_id] for doc_id in doc_ids] for doc_ids in kept]

    def retrieve_count(
        self,
        sql: str,
        top_k: int = 3,
        dataset: str | None = None,
        exclude_identical: bool = True,
        skeleton: str | None = None,
    ) -> int:
        """How many examples :meth:`retrieve_many` would return for ``sql``
        right now.

        A light-weight variant used by batch-commit validation: it runs the
        same ranked search but materialises no hit objects.  ``skeleton`` is
        as in :meth:`retrieve_many`.
        """
        if self.is_empty:
            return 0
        metadata_filter = {"dataset": dataset} if dataset else None
        (doc_ids,) = self._store.search_ids(
            [sql], top_k=top_k + 5, metadata_filter=metadata_filter
        )
        return len(self._kept(doc_ids, top_k, sql, skeleton, exclude_identical))

    def _kept(
        self,
        doc_ids: list[str],
        top_k: int,
        sql: str,
        skeleton: str | None,
        exclude_identical: bool,
    ) -> list[str]:
        """The leading ranked ids a retrieval for ``sql`` (whose skeleton may
        be supplied) returns."""
        if exclude_identical and skeleton is None:
            skeleton = sql_keys(sql).skeleton
        kept: list[str] = []
        for doc_id in doc_ids:
            if exclude_identical and self._skeletons[doc_id] == skeleton:
                continue
            kept.append(doc_id)
            if len(kept) >= top_k:
                break
        return kept

    # ------------------------------------------------------------------
    # durability (snapshot) support
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe semantic state (examples + vector index, no caches).

        Query skeletons ride along even though they are a pure function of
        the SQL text: re-deriving them means re-tokenising every stored
        example, which would eat most of the warm-start budget.  The vector
        index carries its stored vectors and feature hashes for the same
        reason (see :meth:`VectorStore.state_dict`).
        """
        return {
            "counter": self._counter,
            "version": self.version,
            "examples": [asdict(example) for example in self._examples.values()],
            "skeletons": dict(self._skeletons),
            "vector_store": self._store.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a snapshotted store in place.

        Skeletons, embedding vectors, feature hashes and IDF state all come
        from the snapshot, so neither re-tokenisation, re-hashing nor
        re-embedding happens — that is what makes warm start fast.  Only
        the skeletons of SQL that may quote an identifier are recomputed, as
        older snapshots stored them without the quotes.
        """
        self._store = VectorStore.from_state(state["vector_store"])
        self._examples = {}
        for entry in state["examples"]:
            example = AnnotatedExample(
                example_id=entry["example_id"],
                sql=entry["sql"],
                nl=entry["nl"],
                dataset=entry.get("dataset", ""),
                tables=list(entry.get("tables", [])),
                quality=entry.get("quality", 1.0),
            )
            self._examples[example.example_id] = example
        self._skeletons = dict(state["skeletons"])
        for example_id, example in self._examples.items():
            if has_quoted_identifier(example.sql):
                self._skeletons[example_id] = sql_keys(example.sql).skeleton
        self._counter = int(state["counter"])
        self.version = int(state["version"])
