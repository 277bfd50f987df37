"""Store of annotated (SQL, NL) examples that grows during a session.

The paper's retrieval step uses "prior annotated queries (which naturally grow
over time)" as few-shot examples.  The example store starts empty (the
cold-start condition described in §5.1) and accumulates accepted annotations
as the annotation loop progresses; it can also be seeded from a public
benchmark when warm-starting.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.errors import RetrievalError
from repro.retrieval.cache import LruDict
from repro.retrieval.embedding import EmbeddingModel
from repro.retrieval.vector_store import SearchHit, ShardedVectorStore
from repro.sql.normalizer import query_skeleton


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

    The index is sharded by dataset (see :class:`ShardedVectorStore`), so in
    a multi-tenant service each project's retrieval — which always filters on
    its own dataset — scores only that tenant's shard rather than the global
    archive.  Rankings are identical to an unsharded index (all shards share
    one embedding model, so the vectors are the same).
    """

    def __init__(self, model: EmbeddingModel | None = None) -> None:
        self._store = ShardedVectorStore(model, shard_key="dataset")
        self._examples: dict[str, AnnotatedExample] = {}
        self._skeletons: dict[str, str] = {}
        self._query_skeletons: LruDict[str, str] = LruDict(2048)
        self._counter = 0
        #: Monotonic mutation counter; batch schedulers compare versions to
        #: prove that retrieval results taken earlier are still current.
        self.version = 0

    def __len__(self) -> int:
        return len(self._examples)

    def attach_telemetry(self, telemetry) -> None:
        """Point the underlying vector store's search accounting at a sink.

        Call again after :meth:`load_state`, which replaces the store.
        """
        self._store.telemetry = telemetry

    @property
    def is_empty(self) -> bool:
        """True while in the cold-start condition (no prior annotations)."""
        return not self._examples

    def add(self, sql: str, nl: str, dataset: str = "", tables: list[str] | None = None,
            quality: float = 1.0, skeleton: str | None = None) -> AnnotatedExample:
        """Add an accepted annotation and return the stored example.

        ``skeleton`` may supply the query skeleton of the stripped SQL when
        it is already known (journal replay passes the one the live commit
        computed); otherwise it is computed here.

        Failure-atomic: the vector store either indexes the example or
        raises unchanged, and the store registers the example only after.
        """
        if not sql.strip() or not nl.strip():
            raise RetrievalError("both SQL and NL must be non-empty to store an example")
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
            skeleton = self._query_skeleton(example.sql)
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

    def get(self, example_id: str) -> AnnotatedExample:
        """Fetch a stored example by id."""
        if example_id not in self._examples:
            raise RetrievalError(f"unknown example id {example_id!r}")
        return self._examples[example_id]

    def skeleton(self, example_id: str) -> str:
        """The stored query skeleton of one example."""
        if example_id not in self._skeletons:
            raise RetrievalError(f"unknown example id {example_id!r}")
        return self._skeletons[example_id]

    def all_examples(self) -> list[AnnotatedExample]:
        """All stored examples in insertion order."""
        return list(self._examples.values())

    def shard_sizes(self) -> dict[object, int]:
        """Example count per dataset shard (multi-tenant introspection)."""
        return self._store.shard_sizes()

    def retrieve(
        self,
        sql: str,
        top_k: int = 3,
        dataset: str | None = None,
        exclude_identical: bool = True,
    ) -> list[AnnotatedExample]:
        """Return the ``top_k`` most similar prior annotations for a query.

        ``exclude_identical`` drops examples whose literal-free skeleton equals
        the query's skeleton, so the store never leaks the gold answer for the
        exact query being annotated.
        """
        if self.is_empty:
            return []
        metadata_filter = {"dataset": dataset} if dataset else None
        hits: list[SearchHit] = self._store.search(
            sql, top_k=top_k + 5, metadata_filter=metadata_filter
        )
        return self._hits_to_examples(sql, hits, top_k, exclude_identical)

    def retrieve_many(
        self,
        sqls: list[str],
        top_k: int = 3,
        dataset: str | None = None,
        exclude_identical: bool = True,
    ) -> list[list[AnnotatedExample]]:
        """Batched :meth:`retrieve` for a wave of queries.

        All queries are scored against the store in one matrix product; the
        per-query post-processing matches the scalar path exactly.
        """
        if not sqls:
            return []
        if self.is_empty:
            return [[] for _ in sqls]
        metadata_filter = {"dataset": dataset} if dataset else None
        hit_lists = self._store.search_batch(
            sqls, top_k=top_k + 5, metadata_filter=metadata_filter
        )
        return [
            self._hits_to_examples(sql, hits, top_k, exclude_identical)
            for sql, hits in zip(sqls, hit_lists)
        ]

    def retrieve_count(
        self,
        sql: str,
        top_k: int = 3,
        dataset: str | None = None,
        exclude_identical: bool = True,
    ) -> int:
        """How many examples :meth:`retrieve` would return right now.

        A light-weight variant used by batch-commit validation: it runs the
        same ranked search but materialises no hit objects.
        """
        if self.is_empty:
            return 0
        metadata_filter = {"dataset": dataset} if dataset else None
        doc_ids = self._store.search_ids(sql, top_k=top_k + 5, metadata_filter=metadata_filter)
        skeleton = self._query_skeleton(sql) if exclude_identical else ""
        count = 0
        for doc_id in doc_ids:
            if exclude_identical and self._skeletons[doc_id] == skeleton:
                continue
            count += 1
            if count >= top_k:
                break
        return count

    def _query_skeleton(self, sql: str) -> str:
        """LRU-cached :func:`query_skeleton` (tokenisation is the hot cost)."""
        skeleton = self._query_skeletons.get(sql)
        if skeleton is None:
            skeleton = query_skeleton(sql)
            self._query_skeletons.put(sql, skeleton)
        return skeleton

    def _hits_to_examples(
        self, sql: str, hits: list[SearchHit], top_k: int, exclude_identical: bool
    ) -> list[AnnotatedExample]:
        skeleton = self._query_skeleton(sql) if exclude_identical else ""
        results: list[AnnotatedExample] = []
        for hit in hits:
            example = self._examples[hit.doc_id]
            if exclude_identical and self._skeletons[hit.doc_id] == skeleton:
                continue
            results.append(example)
            if len(results) >= top_k:
                break
        return results

    def seed_from_pairs(self, pairs: list[tuple[str, str]], dataset: str = "seed") -> int:
        """Warm-start the store from existing (SQL, NL) pairs; returns the count."""
        for sql, nl in pairs:
            self.add(sql, nl, dataset=dataset)
        return len(pairs)

    # ------------------------------------------------------------------
    # durability (snapshot) support
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe semantic state (examples + vector index, no caches).

        Query skeletons ride along even though they are a pure function of
        the SQL text: re-deriving them means re-tokenising every stored
        example, which would eat most of the warm-start budget.  The vector
        index carries its stored vectors and feature hashes for the same
        reason (see :meth:`ShardedVectorStore.state_dict`).
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
        re-embedding happens — that is what makes warm start fast.
        """
        self._store = ShardedVectorStore.from_state(state["vector_store"])
        self._examples = {}
        self._query_skeletons = LruDict(2048)
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
        self._counter = int(state["counter"])
        self.version = int(state["version"])
