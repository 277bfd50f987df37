"""Store of annotated (SQL, NL) examples that grows during a session.

The paper's retrieval step uses "prior annotated queries (which naturally grow
over time)" as few-shot examples.  The example store starts empty (the
cold-start condition described in §5.1) and accumulates accepted annotations
as the annotation loop progresses.  Each project's store indexes its
examples in one :class:`~repro.retrieval.vector_store.VectorStore`; it holds
only that project's examples, so a retrieval scores every row and needs no
dataset filter.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from repro.errors import RetrievalError
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.retrieval.embedding import EmbeddingModel
from repro.retrieval.vector_store import VectorStore
from repro.sql.normalizer import sql_keys


def is_stale_skeleton(sql: str, skeleton: str) -> bool:
    """Whether a journaled skeleton of ``sql`` predates skeletons keeping
    identifier quotes.

    A skeleton keeps an identifier's double quotes and turns backticks into
    them, so one of SQL that may quote an identifier yet holds no ``"`` lost
    its quotes.
    """
    return '"' not in skeleton and ('"' in sql or "`" in sql)


@dataclass
class AnnotatedExample:
    """One accepted (SQL, NL) pair."""

    example_id: str
    sql: str
    nl: str


def _indexed_text(example: AnnotatedExample) -> str:
    """The text an example is indexed on: its SQL plus its NL, so either
    side retrieves the pair."""
    return f"{example.sql}\n{example.nl}"


class ExampleStore:
    """Vector-indexed store of accepted annotations.

    An example is its id, SQL and NL, which is all a prompt reads of it; the
    index holds only its id and vector.
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

    def add(self, sql: str, nl: str, skeleton: str | None = None,
            profile: list[str] | None = None) -> AnnotatedExample:
        """Add an accepted annotation and return the stored example.

        ``skeleton`` may supply the query skeleton of the SQL when it is
        already known (the drain's or the journal's); otherwise it is
        computed here.  ``profile`` may supply the journaled feature profile
        of the indexed text (see :meth:`profile_state`), so a replay neither
        tokenises nor counts the text again; otherwise the embedding model
        computes it.

        Failure-atomic: the vector store either indexes the example or
        raises unchanged, and the store registers the example only after.
        """
        if not sql.strip() or not nl.strip():
            raise RetrievalError("both SQL and NL must be non-empty to store an example")
        example_id = f"ex-{self._counter + 1:05d}"
        example = AnnotatedExample(example_id=example_id, sql=sql.strip(), nl=nl.strip())
        if skeleton is None:
            skeleton = sql_keys(example.sql).skeleton
        self._store.add(example_id, _indexed_text(example), profile=profile)
        self._counter += 1
        self._examples[example_id] = example
        self._skeletons[example_id] = skeleton
        self.version += 1
        return example

    def profile_state(self, example_id: str) -> list[str] | None:
        """The journal form of one example's feature profile (``None`` when
        the form cannot hold it), as :meth:`add` accepts it."""
        text = _indexed_text(self._examples[example_id])
        return self._store.model.profile_state(text)

    def skeleton(self, example_id: str) -> str:
        """The stored query skeleton of one example."""
        if example_id not in self._skeletons:
            raise RetrievalError(f"unknown example id {example_id!r}")
        return self._skeletons[example_id]

    def retrieve_many(
        self,
        sqls: list[str],
        top_k: int = 3,
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
        tel = self.telemetry
        started = time.perf_counter() if tel.enabled else 0.0
        id_lists = self._store.search_ids(sqls, top_k=top_k + 5)
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
        (doc_ids,) = self._store.search_ids([sql], top_k=top_k + 5)
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
        re-embedding happens — that is what makes warm start fast.  Of each
        example only its id, SQL and NL are read; the dataset, tables and
        quality that snapshots of earlier builds also hold are ignored.
        """
        self._store = VectorStore.from_state(state["vector_store"])
        self._examples = {
            entry["example_id"]: AnnotatedExample(
                example_id=entry["example_id"], sql=entry["sql"], nl=entry["nl"]
            )
            for entry in state["examples"]
        }
        self._skeletons = dict(state["skeletons"])
        self._counter = int(state["counter"])
        self.version = int(state["version"])
