"""An in-memory vector store with vectorized cosine top-k search.

BenchPress stores uploaded SQL logs and accumulated annotations server-side so
RAG has global access to all documents (paper step 2); this class plays that
role for the reproduction.

Vectors live in one contiguous ``(capacity, dimensions)`` numpy matrix that
grows geometrically as documents are appended, so a search is a single
matrix-vector product followed by ``argpartition`` top-k selection instead of
a Python loop over entries.  Removals tombstone their row and the matrix is
compacted lazily once tombstones dominate.

For multi-tenant service deployments :class:`ShardedVectorStore` layers
shard routing on top: documents are partitioned into per-shard matrices by
one designated metadata key (the archive shards by dataset/database), so a
search filtered on that key scores only its shard's rows — O(shard) instead
of O(global archive) — while unfiltered searches merge the per-shard top-k.
All shards share one :class:`EmbeddingModel`, which keeps the vectors — and
therefore the rankings — identical to an unsharded store over the same
documents (scores agree to floating-point rounding; BLAS products over
differently-partitioned matrices may differ in the last ULP).
"""

from __future__ import annotations

import base64
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import RetrievalError
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.retrieval.embedding import EmbeddingModel

#: Initial number of matrix rows; doubled whenever the store outgrows it.
_INITIAL_CAPACITY = 64
#: Fraction of dead rows that triggers lazy compaction on remove.
_COMPACT_THRESHOLD = 0.5


@dataclass
class VectorEntry:
    """One stored document."""

    doc_id: str
    text: str
    vector: np.ndarray
    metadata: dict[str, object] = field(default_factory=dict)


@dataclass
class SearchHit:
    """One search result."""

    doc_id: str
    text: str
    score: float
    metadata: dict[str, object] = field(default_factory=dict)


class VectorStore:
    """Embeds and indexes documents, supports filtered top-k cosine search."""

    #: Observability sink for search accounting.  Class-level no-op default;
    #: owners (e.g. :class:`~repro.retrieval.example_store.ExampleStore`)
    #: overwrite it per instance.  Shards inside a
    #: :class:`ShardedVectorStore` keep the no-op so routed searches are
    #: counted once, at the routing layer.
    telemetry: Telemetry = NULL_TELEMETRY

    def __init__(self, model: EmbeddingModel | None = None) -> None:
        self._model = model or EmbeddingModel()
        self._entries: dict[str, VectorEntry] = {}
        self._matrix = np.zeros((_INITIAL_CAPACITY, self._model.dimensions), dtype=np.float64)
        self._row_ids: list[str | None] = []  # row index -> doc_id (None = tombstone)
        self._row_of: dict[str, int] = {}  # doc_id -> row index
        self._dead_rows = 0
        self._alive = np.zeros(_INITIAL_CAPACITY, dtype=bool)
        # Lazily-registered boolean row masks, one per (key, value) pair seen
        # in a metadata_filter; kept current on add/remove so filtered search
        # stays a numpy AND instead of a Python loop over entries.
        self._meta_masks: dict[tuple[str, object], np.ndarray] = {}

    @property
    def model(self) -> EmbeddingModel:
        """The embedding model used by this store."""
        return self._model

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._entries

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add(self, doc_id: str, text: str, metadata: dict[str, object] | None = None) -> None:
        """Add (or replace) a document."""
        if not doc_id:
            raise RetrievalError("document id must be non-empty")
        self._model.observe(text)
        self._store_entry(doc_id, text, self._model.embed(text), metadata)

    def add_many(self, documents: list[tuple[str, str, dict[str, object]]]) -> None:
        """Add several ``(doc_id, text, metadata)`` documents.

        All texts are observed *before* any is embedded, so every vector in
        the batch is computed under the same (final) vocabulary instead of
        earlier documents seeing a smaller IDF table than later ones.
        """
        for doc_id, _, _ in documents:
            if not doc_id:
                raise RetrievalError("document id must be non-empty")
        for _, text, _ in documents:
            self._model.observe(text)
        for doc_id, text, metadata in documents:
            self._store_entry(doc_id, text, self._model.embed(text), metadata)

    def remove(self, doc_id: str) -> None:
        """Remove a document; unknown ids raise."""
        if doc_id not in self._entries:
            raise RetrievalError(f"unknown document id {doc_id!r}")
        del self._entries[doc_id]
        row = self._row_of.pop(doc_id)
        self._row_ids[row] = None
        self._alive[row] = False
        self._dead_rows += 1
        if (
            self._dead_rows >= 8
            and self._row_ids
            and self._dead_rows / len(self._row_ids) > _COMPACT_THRESHOLD
        ):
            self._compact()

    def get(self, doc_id: str) -> VectorEntry:
        """Fetch a stored document."""
        if doc_id not in self._entries:
            raise RetrievalError(f"unknown document id {doc_id!r}")
        return self._entries[doc_id]

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def search(
        self,
        query: str,
        top_k: int = 5,
        metadata_filter: dict[str, object] | None = None,
        exclude_ids: set[str] | None = None,
        min_score: float = 0.0,
    ) -> list[SearchHit]:
        """Return the ``top_k`` most similar documents to ``query``.

        ``metadata_filter`` keeps only documents whose metadata contains every
        given key/value pair; ``exclude_ids`` removes specific documents (used
        to avoid retrieving the query itself during leave-one-out evaluation).
        Ties are broken by ascending ``doc_id`` for reproducibility.
        """
        if top_k <= 0 or not self._entries:
            return []
        tel = self.telemetry
        started = time.perf_counter() if tel.enabled else 0.0
        query_vector = self._model.embed(query)
        scores = self._matrix[: len(self._row_ids)] @ query_vector
        hits = self._rows_to_hits(
            self._select_rows(scores, top_k, metadata_filter, exclude_ids, min_score), scores
        )
        if tel.enabled:
            tel.count("retrieval_searches_total", store="flat")
            tel.observe(
                "retrieval_search_seconds", time.perf_counter() - started, store="flat"
            )
        return hits

    def search_ids(
        self,
        query: str,
        top_k: int = 5,
        metadata_filter: dict[str, object] | None = None,
        exclude_ids: set[str] | None = None,
        min_score: float = 0.0,
    ) -> list[str]:
        """Like :meth:`search` but returns only the ranked document ids.

        Used on hot paths (e.g. batch-commit validation) that need the result
        ranking but not hit objects with copied metadata.
        """
        if top_k <= 0 or not self._entries:
            return []
        query_vector = self._model.embed(query)
        scores = self._matrix[: len(self._row_ids)] @ query_vector
        rows = self._select_rows(scores, top_k, metadata_filter, exclude_ids, min_score)
        return [self._row_ids[row] for row in rows]

    def search_batch(
        self,
        queries: list[str],
        top_k: int = 5,
        metadata_filter: dict[str, object] | None = None,
        exclude_ids: set[str] | None = None,
        min_score: float = 0.0,
    ) -> list[list[SearchHit]]:
        """Run :meth:`search` for several queries with one matrix product.

        Each query is embedded and scored with the *same* matrix-vector
        expression as :meth:`search`, so batched scores
        are bit-identical to scalar ones — batch schedulers rely on that for
        their sequential-parity guarantee.  Results align positionally with
        ``queries``.
        """
        if not queries:
            return []
        if top_k <= 0 or not self._entries:
            return [[] for _ in queries]
        tel = self.telemetry
        started = time.perf_counter() if tel.enabled else 0.0
        documents = self._matrix[: len(self._row_ids)]
        results: list[list[SearchHit]] = []
        for query in queries:
            scores = documents @ self._model.embed(query)
            results.append(
                self._rows_to_hits(
                    self._select_rows(scores, top_k, metadata_filter, exclude_ids, min_score),
                    scores,
                )
            )
        if tel.enabled:
            tel.count("retrieval_searches_total", len(queries), store="flat")
            tel.observe(
                "retrieval_search_seconds", time.perf_counter() - started, store="flat"
            )
        return results

    def all_ids(self) -> list[str]:
        """Ids of every stored document (insertion order)."""
        return list(self._entries.keys())

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _store_entry(
        self,
        doc_id: str,
        text: str,
        vector: np.ndarray,
        metadata: dict[str, object] | None,
    ) -> None:
        self._entries[doc_id] = VectorEntry(
            doc_id=doc_id,
            text=text,
            vector=vector,
            metadata=dict(metadata or {}),
        )
        row = self._row_of.get(doc_id)
        if row is None:
            row = len(self._row_ids)
            if row >= self._matrix.shape[0]:
                self._grow(row + 1)
            self._row_ids.append(doc_id)
            self._row_of[doc_id] = row
        self._matrix[row] = vector
        self._alive[row] = True
        metadata_view = self._entries[doc_id].metadata
        for (key, value), mask in self._meta_masks.items():
            mask[row] = metadata_view.get(key) == value

    def _grow(self, needed: int) -> None:
        capacity = max(_INITIAL_CAPACITY, self._matrix.shape[0])
        while capacity < needed:
            capacity *= 2
        grown = np.zeros((capacity, self._matrix.shape[1]), dtype=np.float64)
        grown[: self._matrix.shape[0]] = self._matrix
        self._matrix = grown
        self._alive = self._grow_mask(self._alive, capacity)
        for key in list(self._meta_masks):
            self._meta_masks[key] = self._grow_mask(self._meta_masks[key], capacity)

    @staticmethod
    def _grow_mask(mask: np.ndarray, capacity: int) -> np.ndarray:
        grown = np.zeros(capacity, dtype=bool)
        grown[: mask.shape[0]] = mask
        return grown

    def _compact(self) -> None:
        """Drop tombstoned rows, preserving the relative order of live ones."""
        live = [row for row, doc_id in enumerate(self._row_ids) if doc_id is not None]
        self._matrix[: len(live)] = self._matrix[live]
        self._row_ids = [self._row_ids[row] for row in live]
        self._row_of = {doc_id: row for row, doc_id in enumerate(self._row_ids)}
        self._dead_rows = 0
        self._alive[:] = False
        self._alive[: len(live)] = True
        for key, mask in list(self._meta_masks.items()):
            compacted = np.zeros(mask.shape[0], dtype=bool)
            compacted[: len(live)] = mask[live]
            self._meta_masks[key] = compacted

    def _mask_for(self, key: str, value: object) -> np.ndarray:
        """Boolean row mask for one metadata (key, value), built lazily."""
        try:
            mask = self._meta_masks.get((key, value))
        except TypeError:  # unhashable filter value: caller falls back to a scan
            return None  # type: ignore[return-value]
        if mask is None:
            mask = np.zeros(self._matrix.shape[0], dtype=bool)
            for doc_id, row in self._row_of.items():
                mask[row] = self._entries[doc_id].metadata.get(key) == value
            self._meta_masks[(key, value)] = mask
        return mask

    def _select_rows(
        self,
        scores: np.ndarray,
        top_k: int,
        metadata_filter: dict[str, object] | None,
        exclude_ids: set[str] | None,
        min_score: float,
    ) -> list[int]:
        """Rows of the top-k admissible documents, ranked by (-score, doc_id)."""
        row_count = len(scores)
        admissible = (scores >= min_score) & self._alive[:row_count]
        if metadata_filter:
            for key, value in metadata_filter.items():
                mask = self._mask_for(key, value)
                if mask is None:  # unhashable value: rare slow path
                    admissible &= np.array(
                        [
                            doc_id is not None
                            and self._entries[doc_id].metadata.get(key) == value
                            for doc_id in self._row_ids
                        ],
                        dtype=bool,
                    )
                else:
                    admissible &= mask[:row_count]
        candidate_rows = np.flatnonzero(admissible)
        if exclude_ids:
            candidate_rows = candidate_rows[
                [self._row_ids[row] not in exclude_ids for row in candidate_rows]
            ]
        if candidate_rows.size == 0:
            return []

        # Oversample the partition so doc_id tie-breaking stays exact even
        # when equal scores straddle the top-k boundary.
        if candidate_rows.size > top_k:
            candidate_scores = scores[candidate_rows]
            cut = np.argpartition(-candidate_scores, top_k - 1)[:top_k]
            boundary = candidate_scores[cut].min()
            keep = candidate_scores >= boundary
            candidate_rows = candidate_rows[keep]

        rows = sorted(
            (int(row) for row in candidate_rows),
            key=lambda row: (-scores[row], self._row_ids[row]),
        )
        return rows[:top_k]

    def _rows_to_hits(self, rows: list[int], scores: np.ndarray) -> list[SearchHit]:
        hits: list[SearchHit] = []
        for row in rows:
            entry = self._entries[self._row_ids[row]]
            hits.append(
                SearchHit(
                    doc_id=entry.doc_id,
                    text=entry.text,
                    score=float(scores[row]),
                    metadata=dict(entry.metadata),
                )
            )
        return hits


#: Sentinel distinguishing "doc not present" from a ``None`` shard key.
_ABSENT = object()


class ShardedVectorStore:
    """Shard-routing layer over per-shard :class:`VectorStore` matrices.

    Documents are routed to shards by the value of one metadata key
    (``shard_key``, by default ``"dataset"``); each shard is an ordinary
    :class:`VectorStore`, and every shard shares one :class:`EmbeddingModel`
    so vectors and scores are exactly what the unsharded store would have
    produced for the same add sequence.

    * A search whose ``metadata_filter`` pins the shard key touches only that
      shard — retrieval cost is O(shard), independent of how many tenants'
      archives the process holds.
    * A search without the shard key fans out and merges the per-shard top-k
      by ``(-score, doc_id)``, reproducing the global ranking bit-for-bit
      (every global winner is necessarily in its own shard's top-k).

    The class mirrors the :class:`VectorStore` API so stores can be swapped
    freely.
    """

    #: Observability sink; searches are counted here (per routed call), never
    #: inside the per-shard stores, so a fan-out still counts as one search.
    telemetry: Telemetry = NULL_TELEMETRY

    def __init__(self, model: EmbeddingModel | None = None, shard_key: str = "dataset") -> None:
        self._model = model or EmbeddingModel()
        self.shard_key = shard_key
        self._shards: dict[object, VectorStore] = {}
        self._shard_of: dict[str, object] = {}  # doc_id -> shard value, insertion order

    @property
    def model(self) -> EmbeddingModel:
        """The embedding model shared by every shard."""
        return self._model

    def __len__(self) -> int:
        return len(self._shard_of)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._shard_of

    @property
    def shard_count(self) -> int:
        """Number of non-empty shards."""
        return len(self._shards)

    def shard_sizes(self) -> dict[object, int]:
        """Document count per shard value (tenancy introspection)."""
        return {value: len(shard) for value, shard in self._shards.items()}

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add(self, doc_id: str, text: str, metadata: dict[str, object] | None = None) -> None:
        """Add (or replace) a document, routing it to its metadata's shard.

        The shard key is validated before the model observes the text, so a
        raising add leaves the store and its model unchanged.
        """
        if not doc_id:
            raise RetrievalError("document id must be non-empty")
        self._shard_value(metadata)
        self._model.observe(text)
        self._route_entry(doc_id, text, self._model.embed(text), metadata)

    def add_many(self, documents: list[tuple[str, str, dict[str, object]]]) -> None:
        """Add several documents, observing every text before embedding any.

        Same final-vocabulary guarantee as :meth:`VectorStore.add_many`.
        """
        for doc_id, _, _ in documents:
            if not doc_id:
                raise RetrievalError("document id must be non-empty")
        for _, text, _ in documents:
            self._model.observe(text)
        for doc_id, text, metadata in documents:
            self._route_entry(doc_id, text, self._model.embed(text), metadata)

    def remove(self, doc_id: str) -> None:
        """Remove a document; unknown ids raise.  Empty shards are dropped."""
        value = self._shard_of.get(doc_id, _ABSENT)
        if value is _ABSENT:
            raise RetrievalError(f"unknown document id {doc_id!r}")
        shard = self._shards[value]
        shard.remove(doc_id)
        del self._shard_of[doc_id]
        if not len(shard):
            del self._shards[value]

    def get(self, doc_id: str) -> VectorEntry:
        """Fetch a stored document."""
        value = self._shard_of.get(doc_id, _ABSENT)
        if value is _ABSENT:
            raise RetrievalError(f"unknown document id {doc_id!r}")
        return self._shards[value].get(doc_id)

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def search(
        self,
        query: str,
        top_k: int = 5,
        metadata_filter: dict[str, object] | None = None,
        exclude_ids: set[str] | None = None,
        min_score: float = 0.0,
    ) -> list[SearchHit]:
        """Top-k cosine search, routed to one shard when the filter allows."""
        shards = self._route(metadata_filter)
        if top_k <= 0 or not shards:
            return []
        tel = self.telemetry
        started = time.perf_counter() if tel.enabled else 0.0
        if len(shards) == 1:
            hits = shards[0].search(query, top_k, metadata_filter, exclude_ids, min_score)
        else:
            merged: list[SearchHit] = []
            for shard in shards:
                merged.extend(
                    shard.search(query, top_k, metadata_filter, exclude_ids, min_score)
                )
            merged.sort(key=lambda hit: (-hit.score, hit.doc_id))
            hits = merged[:top_k]
        if tel.enabled:
            tel.count(
                "retrieval_searches_total", store="sharded", shards=len(shards)
            )
            tel.observe(
                "retrieval_search_seconds",
                time.perf_counter() - started,
                store="sharded",
            )
        return hits

    def search_ids(
        self,
        query: str,
        top_k: int = 5,
        metadata_filter: dict[str, object] | None = None,
        exclude_ids: set[str] | None = None,
        min_score: float = 0.0,
    ) -> list[str]:
        """Ranked document ids only (hot path for batch-commit validation)."""
        shards = self._route(metadata_filter)
        if top_k <= 0 or not shards:
            return []
        if len(shards) == 1:
            return shards[0].search_ids(query, top_k, metadata_filter, exclude_ids, min_score)
        return [
            hit.doc_id
            for hit in self.search(query, top_k, metadata_filter, exclude_ids, min_score)
        ]

    def search_batch(
        self,
        queries: list[str],
        top_k: int = 5,
        metadata_filter: dict[str, object] | None = None,
        exclude_ids: set[str] | None = None,
        min_score: float = 0.0,
    ) -> list[list[SearchHit]]:
        """Batched :meth:`search`, scoring each query against its shard(s)."""
        if not queries:
            return []
        shards = self._route(metadata_filter)
        if top_k <= 0 or not shards:
            return [[] for _ in queries]
        tel = self.telemetry
        started = time.perf_counter() if tel.enabled else 0.0
        if len(shards) == 1:
            results = shards[0].search_batch(
                queries, top_k, metadata_filter, exclude_ids, min_score
            )
        else:
            per_shard = [
                shard.search_batch(queries, top_k, metadata_filter, exclude_ids, min_score)
                for shard in shards
            ]
            results = []
            for index in range(len(queries)):
                merged: list[SearchHit] = []
                for shard_hits in per_shard:
                    merged.extend(shard_hits[index])
                merged.sort(key=lambda hit: (-hit.score, hit.doc_id))
                results.append(merged[:top_k])
        if tel.enabled:
            tel.count(
                "retrieval_searches_total",
                len(queries),
                store="sharded",
                shards=len(shards),
            )
            tel.observe(
                "retrieval_search_seconds",
                time.perf_counter() - started,
                store="sharded",
            )
        return results

    def all_ids(self) -> list[str]:
        """Ids of every stored document (global insertion order)."""
        return list(self._shard_of)

    # ------------------------------------------------------------------
    # durability (snapshot) support
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe semantic state: shared model + entries in insertion order.

        The entry list is flat (not nested per shard): routing is a pure
        function of each entry's metadata.  The stored vectors travel as one
        base64 little-endian float64 matrix, row ``i`` belonging to entry
        ``i``, instead of one JSON float list per entry.
        """
        entries = []
        vectors = np.empty((len(self._shard_of), self._model.dimensions), dtype="<f8")
        for row, (doc_id, value) in enumerate(self._shard_of.items()):
            entry = self._shards[value].get(doc_id)
            entries.append(
                {"doc_id": entry.doc_id, "text": entry.text, "metadata": dict(entry.metadata)}
            )
            vectors[row] = entry.vector
        return {
            "model": self._model.state_dict(),
            "shard_key": self.shard_key,
            "entries": entries,
            "vectors": base64.b64encode(vectors.tobytes()).decode("ascii"),
        }

    @classmethod
    def from_state(cls, state: dict) -> "ShardedVectorStore":
        """Rebuild a sharded store from :meth:`state_dict` output.

        Each entry is routed by its metadata and gets its stored vector
        verbatim — a read-only row of the one decoded matrix — so searches
        afterwards score bit-identically to the snapshotted store.
        """
        store = cls(EmbeddingModel.from_state(state["model"]), shard_key=state["shard_key"])
        entries = state["entries"]
        vectors = np.frombuffer(base64.b64decode(state["vectors"]), dtype="<f8").reshape(
            len(entries), store._model.dimensions
        )
        for entry, vector in zip(entries, vectors):
            # No observe(): document frequencies were restored with the model,
            # and these vectors are historical.
            store._route_entry(entry["doc_id"], entry["text"], vector, entry["metadata"])
        return store

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _shard_value(self, metadata: dict[str, object] | None) -> object:
        value = (metadata or {}).get(self.shard_key)
        try:
            hash(value)
        except TypeError:
            raise RetrievalError(
                f"shard key {self.shard_key!r} value {value!r} is not hashable"
            ) from None
        return value

    def _route_entry(
        self,
        doc_id: str,
        text: str,
        vector: np.ndarray,
        metadata: dict[str, object] | None,
    ) -> None:
        value = self._shard_value(metadata)
        previous = self._shard_of.get(doc_id, _ABSENT)
        if previous is not _ABSENT and previous != value:
            # Replacement that changes shard: drop the old copy first.
            old_shard = self._shards[previous]
            old_shard.remove(doc_id)
            if not len(old_shard):
                del self._shards[previous]
        shard = self._shards.get(value)
        if shard is None:
            shard = VectorStore(self._model)
            self._shards[value] = shard
        shard._store_entry(doc_id, text, vector, metadata)
        self._shard_of[doc_id] = value

    def _route(self, metadata_filter: dict[str, object] | None) -> list[VectorStore]:
        """Shards a filtered search must touch (one when the key is pinned)."""
        if metadata_filter and self.shard_key in metadata_filter:
            value = metadata_filter[self.shard_key]
            try:
                shard = self._shards.get(value)
            except TypeError:  # unhashable filter value matches nothing routable
                return list(self._shards.values())
            return [shard] if shard is not None else []
        return list(self._shards.values())
