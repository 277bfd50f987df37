"""An in-memory vector store with vectorized cosine top-k search.

BenchPress stores uploaded SQL logs and accumulated annotations server-side so
RAG has global access to all documents (paper step 2); this class plays that
role for the reproduction.  Each project's example archive owns one store.

Vectors live in one contiguous ``(capacity, dimensions)`` numpy matrix that
grows geometrically as documents are appended; a document's matrix row is the
only copy of its vector.  A search is one matrix-vector product per query
followed by ``argpartition`` top-k selection instead of a Python loop over
entries, and a metadata filter is a numpy AND with one boolean row mask per
filtered ``(key, value)`` pair.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field

import numpy as np

from repro.errors import RetrievalError
from repro.retrieval.embedding import EmbeddingModel

#: Initial number of matrix rows; doubled whenever the store outgrows it.
_INITIAL_CAPACITY = 64


@dataclass
class VectorEntry:
    """One stored document (its text is the caller's); its vector is the store's matrix row."""

    doc_id: str
    metadata: dict[str, object] = field(default_factory=dict)


@dataclass
class SearchHit:
    """One search result."""

    doc_id: str
    score: float
    metadata: dict[str, object] = field(default_factory=dict)


class VectorStore:
    """Embeds and indexes documents, supports filtered top-k cosine search."""

    def __init__(self, model: EmbeddingModel | None = None) -> None:
        self._model = model or EmbeddingModel()
        self._rows: list[VectorEntry] = []  # row index -> entry, insertion order
        self._row_of: dict[str, int] = {}  # doc_id -> row index
        self._matrix = np.zeros((_INITIAL_CAPACITY, self._model.dimensions), dtype=np.float64)
        # Lazily-registered boolean row masks, one per (key, value) pair seen
        # in a metadata_filter; kept current on add so filtered search stays a
        # numpy AND instead of a Python loop over entries.
        self._meta_masks: dict[tuple[str, object], np.ndarray] = {}

    @property
    def model(self) -> EmbeddingModel:
        """The embedding model used by this store."""
        return self._model

    def __len__(self) -> int:
        return len(self._rows)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add(
        self,
        doc_id: str,
        text: str,
        metadata: dict[str, object] | None = None,
        profile: list[str] | None = None,
    ) -> None:
        """Add (or replace, keeping its row) a document.

        ``profile`` may supply the text's feature profile in its journal form
        (:meth:`EmbeddingModel.profile_state`), so the model need not
        tokenise the text.
        """
        if not doc_id:
            raise RetrievalError("document id must be non-empty")
        if profile is not None:
            self._model.prime(text, profile)
        self._model.observe(text)
        self._store_entry(VectorEntry(doc_id, dict(metadata or {})), self._model.embed(text))

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def search_ids(
        self,
        queries: list[str],
        top_k: int = 5,
        metadata_filter: dict[str, object] | None = None,
    ) -> list[list[str]]:
        """Like :meth:`search_batch`, but only each query's ranked ids.

        Used on the hot paths (wave retrieval, batch-commit validation) that
        need the result ranking but not hit objects with scores and copied
        metadata.
        """
        if top_k <= 0 or not self._rows:
            return [[] for _ in queries]
        ranked = []
        for query in queries:
            rows, _ = self._top_rows(query, top_k, metadata_filter)
            ranked.append([self._rows[row].doc_id for row in rows])
        return ranked

    def search_batch(
        self,
        queries: list[str],
        top_k: int = 5,
        metadata_filter: dict[str, object] | None = None,
    ) -> list[list[SearchHit]]:
        """The ``top_k`` most similar documents to each of ``queries``.

        ``metadata_filter`` keeps only documents whose metadata contains every
        given key/value pair (values must be hashable); documents scoring
        below zero are never returned.  Ties are broken by ascending
        ``doc_id`` for reproducibility.  Results align positionally with
        ``queries``; a one-query batch is the single-query search, so wave
        and sequential retrieval score alike by construction.
        """
        if top_k <= 0 or not self._rows:
            return [[] for _ in queries]
        results = []
        for query in queries:
            rows, scores = self._top_rows(query, top_k, metadata_filter)
            hits = []
            for row in rows:
                entry = self._rows[row]
                hits.append(SearchHit(entry.doc_id, float(scores[row]), dict(entry.metadata)))
            results.append(hits)
        return results

    # ------------------------------------------------------------------
    # durability (snapshot) support
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe semantic state: model + entries in insertion order.

        The stored vectors travel as one base64 little-endian float64 matrix,
        row ``i`` belonging to entry ``i``, instead of one JSON float list per
        entry.  Entries carry no text: the store keeps none.
        """
        vectors = self._matrix[: len(self._rows)].astype("<f8")
        return {
            "model": self._model.state_dict(),
            "entries": [
                {"doc_id": entry.doc_id, "metadata": dict(entry.metadata)}
                for entry in self._rows
            ],
            "vectors": base64.b64encode(vectors.tobytes()).decode("ascii"),
        }

    @classmethod
    def from_state(cls, state: dict) -> "VectorStore":
        """Rebuild a store from :meth:`state_dict` output.

        Each entry gets its stored vector verbatim, so searches afterwards
        score bit-identically to the snapshotted store.  Snapshots of the
        earlier dataset-sharded index also name their shard key, and earlier
        snapshots give each entry its text; both are ignored.
        """
        store = cls(EmbeddingModel.from_state(state["model"]))
        entries = state["entries"]
        vectors = np.frombuffer(base64.b64decode(state["vectors"]), dtype="<f8").reshape(
            len(entries), store._model.dimensions
        )
        for entry, vector in zip(entries, vectors):
            # No observe(): document frequencies were restored with the model,
            # and these vectors are historical.
            store._store_entry(VectorEntry(entry["doc_id"], dict(entry["metadata"])), vector)
        return store

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _store_entry(self, entry: VectorEntry, vector: np.ndarray) -> None:
        row = self._row_of.get(entry.doc_id)
        if row is None:
            row = len(self._rows)
            if row >= self._matrix.shape[0]:
                self._grow()
            self._rows.append(entry)
            self._row_of[entry.doc_id] = row
        else:
            self._rows[row] = entry
        self._matrix[row] = vector
        for (key, value), mask in self._meta_masks.items():
            mask[row] = entry.metadata.get(key) == value

    def _grow(self) -> None:
        capacity = 2 * self._matrix.shape[0]
        grown = np.zeros((capacity, self._matrix.shape[1]), dtype=np.float64)
        grown[: self._matrix.shape[0]] = self._matrix
        self._matrix = grown
        for key, mask in self._meta_masks.items():
            self._meta_masks[key] = np.zeros(capacity, dtype=bool)
            self._meta_masks[key][: mask.shape[0]] = mask

    def _mask_for(self, key: str, value: object) -> np.ndarray:
        """Boolean row mask for one metadata (key, value), built lazily."""
        mask = self._meta_masks.get((key, value))
        if mask is None:
            mask = np.zeros(self._matrix.shape[0], dtype=bool)
            for row, entry in enumerate(self._rows):
                mask[row] = entry.metadata.get(key) == value
            self._meta_masks[(key, value)] = mask
        return mask

    def _top_rows(
        self,
        query: str,
        top_k: int,
        metadata_filter: dict[str, object] | None,
    ) -> tuple[list[int], np.ndarray]:
        """Rows of the top-k admissible documents, ranked by (-score, doc_id),
        with every row's score against ``query``."""
        row_count = len(self._rows)
        scores = self._matrix[:row_count] @ self._model.embed(query)
        admissible = scores >= 0.0
        for key, value in (metadata_filter or {}).items():
            admissible &= self._mask_for(key, value)[:row_count]
        candidate_rows = np.flatnonzero(admissible)

        # Oversample the partition so doc_id tie-breaking stays exact even
        # when equal scores straddle the top-k boundary.
        if candidate_rows.size > top_k:
            candidate_scores = scores[candidate_rows]
            cut = np.argpartition(-candidate_scores, top_k - 1)[:top_k]
            boundary = candidate_scores[cut].min()
            candidate_rows = candidate_rows[candidate_scores >= boundary]

        rows = sorted(
            (int(row) for row in candidate_rows),
            key=lambda row: (-scores[row], self._rows[row].doc_id),
        )
        return rows[:top_k], scores
