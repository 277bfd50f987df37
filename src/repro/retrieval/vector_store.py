"""An in-memory vector store with vectorized cosine top-k search.

BenchPress stores uploaded SQL logs and accumulated annotations server-side so
RAG has global access to all documents (paper step 2); this class plays that
role for the reproduction.  Each project's example archive owns one store.

Vectors live in one contiguous ``(capacity, dimensions)`` numpy matrix that
grows geometrically as documents are appended; a document's matrix row is the
only copy of its vector.  A search is one matrix-vector product per query
followed by ``argpartition`` top-k selection instead of a Python loop over
entries.  The store keeps no per-document metadata and takes no filter: a
project's archive holds only that project's examples, so every row is
admissible.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass

import numpy as np

from repro.errors import RetrievalError
from repro.retrieval.embedding import EmbeddingModel

#: Initial number of matrix rows; doubled whenever the store outgrows it.
_INITIAL_CAPACITY = 64


@dataclass
class SearchHit:
    """One search result."""

    doc_id: str
    score: float


class VectorStore:
    """Embeds and indexes documents, supports top-k cosine search."""

    def __init__(self, model: EmbeddingModel | None = None) -> None:
        self._model = model or EmbeddingModel()
        # Row index -> doc id, in insertion order.  A document's text is the
        # caller's; its vector is its matrix row.
        self._ids: list[str] = []
        self._row_of: dict[str, int] = {}  # doc_id -> row index
        self._matrix = np.zeros((_INITIAL_CAPACITY, self._model.dimensions), dtype=np.float64)

    @property
    def model(self) -> EmbeddingModel:
        """The embedding model used by this store."""
        return self._model

    def __len__(self) -> int:
        return len(self._ids)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add(
        self,
        doc_id: str,
        text: str,
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
        self._store_entry(doc_id, self._model.embed(text))

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def search_ids(self, queries: list[str], top_k: int = 5) -> list[list[str]]:
        """Like :meth:`search_batch`, but only each query's ranked ids.

        Used on the hot paths (wave retrieval, batch-commit validation) that
        need the result ranking but not hit objects with scores.
        """
        if top_k <= 0 or not self._ids:
            return [[] for _ in queries]
        ranked = []
        for query in queries:
            rows, _ = self._top_rows(query, top_k)
            ranked.append([self._ids[row] for row in rows])
        return ranked

    def search_batch(self, queries: list[str], top_k: int = 5) -> list[list[SearchHit]]:
        """The ``top_k`` most similar documents to each of ``queries``.

        Documents scoring below zero are never returned.  Ties are broken by
        ascending ``doc_id`` for reproducibility.  Results align positionally
        with ``queries``; a one-query batch is the single-query search, so
        wave and sequential retrieval score alike by construction.
        """
        if top_k <= 0 or not self._ids:
            return [[] for _ in queries]
        results = []
        for query in queries:
            rows, scores = self._top_rows(query, top_k)
            results.append([SearchHit(self._ids[row], float(scores[row])) for row in rows])
        return results

    # ------------------------------------------------------------------
    # durability (snapshot) support
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe semantic state: model + entries in insertion order.

        The stored vectors travel as one base64 little-endian float64 matrix,
        row ``i`` belonging to entry ``i``, instead of one JSON float list per
        entry.  An entry is its doc id alone: the store keeps no text and
        no metadata.
        """
        vectors = self._matrix[: len(self._ids)].astype("<f8")
        return {
            "model": self._model.state_dict(),
            "entries": [{"doc_id": doc_id} for doc_id in self._ids],
            "vectors": base64.b64encode(vectors.tobytes()).decode("ascii"),
        }

    @classmethod
    def from_state(cls, state: dict) -> "VectorStore":
        """Rebuild a store from :meth:`state_dict` output.

        The stored vectors are copied into the matrix in one slice, so
        searches afterwards score bit-identically to the snapshotted store.
        No document is observed: document frequencies were restored with the
        model, and these vectors are historical.
        """
        store = cls(EmbeddingModel.from_state(state["model"]))
        ids = [entry["doc_id"] for entry in state["entries"]]
        vectors = np.frombuffer(base64.b64decode(state["vectors"]), dtype="<f8").reshape(
            len(ids), store._model.dimensions
        )
        capacity = store._matrix.shape[0]
        while capacity < len(ids):
            capacity *= 2
        if capacity > store._matrix.shape[0]:
            store._matrix = np.zeros((capacity, store._model.dimensions), dtype=np.float64)
        store._matrix[: len(ids)] = vectors
        store._ids = ids
        store._row_of = {doc_id: row for row, doc_id in enumerate(ids)}
        if len(store._row_of) != len(ids):
            raise RetrievalError("snapshot entries repeat a document id")
        return store

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _store_entry(self, doc_id: str, vector: np.ndarray) -> None:
        row = self._row_of.get(doc_id)
        if row is None:
            row = len(self._ids)
            if row >= self._matrix.shape[0]:
                self._grow()
            self._ids.append(doc_id)
            self._row_of[doc_id] = row
        self._matrix[row] = vector

    def _grow(self) -> None:
        capacity = 2 * self._matrix.shape[0]
        grown = np.zeros((capacity, self._matrix.shape[1]), dtype=np.float64)
        grown[: self._matrix.shape[0]] = self._matrix
        self._matrix = grown

    def _top_rows(self, query: str, top_k: int) -> tuple[list[int], np.ndarray]:
        """Rows of the top-k documents scoring at least zero, ranked by
        (-score, doc_id), with every row's score against ``query``."""
        scores = self._matrix[: len(self._ids)] @ self._model.embed(query)
        candidate_rows = np.flatnonzero(scores >= 0.0)

        # Oversample the partition so doc_id tie-breaking stays exact even
        # when equal scores straddle the top-k boundary.
        if candidate_rows.size > top_k:
            candidate_scores = scores[candidate_rows]
            cut = np.argpartition(-candidate_scores, top_k - 1)[:top_k]
            boundary = candidate_scores[cut].min()
            candidate_rows = candidate_rows[candidate_scores >= boundary]

        rows = sorted(
            (int(row) for row in candidate_rows),
            key=lambda row: (-scores[row], self._ids[row]),
        )
        return rows[:top_k], scores
