"""Retrieval-augmented generation substrate: embeddings, vector store, examples."""

from repro.retrieval.embedding import EmbeddingModel, cosine_similarity
from repro.retrieval.example_store import AnnotatedExample, ExampleStore
from repro.retrieval.retriever import ContextRetriever, RetrievedContext
from repro.retrieval.text import (
    STOPWORDS,
    character_ngrams,
    normalize_whitespace,
    sentence_case,
    tokenize_text,
)
from repro.retrieval.vector_store import (
    SearchHit,
    VectorStore,
)

__all__ = [
    "AnnotatedExample",
    "ContextRetriever",
    "EmbeddingModel",
    "ExampleStore",
    "RetrievedContext",
    "STOPWORDS",
    "SearchHit",
    "VectorStore",
    "character_ngrams",
    "cosine_similarity",
    "normalize_whitespace",
    "sentence_case",
    "tokenize_text",
]
