"""Deterministic text embeddings (Sentence-BERT stand-in).

The paper retrieves semantically similar SQL queries and annotations using
dense Sentence-BERT embeddings.  Offline we substitute a deterministic
hashed bag-of-features embedding:

* word tokens (identifier-aware) and character trigrams are hashed into a
  fixed-dimensional vector ("feature hashing"),
* features are weighted by an inverse-document-frequency table that the
  :class:`EmbeddingModel` updates as documents are added,
* vectors are L2-normalised so cosine similarity is a dot product.

This preserves exactly the property RAG needs — lexically/structurally
similar SQL or NL ends up close together — while being dependency-free and
fully reproducible.

The implementation is layered for throughput: per-text tokenisation/hashing
is cached as an IDF-independent *feature profile* (it survives vocabulary
growth), and document frequencies live in a numpy array indexed by interned
feature id (so IDF weighting is vectorized).  Finished vectors are not
cached: every :meth:`EmbeddingModel.observe` shifts the IDF table, and
annotation commits observe continuously.  A profile is built in one pass per
text: trigrams are counted as packed integer codes, only distinct features are looked up in the one
feature table, and each feature's hashed index and sign are gathered from
id-indexed arrays.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.retrieval.cache import LruDict
from repro.retrieval.text import normalize_whitespace, tokenize_text

#: ``1 + log(count)`` for counts below the table's size.  The weights come
#: from ``math.log``, as do those of larger counts; ``np.log`` may differ
#: from it in the last place.
_COUNT_WEIGHTS = np.array([0.0] + [1.0 + math.log(count) for count in range(1, 64)])


def _stable_hash(feature: str) -> int:
    """Stable (process-independent) hash of a feature string."""
    digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _count_weights(counts: np.ndarray) -> np.ndarray:
    """``1 + log(count)`` per count, exactly as ``math.log`` computes it."""
    if counts.size == 0 or counts.max() < _COUNT_WEIGHTS.size:
        return _COUNT_WEIGHTS[counts]
    return np.array([1.0 + math.log(count) for count in counts.tolist()])


def _trigram_features(text: str) -> tuple[list[str], np.ndarray]:
    """Distinct ``"g:"`` trigram features of ``text`` in first-seen order, with counts.

    The grams are those of :func:`~repro.retrieval.text.character_ngrams`
    (``n=3``).  Each trigram's three code points (at most 21 bits each) are
    packed into one integer key, so counting runs in numpy and only the
    distinct grams become strings.
    """
    compact = normalize_whitespace(text.lower())
    if len(compact) < 3:
        features = ["g:" + compact] if compact else []
        return features, np.ones(len(features), dtype=np.int64)
    # surrogatepass keeps a lone surrogate countable; hashing its feature
    # string then raises the UnicodeEncodeError the per-feature loop raised.
    codes = np.frombuffer(
        compact.encode("utf-32-le", "surrogatepass"), dtype=np.uint32
    ).astype(np.int64)
    keys = (codes[:-2] << 42) | (codes[1:-1] << 21) | codes[2:]
    # np.unique(keys, return_index=True, return_counts=True) without its
    # stable sort: a key's first position is the minimum over its group.
    order = keys.argsort()
    sorted_keys = keys[order]
    bounds = np.empty(keys.size + 1, dtype=np.int64)
    bounds[0] = bounds[-1] = 1
    np.subtract(sorted_keys[1:], sorted_keys[:-1], out=bounds[1:-1])
    bounds = np.flatnonzero(bounds)  # each group's start, then keys.size
    first = np.minimum.reduceat(order, bounds[:-1])
    counts = bounds[1:] - bounds[:-1]
    seen = first.argsort()  # first positions are distinct, so no ties
    return ["g:" + compact[start : start + 3] for start in first[seen].tolist()], counts[seen]


@dataclass
class _FeatureProfile:
    """IDF-independent part of a text's embedding.

    Tokenisation, n-gram extraction and feature hashing depend only on the
    text, so they are computed once and reused even as the IDF table drifts;
    only the (vectorized) IDF weighting is applied per embed.
    """

    feature_ids: np.ndarray  # interned id per unique feature, first-seen order
    indices: np.ndarray  # hashed vector index per feature
    signed_counts: np.ndarray  # sign * (1 + log(count)) per feature


@dataclass
class EmbeddingModel:
    """Hashed bag-of-features embedder with incremental IDF weighting.

    Attributes:
        dimensions: Size of the output vectors.
        use_ngrams: Whether to add character trigram features (helps match
            abbreviations such as ``acad_term`` vs "academic term").
        cache_size: Capacity of the feature-profile LRU cache.
    """

    dimensions: int = 256
    use_ngrams: bool = True
    cache_size: int = 2048
    _document_count: int = 0
    # feature string -> id; hashing runs once per unique feature for the
    # lifetime of the model.  Ids index the three arrays below, which grow
    # together: document frequency, hashed vector index and sign.
    _feature_ids: dict[str, int] = field(default_factory=dict, repr=False)
    _frequencies: np.ndarray = field(
        default_factory=lambda: np.zeros(1024, dtype=np.float64), repr=False
    )
    _indices: np.ndarray = field(
        default_factory=lambda: np.zeros(1024, dtype=np.intp), repr=False
    )
    _signs: np.ndarray = field(
        default_factory=lambda: np.zeros(1024, dtype=np.float64), repr=False
    )
    _profiles: LruDict[str, _FeatureProfile] = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self._profiles = LruDict(self.cache_size)

    def observe(self, text: str) -> None:
        """Update document-frequency statistics with one document.

        IDF weights shift with every observation; cached feature profiles
        stay valid (they are IDF-independent).  Building the profile is the
        only step that can raise (a lone surrogate cannot be hashed), and it
        runs before any statistic changes.
        """
        profile = self._profile(text)
        self._document_count += 1
        # Ids are unique within a profile, so a fancy-indexed add is exact.
        self._frequencies[profile.feature_ids] += 1.0

    def embed(self, text: str) -> np.ndarray:
        """Embed a text into a normalised dense vector under the current IDF table.

        The returned array is marked read-only — callers needing a private
        copy should ``.copy()`` it.
        """
        vector = self._vector(text)
        vector.setflags(write=False)
        return vector

    # ------------------------------------------------------------------
    # durability (snapshot) support
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe semantic state: IDF table + vocabulary, no caches.

        Feature *ids* are an internal allocation detail: features get
        interned lazily whenever a query is merely embedded, yet only
        :meth:`observe` gives them a document frequency.  So the canonical
        state is the document-bearing features in sorted order, each with its
        frequency and its feature hash as one signed int ``(index + 1) *
        sign`` — two models that saw different query traffic but the same
        documents serialise identically.  The hashes are a deterministic
        function of the feature string; storing them spares a restore from
        re-hashing the whole vocabulary.
        """
        frequencies = self._frequencies
        entries = sorted(
            (feature, feature_id)
            for feature, feature_id in self._feature_ids.items()
            if frequencies[feature_id] > 0
        )
        ids = np.array([feature_id for _, feature_id in entries], dtype=np.intp)
        hashes = (self._indices[ids] + 1) * self._signs[ids].astype(np.int64)
        return {
            "dimensions": self.dimensions,
            "use_ngrams": self.use_ngrams,
            "document_count": self._document_count,
            "features": [feature for feature, _ in entries],
            "frequencies": frequencies[ids].tolist(),
            "hashes": hashes.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "EmbeddingModel":
        """Rebuild a model whose future embeddings match the snapshotted one.

        Index and sign come from the stored hashes; nothing is re-hashed.
        """
        model = cls(
            dimensions=int(state["dimensions"]), use_ngrams=bool(state["use_ngrams"])
        )
        model._document_count = int(state["document_count"])
        features = state["features"]
        hashes = np.asarray(state["hashes"], dtype=np.int64)
        magnitudes = np.abs(hashes)
        if hashes.shape != (len(features),) or not np.all(
            (magnitudes >= 1) & (magnitudes <= model.dimensions)
        ):
            raise ValueError("feature hashes do not match the vocabulary and dimensions")
        model._append(features, magnitudes - 1, np.sign(hashes))
        frequencies = state["frequencies"]
        model._frequencies[: len(frequencies)] = frequencies
        return model

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _profile(self, text: str) -> _FeatureProfile:
        """Cached tokenisation + hashing for one text (IDF-independent).

        Features are the distinct word tokens, then the distinct trigrams,
        each in first-seen order.  Nothing is interned unless every new
        feature hashes, so a raising text leaves the model unchanged.
        """
        profile = self._profiles.get(text)
        if profile is not None:
            return profile
        word_counts = Counter(tokenize_text(text))
        features = ["w:" + token for token in word_counts]
        counts = np.fromiter(word_counts.values(), dtype=np.int64, count=len(word_counts))
        if self.use_ngrams:
            grams, gram_counts = _trigram_features(text)
            features += grams
            counts = np.concatenate((counts, gram_counts))
        ids = list(map(self._feature_ids.get, features))
        if None in ids:
            new = [position for position, feature_id in enumerate(ids) if feature_id is None]
            start = self._intern([features[position] for position in new])
            for offset, position in enumerate(new):
                ids[position] = start + offset
        feature_ids = np.array(ids, dtype=np.intp)
        profile = _FeatureProfile(
            feature_ids=feature_ids,
            indices=self._indices[feature_ids],
            signed_counts=self._signs[feature_ids] * _count_weights(counts),
        )
        self._profiles.put(text, profile)
        return profile

    def _intern(self, features: list[str]) -> int:
        """Give distinct, not yet interned features the next ids; returns the first.

        Every feature is hashed before the table or arrays change, so a
        feature that cannot be hashed raises with the model untouched.
        """
        hashes = [_stable_hash(feature) for feature in features]
        return self._append(
            features,
            [hashed % self.dimensions for hashed in hashes],
            [1.0 if (hashed >> 32) % 2 == 0 else -1.0 for hashed in hashes],
        )

    def _append(self, features: list[str], indices, signs) -> int:
        """Intern ``features`` with their hashed indices and signs; returns the first id."""
        start = len(self._feature_ids)
        end = start + len(features)
        capacity = self._frequencies.shape[0]
        if end > capacity:
            while capacity < end:
                capacity *= 2
            self._frequencies = _grown(self._frequencies, capacity)
            self._indices = _grown(self._indices, capacity)
            self._signs = _grown(self._signs, capacity)
        self._feature_ids.update(zip(features, range(start, end)))
        self._indices[start:end] = indices
        self._signs[start:end] = signs
        return start

    def _vector(self, text: str) -> np.ndarray:
        vector = np.zeros(self.dimensions, dtype=np.float64)
        profile = self._profile(text)
        if profile.feature_ids.size == 0:
            return vector
        if self._document_count == 0:
            idf = 1.0
        else:
            idf = (
                np.log(
                    (1 + self._document_count)
                    / (1.0 + self._frequencies[profile.feature_ids])
                )
                + 1.0
            )
        vector += np.bincount(
            profile.indices, weights=profile.signed_counts * idf, minlength=self.dimensions
        )
        norm = float(np.linalg.norm(vector))
        if norm > 0:
            vector /= norm
        return vector


def _grown(array: np.ndarray, capacity: int) -> np.ndarray:
    """A zero-padded copy of ``array`` with ``capacity`` entries."""
    grown = np.zeros(capacity, dtype=array.dtype)
    grown[: array.shape[0]] = array
    return grown
