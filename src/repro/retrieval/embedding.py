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

A profile also has a compact journal form (:meth:`EmbeddingModel.profile_state`):
an annotation commit journals the profile of the text it archives, and a
replay hands it back to :meth:`EmbeddingModel.prime`, which interns the
features and caches the profile without tokenising or counting the text
again.  Once the text is observed, the form's fourth string holds the hashes
of the features no earlier observed text carried, so a replay interns the
features new to its model without hashing them either.

Durable forms pack numbers as base64 (:func:`_packed_hashes`,
:func:`_packed_frequencies`): a feature hash is its vector index as an unsigned
little-endian integer, one byte wide up to 256 dimensions, plus one bit for
its sign; document frequencies are little-endian integers two bytes wide
while the document count is at most 32,767, four beyond.
"""

from __future__ import annotations

import base64
import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from repro.retrieval.cache import LruDict
from repro.retrieval.text import normalize_whitespace, tokenize_text

#: ``1 + log(count)`` for counts below the table's size.  The weights come
#: from ``math.log``, as do those of larger counts; ``np.log`` may differ
#: from it in the last place.
_COUNT_WEIGHTS = np.array([0.0] + [1.0 + math.log(count) for count in range(1, 64)])


#: The code points of the ``"g:"`` prefix of every trigram feature.
_GRAM_PREFIX = np.array([ord("g"), ord(":")], dtype="<u4")
#: A trigram's code-point offsets from its start.
_GRAM_OFFSETS = np.arange(3)


def _stable_hash(feature: str) -> int:
    """Stable (process-independent) hash of a feature string."""
    digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _frequency_dtype(document_count: int) -> str:
    """The little-endian integer type that holds frequencies up to ``document_count``."""
    return "<i2" if document_count <= 0x7FFF else "<i4"


def _packed_frequencies(frequencies: np.ndarray, document_count: int) -> str:
    """Document frequencies as base64 little-endian integers."""
    packed = frequencies.astype(_frequency_dtype(document_count)).tobytes()
    return base64.b64encode(packed).decode("ascii")


def _unpacked_frequencies(encoded: str, document_count: int) -> np.ndarray:
    """The frequencies :func:`_packed_frequencies` encoded."""
    return np.frombuffer(base64.b64decode(encoded), dtype=_frequency_dtype(document_count))


def _index_dtype(dimensions: int) -> np.dtype:
    """The unsigned little-endian integer type that holds indices below ``dimensions``."""
    if dimensions <= 0x100:
        return np.dtype("<u1")
    return np.dtype("<u2" if dimensions <= 0x10000 else "<u4")


def _packed_hashes(indices: np.ndarray, signs: np.ndarray, dimensions: int) -> str:
    """Feature hashes as base64: the vector indices as unsigned integers as
    wide as ``dimensions`` needs, then one bit per sign, set for -1."""
    packed = indices.astype(_index_dtype(dimensions)).tobytes() + np.packbits(signs < 0).tobytes()
    return base64.b64encode(packed).decode("ascii")


def _unpacked_hashes(
    encoded: str, count: int, dimensions: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``count`` indices and signs :func:`_packed_hashes` encoded, or
    ``None`` when the encoding holds another number of hashes.

    Raises :class:`ValueError` when an index does not fit the dimensions.
    """
    data = base64.b64decode(encoded)
    dtype = _index_dtype(dimensions)
    size = count * dtype.itemsize
    if len(data) != size + (count + 7) // 8:
        return None
    indices = np.frombuffer(data, dtype=dtype, count=count)
    if count and int(indices.max()) >= dimensions:
        raise ValueError("feature hashes do not fit the dimensions")
    negative = np.unpackbits(np.frombuffer(data, dtype=np.uint8, offset=size), count=count)
    return indices, np.where(negative, -1.0, 1.0)


def _count_weights(counts: np.ndarray) -> np.ndarray:
    """``1 + log(count)`` per count, exactly as ``math.log`` computes it."""
    if counts.size == 0 or counts.max() < _COUNT_WEIGHTS.size:
        return _COUNT_WEIGHTS[counts]
    return np.array([1.0 + math.log(count) for count in counts.tolist()])


def _word_features(words: str) -> list[str]:
    """The ``"w:"`` features of space-joined word tokens (tokens hold no spaces)."""
    return ("w:" + words.replace(" ", " w:")).split(" ") if words else []


def _gram_features(grams: np.ndarray) -> list[str]:
    """The ``"g:"`` features of an ``(n, 3)`` array of trigram code points.

    Each row is framed as ``"g:"``, its code points and a newline, decoded
    once and split; a trigram holds no whitespace.
    """
    framed = np.empty((grams.shape[0], 6), dtype="<u4")
    framed[:, :2] = _GRAM_PREFIX
    framed[:, 2:5] = grams
    framed[:, 5] = ord("\n")
    return framed.tobytes().decode("utf-32-le", "surrogatepass").split("\n")[:-1]


def _trigram_features(text: str) -> tuple[list[str], np.ndarray, str | None]:
    """Distinct ``"g:"`` trigram features of ``text`` in first-seen order, with
    counts and the trigrams concatenated (``None`` for a text too short for a
    trigram, whose one feature is shorter).

    The grams are those of :func:`~repro.retrieval.text.character_ngrams`
    (``n=3``).  Each trigram's three code points (at most 21 bits each) are
    packed into one integer key, so counting runs in numpy and only the
    distinct grams become strings.
    """
    compact = normalize_whitespace(text.lower())
    if len(compact) < 3:
        features = ["g:" + compact] if compact else []
        return features, np.ones(len(features), dtype=np.int64), None if compact else ""
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
    grams = codes[first[seen][:, None] + _GRAM_OFFSETS]
    concatenated = grams.astype("<u4").tobytes().decode("utf-32-le", "surrogatepass")
    return _gram_features(grams), counts[seen], concatenated


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
    journal_form: list[str] | None  # see EmbeddingModel.profile_state
    #: Which features the text's latest observe raised from document
    #: frequency zero: ``np.packbits`` of a mask over the features, kept as
    #: bytes because every cached profile holds one (None until observed).
    first_observed: bytes | None = None


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
        ids = profile.feature_ids
        if profile.journal_form is not None:
            profile.first_observed = np.packbits(self._frequencies[ids] == 0.0).tobytes()
        # Ids are unique within a profile, so a fancy-indexed add is exact.
        self._frequencies[ids] += 1.0

    def embed(self, text: str) -> np.ndarray:
        """Embed a text into a normalised dense vector under the current IDF table.

        The returned array is marked read-only — callers needing a private
        copy should ``.copy()`` it.
        """
        vector = self._vector(text)
        vector.setflags(write=False)
        return vector

    def profile_state(self, text: str) -> list[str] | None:
        """The journal form of ``text``'s feature profile, for :meth:`prime`.

        Three strings: the word tokens joined by spaces, the trigrams
        concatenated (each is three characters), and the per-feature counts
        as base64 bytes.  ``None`` when the form cannot hold the profile: a
        text shorter than three characters has one shorter "trigram", and a
        count may exceed 255.  The form is built with the profile, from the
        tokens and code points it is counted from.  Once the text is
        observed, a fourth string follows: the packed hashes of the features
        whose document frequency its latest :meth:`observe` raised from zero,
        in profile order.
        """
        profile = self._profile(text)
        if profile.journal_form is None or profile.first_observed is None:
            return profile.journal_form
        return [*profile.journal_form, self._hashes(_first_observed_ids(profile))]

    def prime(self, text: str, state: list[str]) -> None:
        """Cache ``text``'s profile from its :meth:`profile_state` form.

        New features are interned in profile order, as computing the profile
        would intern them, so a primed model matches one that computed.  The
        ``observe`` and ``embed`` calls that follow then hit the cache.

        The features this model lacks take the form's journaled hashes when
        there are as many of them, and are hashed otherwise.  They are a
        subset of the journaled ones whenever the model has seen the
        documents the writer had observed before the text, so equal counts
        mean equal features; a three-string form (journaled before hashes
        were) hashes them all.  Raises :class:`ValueError` when the counts
        do not match the features or a journaled hash does not fit the
        dimensions.
        """
        if text in self._profiles:
            return
        words, grams, encoded = state[:3]
        codes = np.frombuffer(grams.encode("utf-32-le"), dtype="<u4").reshape(-1, 3)
        features = _word_features(words) + _gram_features(codes)
        counts = np.frombuffer(base64.b64decode(encoded), dtype=np.uint8).astype(np.int64)
        if counts.size != len(features) or not counts.all():
            raise ValueError("profile counts do not match its features")
        hashes = state[3] if len(state) > 3 else None
        self._store_profile(text, features, counts, [words, grams, encoded], hashes)

    # ------------------------------------------------------------------
    # durability (snapshot) support
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe semantic state: IDF table + vocabulary, no caches.

        Feature *ids* are an internal allocation detail: features get
        interned lazily whenever a query is merely embedded, yet only
        :meth:`observe` gives them a document frequency.  So the canonical
        state is the document-bearing features in sorted order, each with its
        frequency and its feature hash (hashed vector index and sign) — two
        models that saw different query traffic but the same documents
        serialise identically.  The hashes are a deterministic function of
        the feature string; storing them spares a restore from re-hashing
        the whole vocabulary.

        The vocabulary travels packed: the features joined by newlines (no
        feature holds one), and the frequencies and hashes as
        :func:`_packed_frequencies` and :func:`_packed_hashes` encode them.
        """
        frequencies = self._frequencies
        entries = sorted(
            (feature, feature_id)
            for feature, feature_id in self._feature_ids.items()
            if frequencies[feature_id] > 0
        )
        ids = np.array([feature_id for _, feature_id in entries], dtype=np.intp)
        return {
            "dimensions": self.dimensions,
            "use_ngrams": self.use_ngrams,
            "document_count": self._document_count,
            "features": "\n".join([feature for feature, _ in entries]),
            "frequencies": _packed_frequencies(frequencies[ids], self._document_count),
            "hashes": self._hashes(ids),
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
        features = state["features"].split("\n") if state["features"] else []
        frequencies = _unpacked_frequencies(state["frequencies"], model._document_count)
        hashes = _unpacked_hashes(state["hashes"], len(features), model.dimensions)
        if hashes is None or frequencies.shape != (len(features),):
            raise ValueError("feature hashes or frequencies do not match the vocabulary")
        model._append(features, *hashes)
        model._frequencies[: len(features)] = frequencies
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
        words = " ".join(word_counts)
        features = _word_features(words)
        counts = np.fromiter(word_counts.values(), dtype=np.int64, count=len(word_counts))
        grams: str | None = ""
        if self.use_ngrams:
            gram_features, gram_counts, grams = _trigram_features(text)
            features += gram_features
            counts = np.concatenate((counts, gram_counts))
        journal_form = None
        if grams is not None and (counts.size == 0 or counts.max() <= 255):
            encoded = base64.b64encode(counts.astype(np.uint8).tobytes()).decode("ascii")
            journal_form = [words, grams, encoded]
        return self._store_profile(text, features, counts, journal_form)

    def _store_profile(
        self,
        text: str,
        features: list[str],
        counts: np.ndarray,
        journal_form: list[str] | None,
        hashes: str | None = None,
    ) -> _FeatureProfile:
        """Intern ``features`` (new ones in order) and cache ``text``'s profile.

        The new features take the packed ``hashes`` when it holds as many,
        and are hashed otherwise.
        """
        feature_ids = np.fromiter(
            map(self._feature_ids.get, features, repeat(-1)), dtype=np.intp, count=len(features)
        )
        new = np.flatnonzero(feature_ids < 0)
        if new.size:
            new_features = [features[position] for position in new.tolist()]
            journaled = None
            if hashes is not None:
                journaled = _unpacked_hashes(hashes, new.size, self.dimensions)
            if journaled is not None:
                start = self._append(new_features, *journaled)
            else:
                start = self._intern(new_features)
            feature_ids[new] = np.arange(start, start + new.size)
        profile = _FeatureProfile(
            feature_ids=feature_ids,
            indices=self._indices[feature_ids],
            signed_counts=self._signs[feature_ids] * _count_weights(counts),
            journal_form=journal_form,
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

    def _hashes(self, ids: np.ndarray) -> str:
        """The packed hashes of feature ``ids``."""
        return _packed_hashes(self._indices[ids], self._signs[ids], self.dimensions)

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


def _first_observed_ids(profile: _FeatureProfile) -> np.ndarray:
    """The ids of the features ``profile.first_observed`` marks, in profile order."""
    ids = profile.feature_ids
    marked = np.unpackbits(np.frombuffer(profile.first_observed, dtype=np.uint8), count=ids.size)
    return ids[marked.astype(bool)]


def _grown(array: np.ndarray, capacity: int) -> np.ndarray:
    """A zero-padded copy of ``array`` with ``capacity`` entries."""
    grown = np.zeros(capacity, dtype=array.dtype)
    grown[: array.shape[0]] = array
    return grown
