"""Tests for embeddings, the vector store, example store and context retriever."""

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RetrievalError
from repro.retrieval import (
    STOPWORDS,
    ContextRetriever,
    EmbeddingModel,
    ExampleStore,
    ShardedVectorStore,
    VectorStore,
    character_ngrams,
    cosine_similarity,
    normalize_whitespace,
    sentence_case,
    tokenize_text,
)
from repro.retrieval.embedding import _stable_hash

EMBEDDING_CORPUS_PATH = Path(__file__).parent / "data" / "embedding_corpus.json"


def sha256(payload):
    return hashlib.sha256(payload).hexdigest()


def reference_tokenize(text, remove_stopwords=False):
    """The word-then-split tokenizer the single-regex one replaced, kept as an oracle."""
    tokens = []
    for match in re.finditer(r"[A-Za-z_][A-Za-z_0-9]*|\d+(?:\.\d+)?", text):
        decamel = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", " ", match.group(0))
        for part in re.split(r"[_\s]+", decamel):
            part = part.lower()
            if part and not (remove_stopwords and part in STOPWORDS):
                tokens.append(part)
    return tokens


class PerFeatureProfiles:
    """The per-feature profile loop the vectorized EmbeddingModel replaced.

    Kept as the oracle: every feature string is built and counted one by
    one, interned in first-seen order, hashed with blake2b, and weighted with
    ``math.log``.  ``frequencies`` mirrors what ``observe`` accumulates.
    """

    def __init__(self, dimensions=256, use_ngrams=True):
        self.dimensions = dimensions
        self.use_ngrams = use_ngrams
        self.meta = {}
        self.frequencies = {}

    def profile(self, text):
        features = [f"w:{token}" for token in tokenize_text(text)]
        if self.use_ngrams:
            features.extend(f"g:{gram}" for gram in character_ngrams(text, 3))
        counts = {}
        for feature in features:
            counts[feature] = counts.get(feature, 0) + 1
        ids, indices, signed_counts = [], [], []
        for feature, count in counts.items():
            meta = self.meta.get(feature)
            if meta is None:
                digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest()
                hashed = int.from_bytes(digest, "little")
                sign = 1.0 if (hashed >> 32) % 2 == 0 else -1.0
                meta = self.meta[feature] = (len(self.meta), hashed % self.dimensions, sign)
            ids.append(meta[0])
            indices.append(meta[1])
            signed_counts.append(meta[2] * (1.0 + math.log(count)))
        return ids, indices, signed_counts, list(counts)

    def observe(self, text):
        for feature in self.profile(text)[3]:
            self.frequencies[feature] = self.frequencies.get(feature, 0.0) + 1.0


def assert_same_profile(model, oracle, text):
    profile = model._profile(text)
    ids, indices, signed_counts, _ = oracle.profile(text)
    assert profile.feature_ids.dtype == np.intp and profile.feature_ids.tolist() == ids
    assert profile.indices.dtype == np.intp and profile.indices.tolist() == indices
    assert profile.signed_counts.dtype == np.float64
    assert profile.signed_counts.tolist() == signed_counts


#: Mixed ASCII/Unicode text: case mappings that change length, non-ASCII
#: digits and numerals, astral code points, and assorted whitespace.
EMBEDDING_TEXT = st.one_of(
    st.text(
        alphabet=st.sampled_from(
            list("abcxyzABCXYZ019_. \n\t'(),=*")
            + ["İ", "ß", "²", "½", "٣", "é", "Σ", "ﬁ", "日", "😀", "\u00a0", "\u2028", "\U0010ffff"]
        ),
        max_size=60,
    ),
    st.text(max_size=25),
)


class TestText:
    def test_tokenize_splits_identifiers(self):
        assert tokenize_text("MOIRA_LIST_NAME equals 'EECS'") == [
            "moira", "list", "name", "equals", "eecs",
        ]

    def test_tokenize_removes_stopwords_optionally(self):
        tokens = tokenize_text("the count of the rows", remove_stopwords=True)
        assert "the" not in tokens and "of" not in tokens

    def test_character_ngrams(self):
        assert character_ngrams("abcd", 3) == ["abc", "bcd"]
        assert character_ngrams("ab", 3) == ["ab"]
        assert character_ngrams("", 3) == []

    def test_normalize_whitespace(self):
        assert normalize_whitespace("  a\n b\t c ") == "a b c"

    def test_sentence_case(self):
        assert sentence_case("hello world") == "Hello world."
        assert sentence_case("Already done.") == "Already done."
        assert sentence_case("") == ""


class TestEmbeddingModel:
    def test_embeddings_are_normalised(self):
        model = EmbeddingModel(dimensions=64)
        vector = model.embed("SELECT a FROM t")
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_empty_text_embeds_to_zero(self):
        assert np.allclose(EmbeddingModel().embed(""), 0.0)

    def test_similar_texts_score_higher_than_dissimilar(self):
        model = EmbeddingModel()
        for text in ("student enrollment per term", "employee salary by department",
                     "network device inventory"):
            model.observe(text)
        query = model.embed("student enrollment for the fall term")
        similar = model.embed("student enrollment per term")
        dissimilar = model.embed("network device inventory")
        assert cosine_similarity(query, similar) > cosine_similarity(query, dissimilar)

    def test_deterministic(self):
        left = EmbeddingModel().embed("SELECT a FROM t")
        right = EmbeddingModel().embed("SELECT a FROM t")
        assert np.allclose(left, right)

    def test_embed_batch_shape(self):
        model = EmbeddingModel(dimensions=32)
        batch = model.embed_batch(["a", "b", "c"])
        assert batch.shape == (3, 32)
        assert model.embed_batch([]).shape == (0, 32)

    @given(st.text(alphabet="abcdef ", min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_embedding_norm_is_at_most_one(self, text):
        vector = EmbeddingModel(dimensions=32).embed(text)
        assert np.linalg.norm(vector) <= 1.0 + 1e-9


class TestVectorStore:
    def test_add_search_roundtrip(self):
        store = VectorStore()
        store.add("1", "count students per term", {"dataset": "beaver"})
        store.add("2", "average salary per department", {"dataset": "hr"})
        hits = store.search("how many students in each term", top_k=1)
        assert hits[0].doc_id == "1"

    def test_metadata_filter(self):
        store = VectorStore()
        store.add("1", "count students", {"dataset": "a"})
        store.add("2", "count students", {"dataset": "b"})
        hits = store.search("count students", metadata_filter={"dataset": "b"})
        assert [hit.doc_id for hit in hits] == ["2"]

    def test_exclude_ids(self):
        store = VectorStore()
        store.add("1", "alpha beta")
        store.add("2", "alpha beta")
        hits = store.search("alpha beta", exclude_ids={"1"})
        assert [hit.doc_id for hit in hits] == ["2"]

    def test_remove_and_get(self):
        store = VectorStore()
        store.add("1", "text")
        assert store.get("1").text == "text"
        store.remove("1")
        assert "1" not in store
        with pytest.raises(RetrievalError):
            store.get("1")
        with pytest.raises(RetrievalError):
            store.remove("1")

    def test_empty_doc_id_rejected(self):
        with pytest.raises(RetrievalError):
            VectorStore().add("", "text")

    def test_top_k_zero_returns_empty(self):
        store = VectorStore()
        store.add("1", "text")
        assert store.search("text", top_k=0) == []


class TestExampleStore:
    def test_cold_start_is_empty(self):
        store = ExampleStore()
        assert store.is_empty
        assert store.retrieve("SELECT a FROM t") == []

    def test_add_and_retrieve(self):
        store = ExampleStore()
        store.add("SELECT COUNT(*) FROM students", "How many students are there?", dataset="beaver")
        store.add("SELECT AVG(salary) FROM employees", "What is the average salary?", dataset="hr")
        results = store.retrieve("SELECT COUNT(*) FROM students WHERE term = 'fall'", top_k=1)
        assert results[0].nl == "How many students are there?"

    def test_identical_skeleton_excluded(self):
        store = ExampleStore()
        store.add("SELECT a FROM t WHERE b = 'x'", "description one")
        assert store.retrieve("SELECT a FROM t WHERE b = 'y'") == []
        assert len(store.retrieve("SELECT a FROM t WHERE b = 'y'", exclude_identical=False)) == 1

    def test_rejects_empty_fields(self):
        with pytest.raises(RetrievalError):
            ExampleStore().add("", "text")
        with pytest.raises(RetrievalError):
            ExampleStore().add("SELECT 1", "   ")

    def test_seed_from_pairs(self):
        store = ExampleStore()
        assert store.seed_from_pairs([("SELECT 1", "one"), ("SELECT 2", "two")]) == 2
        assert len(store) == 2

    def test_dataset_filter(self):
        store = ExampleStore()
        store.add("SELECT a FROM students", "students a", dataset="beaver")
        store.add("SELECT a FROM singers", "singers a", dataset="spider")
        results = store.retrieve("SELECT b FROM students", dataset="beaver")
        assert all(example.dataset == "beaver" for example in results)

    def test_get_unknown_raises(self):
        with pytest.raises(RetrievalError):
            ExampleStore().get("missing")


class TestContextRetriever:
    def test_retrieves_relevant_tables_via_sql(self, hr_schema):
        retriever = ContextRetriever(hr_schema)
        context = retriever.retrieve("SELECT name FROM employees WHERE salary > 10")
        assert context.table_names == ["employees"]
        assert "TABLE employees" in context.schema_text()

    def test_retrieves_joined_tables(self, hr_schema):
        retriever = ContextRetriever(hr_schema)
        context = retriever.retrieve(
            "SELECT e.name, d.dept_name FROM employees e JOIN departments d ON e.dept_id = d.dept_id"
        )
        assert set(context.table_names) == {"employees", "departments"}
        assert "dept_id" in context.ambiguous_columns

    def test_examples_accumulate_and_are_retrieved(self, hr_schema):
        retriever = ContextRetriever(hr_schema, top_k_examples=2)
        retriever.record_annotation("SELECT COUNT(*) FROM employees", "How many employees?")
        context = retriever.retrieve("SELECT COUNT(*) FROM employees WHERE dept_id = 1")
        assert len(context.examples) == 1
        assert context.examples[0].nl == "How many employees?"

    def test_unknown_table_reported(self, hr_schema):
        retriever = ContextRetriever(hr_schema)
        context = retriever.retrieve("SELECT x FROM payroll_history")
        assert "payroll_history" in context.unresolved_tables

    def test_unparseable_query_falls_back_to_text_linking(self, hr_schema):
        retriever = ContextRetriever(hr_schema)
        context = retriever.retrieve("employees salary report !!!")
        assert "employees" in context.table_names


def _reference_search(store, query, top_k=5, metadata_filter=None, exclude_ids=None,
                      min_score=0.0):
    """The pre-vectorisation O(n) reference loop, for ranking-parity checks."""
    query_vector = store.model.embed(query)
    hits = []
    for doc_id in store.all_ids():
        entry = store.get(doc_id)
        if exclude_ids and entry.doc_id in exclude_ids:
            continue
        if metadata_filter and any(
            entry.metadata.get(key) != value for key, value in metadata_filter.items()
        ):
            continue
        score = float(np.dot(query_vector, entry.vector))
        if score < min_score:
            continue
        hits.append((entry.doc_id, score))
    hits.sort(key=lambda hit: (-hit[1], hit[0]))
    return hits[:top_k]


class TestVectorizedStore:
    """The matrix/argpartition search must rank exactly like the old loop."""

    TEXTS = [
        ("d01", "count students per term", {"dataset": "beaver"}),
        ("d02", "average salary per department", {"dataset": "hr"}),
        ("d03", "count students per campus", {"dataset": "beaver"}),
        ("d04", "network device inventory report", {"dataset": "it"}),
        ("d05", "count students per term", {"dataset": "beaver"}),  # exact dup of d01
        ("d06", "salary of employees by department", {"dataset": "hr"}),
        ("d07", "list open purchase orders", {"dataset": "erp"}),
        ("d08", "terms with highest enrollment", {"dataset": "beaver"}),
    ]

    def _store(self):
        store = VectorStore()
        for doc_id, text, metadata in self.TEXTS:
            store.add(doc_id, text, metadata)
        return store

    def _assert_matches_reference(self, store, query, **kwargs):
        hits = store.search(query, **kwargs)
        expected = _reference_search(store, query, **kwargs)
        assert [(hit.doc_id, pytest.approx(hit.score)) for hit in hits] == [
            (doc_id, pytest.approx(score)) for doc_id, score in expected
        ]

    def test_ranking_matches_reference(self):
        store = self._store()
        self._assert_matches_reference(store, "students enrolled per term", top_k=4)

    def test_ranking_with_metadata_filter(self):
        store = self._store()
        self._assert_matches_reference(
            store, "count students", top_k=3, metadata_filter={"dataset": "beaver"}
        )

    def test_ranking_with_exclude_ids(self):
        store = self._store()
        self._assert_matches_reference(
            store, "count students per term", top_k=4, exclude_ids={"d01", "d03"}
        )

    def test_ranking_with_min_score(self):
        store = self._store()
        self._assert_matches_reference(
            store, "count students per term", top_k=8, min_score=0.2
        )

    def test_tie_break_by_doc_id(self):
        # add_many embeds under one shared vocabulary, so identical texts get
        # bit-identical vectors — a true score tie.
        store = VectorStore()
        store.add_many(
            [
                ("z-dup", "count students per term", {}),
                ("a-dup", "count students per term", {}),
                ("other", "average salary per department", {}),
            ]
        )
        hits = store.search("count students per term", top_k=2)
        assert [hit.doc_id for hit in hits] == ["a-dup", "z-dup"]

    def test_search_batch_matches_scalar_search(self):
        store = self._store()
        queries = ["count students", "salary by department", "purchase orders"]
        batched = store.search_batch(queries, top_k=3)
        for query, hits in zip(queries, batched):
            scalar = store.search(query, top_k=3)
            assert [hit.doc_id for hit in hits] == [hit.doc_id for hit in scalar]
            assert [hit.score for hit in hits] == [
                pytest.approx(hit.score) for hit in scalar
            ]

    def test_search_ids_matches_search(self):
        store = self._store()
        hits = store.search("count students", top_k=4)
        assert store.search_ids("count students", top_k=4) == [hit.doc_id for hit in hits]

    def test_search_after_remove_and_compaction(self):
        store = self._store()
        # Remove enough rows to trigger lazy compaction (threshold is 50%).
        for doc_id in ("d01", "d03", "d05", "d07", "d08"):
            store.remove(doc_id)
        assert len(store) == 3
        self._assert_matches_reference(store, "salary by department", top_k=3)
        # The store keeps working after compaction: add again and search.
        store.add("d09", "salary bands per department", {"dataset": "hr"})
        self._assert_matches_reference(store, "salary bands", top_k=4)

    def test_add_replaces_existing_doc(self):
        store = self._store()
        store.add("d04", "totally different text about invoices", {"dataset": "fin"})
        assert len(store) == len(self.TEXTS)
        hits = store.search("invoices", top_k=1, metadata_filter={"dataset": "fin"})
        assert [hit.doc_id for hit in hits] == ["d04"]

    def test_growth_beyond_initial_capacity(self):
        store = VectorStore()
        for index in range(150):  # > the 64-row initial matrix
            store.add(f"doc-{index:03d}", f"record number {index} of the stress corpus")
        assert len(store) == 150
        hits = store.search("record number 42", top_k=5)
        assert "doc-042" in [hit.doc_id for hit in hits]

    def test_add_many_uses_consistent_vocabulary(self):
        documents = [
            ("a", "count students per term", {}),
            ("b", "average salary per department", {}),
            ("c", "count open tickets per queue", {}),
        ]
        batch_store = VectorStore(EmbeddingModel(dimensions=64))
        batch_store.add_many(documents)

        # Reference: observe every text first, then embed under the final
        # vocabulary — every vector in the batch must match this.
        reference_model = EmbeddingModel(dimensions=64)
        for _, text, _ in documents:
            reference_model.observe(text)
        for doc_id, text, _ in documents:
            np.testing.assert_allclose(
                batch_store.get(doc_id).vector, reference_model.embed(text)
            )

    def test_sequential_add_differs_from_batch_for_early_docs(self):
        # Guards the vocabulary-drift fix: sequential adds embed early docs
        # under a smaller IDF table than add_many does.
        documents = [
            ("a", "count students per term", {}),
            ("b", "average salary per department", {}),
        ]
        sequential = VectorStore(EmbeddingModel(dimensions=64))
        for doc_id, text, metadata in documents:
            sequential.add(doc_id, text, metadata)
        batch = VectorStore(EmbeddingModel(dimensions=64))
        batch.add_many(documents)
        assert not np.allclose(sequential.get("a").vector, batch.get("a").vector)


class TestCompactionFilteredSearch:
    """Filtered search_batch/search_ids right after remove-triggered
    compaction — the meta-mask remap is exactly what these exercise."""

    DATASETS = ["beaver", "hr", "it"]

    def _store(self):
        store = VectorStore()
        for index in range(15):
            dataset = self.DATASETS[index % len(self.DATASETS)]
            store.add(
                f"doc-{index:02d}",
                f"{dataset} corpus record number {index}",
                {"dataset": dataset},
            )
        # Warm every filter's lazy mask *before* compaction so the test
        # covers the mask-remap path rather than a fresh rebuild.
        for dataset in self.DATASETS:
            store.search("record", top_k=2, metadata_filter={"dataset": dataset})
        return store

    def _force_compaction(self, store):
        # 8 removals out of 15 rows: >= 8 dead and > 50% dead, so the last
        # remove triggers lazy compaction.
        for index in range(8):
            store.remove(f"doc-{index:02d}")
        assert store._dead_rows == 0  # compaction actually ran
        assert len(store) == 7

    def test_search_ids_with_filter_after_compaction(self):
        store = self._store()
        self._force_compaction(store)
        for dataset in self.DATASETS:
            expected = _reference_search(
                store, "corpus record", top_k=5, metadata_filter={"dataset": dataset}
            )
            assert store.search_ids(
                "corpus record", top_k=5, metadata_filter={"dataset": dataset}
            ) == [doc_id for doc_id, _ in expected]

    def test_search_batch_with_filter_after_compaction(self):
        store = self._store()
        self._force_compaction(store)
        queries = ["corpus record", "record number 10", "record number 14"]
        for dataset in self.DATASETS:
            batched = store.search_batch(
                queries, top_k=4, metadata_filter={"dataset": dataset}
            )
            for query, hits in zip(queries, batched):
                expected = _reference_search(
                    store, query, top_k=4, metadata_filter={"dataset": dataset}
                )
                assert [(hit.doc_id, pytest.approx(hit.score)) for hit in hits] == [
                    (doc_id, pytest.approx(score)) for doc_id, score in expected
                ]

    def test_filter_masks_track_post_compaction_adds(self):
        store = self._store()
        self._force_compaction(store)
        store.add("doc-99", "hr corpus record number 99", {"dataset": "hr"})
        ids = store.search_ids(
            "record number 99", top_k=3, metadata_filter={"dataset": "hr"}
        )
        assert ids[0] == "doc-99"
        # A removed document never reappears through a stale mask.
        assert "doc-00" not in store.search_ids(
            "corpus record", top_k=15, metadata_filter={"dataset": "beaver"}
        )


class TestShardedVectorStore:
    DOCS = [
        ("d01", "count students per term", {"dataset": "beaver"}),
        ("d02", "average salary per department", {"dataset": "hr"}),
        ("d03", "count students per campus", {"dataset": "beaver"}),
        ("d04", "network device inventory report", {"dataset": "it"}),
        ("d05", "salary of employees by department", {"dataset": "hr"}),
        ("d06", "terms with highest enrollment", {"dataset": "beaver"}),
    ]

    def _both_stores(self):
        flat = VectorStore(EmbeddingModel(dimensions=64))
        sharded = ShardedVectorStore(EmbeddingModel(dimensions=64))
        for doc_id, text, metadata in self.DOCS:
            flat.add(doc_id, text, dict(metadata))
            sharded.add(doc_id, text, dict(metadata))
        return flat, sharded

    def test_sharding_is_score_transparent(self):
        # Rankings match the flat store exactly; scores match to floating-
        # point rounding (BLAS products over differently-partitioned
        # matrices can differ in the last ULP).
        flat, sharded = self._both_stores()
        for query in ("count students", "salary department", "device inventory"):
            for metadata_filter in (None, {"dataset": "beaver"}, {"dataset": "hr"}):
                expected = flat.search(query, top_k=4, metadata_filter=metadata_filter)
                actual = sharded.search(query, top_k=4, metadata_filter=metadata_filter)
                assert [(h.doc_id, pytest.approx(h.score)) for h in actual] == [
                    (h.doc_id, pytest.approx(h.score)) for h in expected
                ]

    def test_filtered_search_touches_one_shard(self):
        _, sharded = self._both_stores()
        assert sharded.shard_count == 3
        assert sharded.shard_sizes() == {"beaver": 3, "hr": 2, "it": 1}

    def test_sharded_state_roundtrip(self):
        _, sharded = self._both_stores()
        clone = ShardedVectorStore.from_state(sharded.state_dict())
        assert clone.shard_sizes() == sharded.shard_sizes()
        query = "count students per term"
        assert [(h.doc_id, h.score) for h in clone.search(query, top_k=4)] == [
            (h.doc_id, h.score) for h in sharded.search(query, top_k=4)
        ]

    def test_cross_shard_replacement_moves_document(self):
        _, sharded = self._both_stores()
        sharded.add("d04", "invoices awaiting approval", {"dataset": "fin"})
        assert len(sharded) == len(self.DOCS)
        assert sharded.shard_sizes() == {"beaver": 3, "hr": 2, "fin": 1}
        hits = sharded.search("invoices", top_k=1, metadata_filter={"dataset": "fin"})
        assert [hit.doc_id for hit in hits] == ["d04"]

    def test_remove_drops_empty_shard(self):
        _, sharded = self._both_stores()
        sharded.remove("d04")
        assert "it" not in sharded.shard_sizes()
        assert "d04" not in sharded


class TestRetrievalCaches:
    def test_repeated_embeds_are_identical_and_read_only(self):
        model = EmbeddingModel(dimensions=64)
        first = model.embed("SELECT a FROM t")
        second = model.embed("SELECT a FROM t")
        np.testing.assert_array_equal(first, second)
        assert not first.flags.writeable and not second.flags.writeable

    def test_observe_shifts_embedding(self):
        # The second observation shares only part of the query's vocabulary,
        # so IDF weighting becomes non-uniform and the direction must shift.
        model = EmbeddingModel(dimensions=64)
        before = model.embed("SELECT a FROM t").copy()
        model.observe("SELECT a FROM t")
        model.observe("SELECT b FROM t")
        after = model.embed("SELECT a FROM t")
        assert not np.allclose(before, after)  # IDF drift changed the vector
        # And the shifted vector matches a model that only saw the documents.
        fresh = EmbeddingModel(dimensions=64)
        fresh.observe("SELECT a FROM t")
        fresh.observe("SELECT b FROM t")
        np.testing.assert_allclose(after, fresh.embed("SELECT a FROM t"))

    def test_linking_cache_hits_on_repeat_queries(self, hr_schema):
        retriever = ContextRetriever(hr_schema)
        sql = "SELECT name FROM employees WHERE salary > 10"
        first = retriever.retrieve(sql)
        second = retriever.retrieve(sql)
        assert first.table_names == second.table_names
        info = retriever.linking_cache_info()
        assert info["hits"] >= 1
        assert info["misses"] >= 1

    def test_quoted_identifier_does_not_share_a_linking_entry(self, hr_schema):
        retriever = ContextRetriever(hr_schema)
        retriever.retrieve('SELECT "name salary" FROM employees')
        retriever.retrieve("SELECT name salary FROM employees")
        info = retriever.linking_cache_info()
        assert info["hits"] == 0
        assert info["misses"] == 2

    def test_example_count_matches_retrieve(self, hr_schema):
        retriever = ContextRetriever(hr_schema, top_k_examples=2)
        sql = "SELECT COUNT(*) FROM employees WHERE dept_id = 3"
        assert retriever.example_count(sql) == 0
        retriever.record_annotation("SELECT COUNT(*) FROM employees", "How many employees?")
        retriever.record_annotation("SELECT name FROM employees", "All employee names.")
        retriever.record_annotation(
            "SELECT dept_name FROM departments", "All department names."
        )
        for probe in (sql, "SELECT name FROM employees WHERE salary > 5"):
            assert retriever.example_count(probe) == len(retriever.retrieve(probe).examples)

    def test_example_store_version_counts_mutations(self, hr_schema):
        retriever = ContextRetriever(hr_schema)
        store = retriever.example_store
        assert store.version == 0
        retriever.record_annotation("SELECT name FROM employees", "Names.")
        assert store.version == 1

    def test_linking_cache_respects_capacity(self, hr_schema):
        retriever = ContextRetriever(hr_schema, linking_cache_size=4)
        base = "SELECT name FROM employees WHERE salary > 10"
        retriever.retrieve(base)
        # Whitespace variants alias onto the same normalized entry; the
        # aliases must not grow the cache past its bound.
        for padding in range(20):
            retriever.retrieve(base + " " * (padding + 1))
        assert retriever.linking_cache_info()["size"] <= 4


class TestTokenizerEquivalence:
    @pytest.mark.parametrize("text", [
        "abc", "x1y", "x1Y", "HTTPServer", "1.5abc", "MOIRA_LIST_NAME", "a__b _", "٣.٣ ٣٣",
        "the select of it", "İstanbul ß ² ½", "getHTTPResponseCode 42 3.14",
    ])
    def test_matches_the_word_split_oracle(self, text):
        for remove_stopwords in (False, True):
            assert tokenize_text(text, remove_stopwords) == reference_tokenize(text, remove_stopwords)

    @given(EMBEDDING_TEXT, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_word_split_oracle_on_any_text(self, text, remove_stopwords):
        assert tokenize_text(text, remove_stopwords) == reference_tokenize(text, remove_stopwords)


class TestEmbeddingEquivalence:
    """The vectorized profile pass against its per-feature predecessor."""

    def test_corpus_replays_exactly(self):
        corpus = json.loads(EMBEDDING_CORPUS_PATH.read_text(encoding="ascii"))
        texts = corpus["texts"]
        assert [tokenize_text(text) for text in texts] == corpus["tokens"]
        assert [
            tokenize_text(text, remove_stopwords=True) for text in texts
        ] == corpus["tokens_without_stopwords"]
        for config in corpus["configs"]:
            model = EmbeddingModel(dimensions=config["dimensions"], use_ngrams=config["use_ngrams"])
            step_vectors = []
            for index, (text, expected) in enumerate(zip(texts, config["profiles"])):
                profile = model._profile(text)
                assert [
                    profile.feature_ids.tolist(),
                    profile.indices.tolist(),
                    profile.signed_counts.tolist(),
                ] == expected, text
                if index % 3 != 2:
                    model.observe(text)
                step_vectors.append(model.embed(text).tobytes())
            assert sha256(b"".join(step_vectors)) == config["step_vectors_sha256"]
            final = b"".join(model.embed(text).tobytes() for text in texts)
            assert sha256(final) == config["final_vectors_sha256"]
            state = json.dumps(model.state_dict(), sort_keys=True, separators=(",", ":"))
            assert sha256(state.encode("utf-8")) == config["state_sha256"]
            restored = EmbeddingModel.from_state(model.state_dict())
            vectors = b"".join(restored.embed(text).tobytes() for text in texts)
            assert sha256(vectors) == config["restored_vectors_sha256"]
        for case in corpus["errors"]:
            model = EmbeddingModel()
            with pytest.raises(UnicodeEncodeError) as info:
                model.observe(case["text"])
            assert [type(info.value).__name__, str(info.value)] == case["error"]

    @pytest.mark.parametrize("text", [
        "", " ", "a", "ab", "İ", "İİ", "x²", "ab" * 400, "select " * 300, "zzzz " * 70,
    ])
    def test_short_and_repetitive_texts_match_the_oracle(self, text):
        assert_same_profile(EmbeddingModel(), PerFeatureProfiles(), text)

    @given(st.lists(st.tuples(EMBEDDING_TEXT, st.booleans()), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_profiles_match_the_per_feature_oracle(self, steps):
        model, oracle = EmbeddingModel(dimensions=97), PerFeatureProfiles(dimensions=97)
        for text, observe in steps:
            assert_same_profile(model, oracle, text)
            if observe:
                model.observe(text)
                oracle.observe(text)
        state = model.state_dict()
        assert list(zip(state["features"], state["frequencies"])) == sorted(
            oracle.frequencies.items()
        )
        assert state["document_count"] == sum(observe for _, observe in steps)

    @given(
        st.lists(EMBEDDING_TEXT, max_size=8),
        st.lists(EMBEDDING_TEXT, max_size=6),
        st.lists(EMBEDDING_TEXT, min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_from_state_gives_identical_future_embeddings(self, seen, later, probes):
        model = EmbeddingModel(dimensions=64)
        for text in seen:
            model.observe(text)
        for text in probes:
            model.embed(text)  # interns features no document carries
        restored = EmbeddingModel.from_state(model.state_dict())
        for text in later:
            model.observe(text)
            restored.observe(text)
        for text in probes + later:
            assert model.embed(text).tobytes() == restored.embed(text).tobytes()
        assert restored.state_dict() == model.state_dict()
        # The stored hashes restore exactly what hashing each feature gives.
        for feature, feature_id in restored._feature_ids.items():
            hashed = _stable_hash(feature)
            assert restored._indices[feature_id] == hashed % 64
            assert restored._signs[feature_id] == (1.0 if (hashed >> 32) % 2 == 0 else -1.0)

    def test_from_state_rejects_hashes_that_do_not_fit(self):
        model = EmbeddingModel(dimensions=64)
        model.observe("SELECT name FROM singer")
        state = model.state_dict()
        assert len(state["hashes"]) == len(state["features"])
        count = len(state["features"])
        for hashes in (state["hashes"][1:], [0] * count, [65] * count, [-65] * count):
            with pytest.raises(ValueError):
                EmbeddingModel.from_state(dict(state, hashes=hashes))


class TestFailureAtomicAdd:
    """A raising add must leave every serialised state exactly as it was."""

    def test_observe_of_a_lone_surrogate_changes_nothing(self):
        model = EmbeddingModel()
        model.observe("SELECT name FROM singer")
        before = model.state_dict()
        with pytest.raises(UnicodeEncodeError):
            model.observe("SELECT a\ud800bc FROM t")
        with pytest.raises(UnicodeEncodeError):
            model.embed("x\ud800")
        assert model.state_dict() == before
        clean = EmbeddingModel()
        clean.observe("SELECT name FROM singer")
        for text in ("SELECT name FROM t", "SELECT a bc FROM t"):
            model.observe(text)
            clean.observe(text)
            assert model.embed(text).tobytes() == clean.embed(text).tobytes()
        assert model.state_dict() == clean.state_dict()

    @pytest.mark.parametrize("sql, nl, dataset, error", [
        ("SELECT a\ud800 FROM t", "names", "spider", UnicodeEncodeError),
        ("SELECT a FROM t", "lone \udfff surrogate", "spider", UnicodeEncodeError),
        ("SELECT a FROM t", "names", ["not", "hashable"], RetrievalError),
    ])
    def test_example_store_add_changes_nothing(self, sql, nl, dataset, error):
        model = EmbeddingModel()
        store = ExampleStore(model)
        store.add("SELECT name FROM singer", "Singer names.", dataset="spider")
        before_store, before_model = store.state_dict(), model.state_dict()
        with pytest.raises(error):
            store.add(sql, nl, dataset=dataset)
        assert store.state_dict() == before_store
        assert model.state_dict() == before_model
        assert store.add("SELECT a FROM t", "names", dataset="spider").example_id == "ex-00002"
