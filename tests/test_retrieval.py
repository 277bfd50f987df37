"""Tests for embeddings, the vector store, example store and context retriever."""

import base64
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
    VectorStore,
    character_ngrams,
    normalize_whitespace,
    tokenize_text,
)
from repro.retrieval.embedding import _stable_hash
from repro.sql import decompose
from repro.sql.normalizer import sql_keys
from tests.data.make_retrieval_corpus import (
    checkpoint,
    make_small_state,
    make_stores,
    replay,
)

EMBEDDING_CORPUS_PATH = Path(__file__).parent / "data" / "embedding_corpus.json"
RETRIEVAL_CORPUS_PATH = Path(__file__).parent / "data" / "retrieval_corpus.json"


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
        # Vectors are normalised, so the dot product is the cosine similarity.
        assert float(query @ similar) > float(query @ dissimilar)

    def test_deterministic(self):
        left = EmbeddingModel().embed("SELECT a FROM t")
        right = EmbeddingModel().embed("SELECT a FROM t")
        assert np.allclose(left, right)

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
        hits = search(store, "how many students in each term", top_k=1)
        assert hits[0].doc_id == "1"

    def test_metadata_filter(self):
        store = VectorStore()
        store.add("1", "count students", {"dataset": "a"})
        store.add("2", "count students", {"dataset": "b"})
        hits = search(store, "count students", metadata_filter={"dataset": "b"})
        assert [hit.doc_id for hit in hits] == ["2"]

    def test_empty_doc_id_rejected(self):
        with pytest.raises(RetrievalError):
            VectorStore().add("", "text")

    def test_top_k_zero_returns_empty(self):
        store = VectorStore()
        store.add("1", "text")
        assert search(store, "text", top_k=0) == []


class TestExampleStore:
    def test_cold_start_is_empty(self):
        store = ExampleStore()
        assert store.is_empty
        assert retrieve(store, "SELECT a FROM t") == []

    def test_add_and_retrieve(self):
        store = ExampleStore()
        store.add("SELECT COUNT(*) FROM students", "How many students are there?", dataset="beaver")
        store.add("SELECT AVG(salary) FROM employees", "What is the average salary?", dataset="hr")
        results = retrieve(store, "SELECT COUNT(*) FROM students WHERE term = 'fall'", top_k=1)
        assert results[0].nl == "How many students are there?"

    def test_identical_skeleton_excluded(self):
        store = ExampleStore()
        store.add("SELECT a FROM t WHERE b = 'x'", "description one")
        assert retrieve(store, "SELECT a FROM t WHERE b = 'y'") == []
        assert len(retrieve(store, "SELECT a FROM t WHERE b = 'y'", exclude_identical=False)) == 1

    def test_quoted_identifier_is_not_identical_to_bare_words(self):
        # "a b" is one quoted column; a b is column a under the alias b.
        store = ExampleStore()
        store.add('SELECT "a b" FROM t', "The a b column of t.")
        assert skeleton_of('SELECT "a b" FROM t') == 'SELECT "a b" FROM t'
        assert skeleton_of("SELECT a b FROM t") == "SELECT a b FROM t"
        assert [example.sql for example in retrieve(store, "SELECT a b FROM t")] == [
            'SELECT "a b" FROM t'
        ]
        assert store.retrieve_count("SELECT a b FROM t") == 1
        # Quoting style and case do not matter, as in the lexical key.
        assert retrieve(store, "SELECT `A B` FROM T") == []

    def test_supplied_skeletons_match_computed_ones(self):
        store = ExampleStore()
        store.add("SELECT a FROM t WHERE b = 'x'", "description one")
        store.add("SELECT c FROM u", "description two")
        queries = ["SELECT a FROM t WHERE b = 'y'", "SELECT c FROM u WHERE d = 1"]
        skeletons = [skeleton_of(sql) for sql in queries]
        assert store.retrieve_many(queries, skeletons=skeletons) == store.retrieve_many(queries)
        for sql, skeleton in zip(queries, skeletons):
            assert store.retrieve_count(sql, skeleton=skeleton) == store.retrieve_count(sql)

    def test_rejects_empty_fields(self):
        with pytest.raises(RetrievalError):
            ExampleStore().add("", "text")
        with pytest.raises(RetrievalError):
            ExampleStore().add("SELECT 1", "   ")

    def test_dataset_filter(self):
        store = ExampleStore()
        store.add("SELECT a FROM students", "students a", dataset="beaver")
        store.add("SELECT a FROM singers", "singers a", dataset="spider")
        results = retrieve(store, "SELECT b FROM students", dataset="beaver")
        assert all(example.dataset == "beaver" for example in results)

    def test_unknown_example_id_raises(self):
        with pytest.raises(RetrievalError):
            ExampleStore().skeleton("missing")


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


def search(store, query, top_k=5, metadata_filter=None):
    """One query's hits from a store's batched search."""
    return store.search_batch([query], top_k, metadata_filter)[0]


def retrieve(store, sql, **options):
    """One query's examples from an example store's wave retrieval."""
    return store.retrieve_many([sql], **options)[0]


def skeleton_of(sql):
    return sql_keys(sql).skeleton


class LoopStore:
    """The pre-vectorisation O(n) search loop, kept as the ranking oracle.

    It embeds each added text with its own model fed the same add sequence,
    so its vectors are the ones the store under test holds.
    """

    def __init__(self, dimensions=256):
        self.model = EmbeddingModel(dimensions=dimensions)
        self.entries = {}

    def add(self, doc_id, text, metadata=None):
        self.model.observe(text)
        self.entries[doc_id] = (self.model.embed(text), dict(metadata or {}))

    def search(self, query, top_k=5, metadata_filter=None):
        query_vector = self.model.embed(query)
        hits = []
        for doc_id, (vector, metadata) in self.entries.items():
            if metadata_filter and any(
                metadata.get(key) != value for key, value in metadata_filter.items()
            ):
                continue
            score = float(np.dot(query_vector, vector))
            if score < 0.0:
                continue
            hits.append((doc_id, score))
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

    def _stores(self, documents=None):
        store, oracle = VectorStore(), LoopStore()
        for doc_id, text, metadata in documents or self.TEXTS:
            store.add(doc_id, text, metadata)
            oracle.add(doc_id, text, metadata)
        return store, oracle

    @staticmethod
    def _assert_matches_reference(stores, query, **kwargs):
        store, oracle = stores
        hits = search(store, query, **kwargs)
        assert [(hit.doc_id, pytest.approx(hit.score)) for hit in hits] == [
            (doc_id, pytest.approx(score)) for doc_id, score in oracle.search(query, **kwargs)
        ]

    def test_ranking_matches_reference(self):
        self._assert_matches_reference(self._stores(), "students enrolled per term", top_k=4)

    def test_ranking_with_metadata_filter(self):
        self._assert_matches_reference(
            self._stores(), "count students", top_k=3, metadata_filter={"dataset": "beaver"}
        )

    def test_negative_scores_are_never_returned(self):
        store, oracle = self._stores()
        for query in ("count students per term", "zzz qqq", "salary"):
            hits = search(store, query, top_k=len(self.TEXTS))
            assert all(hit.score >= 0.0 for hit in hits)
            self._assert_matches_reference((store, oracle), query, top_k=len(self.TEXTS))

    def test_tie_break_by_doc_id(self):
        # Two rows restored from one stored vector are a true score tie.
        store = VectorStore()
        store.add("z-dup", "count students per term")
        store.add("other", "average salary per department")
        state = store.state_dict()
        rows = np.frombuffer(base64.b64decode(state["vectors"]), dtype="<f8").reshape(2, -1)
        state["entries"].append({"doc_id": "a-dup", "text": "copy", "metadata": {}})
        state["vectors"] = base64.b64encode(np.vstack([rows, rows[:1]]).tobytes()).decode()
        restored = VectorStore.from_state(state)
        hits = search(restored, "count students per term", top_k=2)
        assert [hit.doc_id for hit in hits] == ["a-dup", "z-dup"]
        assert hits[0].score == hits[1].score

    def test_search_batch_matches_scalar_search(self):
        store, _ = self._stores()
        queries = ["count students", "salary by department", "purchase orders"]
        batched = store.search_batch(queries, top_k=3)
        for query, hits in zip(queries, batched):
            assert hits == search(store, query, top_k=3)

    def test_search_ids_matches_search(self):
        store, _ = self._stores()
        queries = ["count students", "salary by department"]
        for metadata_filter in (None, {"dataset": "hr"}):
            hit_lists = [
                search(store, query, top_k=4, metadata_filter=metadata_filter)
                for query in queries
            ]
            assert store.search_ids(
                queries, top_k=4, metadata_filter=metadata_filter
            ) == [[hit.doc_id for hit in hits] for hits in hit_lists]

    def test_add_replaces_existing_doc(self):
        store, oracle = self._stores()
        search(store, "invoices", metadata_filter={"dataset": "it"})  # builds the mask
        for target in (store, oracle):
            target.add("d04", "totally different text about invoices", {"dataset": "fin"})
        assert len(store) == len(self.TEXTS)
        hits = search(store, "invoices", top_k=1, metadata_filter={"dataset": "fin"})
        assert [hit.doc_id for hit in hits] == ["d04"]
        assert search(store, "invoices", metadata_filter={"dataset": "it"}) == []
        # The replacement keeps its row, so snapshots keep insertion order.
        assert [entry["doc_id"] for entry in store.state_dict()["entries"]] == [
            doc_id for doc_id, _, _ in self.TEXTS
        ]
        self._assert_matches_reference((store, oracle), "invoices", top_k=8)

    def test_growth_beyond_initial_capacity(self):
        store = VectorStore()
        for index in range(150):  # > the 64-row initial matrix
            store.add(f"doc-{index:03d}", f"record number {index} of the stress corpus")
        assert len(store) == 150
        hits = search(store, "record number 42", top_k=5)
        assert "doc-042" in [hit.doc_id for hit in hits]

    def test_filter_masks_track_adds_and_growth(self):
        # Masks built early must follow later adds, including the ones that
        # grow the matrix past its initial 64 rows.
        datasets = ["beaver", "hr", "it"]
        documents = [
            (f"doc-{index:03d}", f"{datasets[index % 3]} corpus record number {index}",
             {"dataset": datasets[index % 3]})
            for index in range(100)
        ]
        store, oracle = self._stores(documents[:10])
        for dataset in datasets:
            search(store, "record", top_k=2, metadata_filter={"dataset": dataset})
        for doc_id, text, metadata in documents[10:]:
            store.add(doc_id, text, metadata)
            oracle.add(doc_id, text, metadata)
        for dataset in datasets:
            for query in ("corpus record", "record number 10", "record number 99"):
                self._assert_matches_reference(
                    (store, oracle), query, top_k=5, metadata_filter={"dataset": dataset}
                )

    def test_state_roundtrip_scores_bit_identically(self):
        store, _ = self._stores()
        clone = VectorStore.from_state(store.state_dict())
        assert clone.state_dict() == store.state_dict()
        for metadata_filter in (None, {"dataset": "beaver"}):
            query = "count students per term"
            assert search(clone, query, top_k=4, metadata_filter=metadata_filter) == search(store, 
                query, top_k=4, metadata_filter=metadata_filter
            )


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

    def test_supplied_keys_and_references_give_the_same_contexts(self, hr_schema):
        sql = (
            "SELECT name FROM employees WHERE dept_id IN "
            "(SELECT dept_id FROM departments WHERE budget > 5)"
        )
        units = decompose(sql).units
        sqls = [unit.sql for unit in units]
        plain = ContextRetriever(hr_schema)
        plain.record_annotation("SELECT name FROM employees", "Employee names.")
        hinted = ContextRetriever(hr_schema)
        hinted.record_annotation(
            "SELECT name FROM employees",
            "Employee names.",
            keys=sql_keys("SELECT name FROM employees"),
        )
        expected = plain.retrieve_batch(sqls)
        contexts = hinted.retrieve_batch(
            sqls,
            asts=[unit.query for unit in units],
            keys=[unit.keys for unit in units],
            references=[(unit.tables, unit.columns) for unit in units],
        )
        assert contexts == expected
        unit = units[-1]
        assert hinted.retrieve(unit.sql, keys=unit.keys) == plain.retrieve(unit.sql)
        assert hinted.example_count(unit.sql, keys=unit.keys) == plain.example_count(unit.sql)
        assert expected[-1].ambiguous_columns == {"dept_id": ["employees", "departments"]}

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


class TestRetrievalCorpus:
    """Replays ``retrieval_corpus.json``, written by the dataset-sharded archive.

    A store holding one dataset scored against one shard matrix, so the
    single index must reproduce it bit for bit.  The mixed store scored
    each dataset against its own matrix; one matrix over every row keeps
    ids and order but may differ from it in a score's last ULP.
    """

    @pytest.fixture(scope="class")
    def corpus(self):
        return json.loads(RETRIEVAL_CORPUS_PATH.read_text(encoding="ascii"))

    @staticmethod
    def assert_scores_close(replayed, recorded):
        for point, expected in zip(replayed, recorded, strict=True):
            assert point["after"] == expected["after"]
            for call, want in zip(point["calls"], expected["calls"], strict=True):
                for key in ("hits", "batch_hits"):
                    assert [doc for doc, _ in call[key]] == [doc for doc, _ in want[key]]
                    assert [float.fromhex(score) for _, score in call[key]] == pytest.approx(
                        [float.fromhex(score) for _, score in want[key]]
                    )
                rest = {key for key in want if key not in ("hits", "batch_hits")}
                assert {key: call[key] for key in rest} == {key: want[key] for key in rest}

    def test_recorded_configurations_are_the_generated_ones(self, corpus):
        fields = ("name", "mixed", "sequence", "queries", "filters")
        assert [
            {field: config[field] for field in fields} for config in corpus["stores"]
        ] == make_stores(corpus["seed"])
        assert {
            field: corpus["small"][field] for field in (*fields, "dimensions")
        } == make_small_state(corpus["seed"])

    def test_one_dataset_stores_replay_bit_for_bit(self, corpus):
        single = [config for config in corpus["stores"] if not config["mixed"]]
        assert len(single) == 3
        for config in single:
            _, checkpoints = replay(config)
            assert checkpoints == config["checkpoints"], config["name"]

    def test_mixed_store_keeps_ids_and_order(self, corpus):
        (config,) = [config for config in corpus["stores"] if config["mixed"]]
        _, checkpoints = replay(config)
        self.assert_scores_close(checkpoints, config["checkpoints"])

    def test_recorded_state_loads_and_retrieves_identically(self, corpus):
        small = corpus["small"]
        loaded = ExampleStore()
        loaded.load_state(small["state"])
        calls = checkpoint(loaded, small["queries"], small["filters"])
        last = small["checkpoints"][-1]
        self.assert_scores_close([{"after": last["after"], "calls": calls}], [last])
        rebuilt, _ = replay(small, EmbeddingModel(dimensions=small["dimensions"]))
        assert calls == checkpoint(rebuilt, small["queries"], small["filters"])

    def test_state_dict_is_the_recorded_one_without_shard_key(self, corpus):
        small = corpus["small"]
        expected = json.loads(json.dumps(small["state"]))
        del expected["vector_store"]["shard_key"]
        rebuilt, _ = replay(small, EmbeddingModel(dimensions=small["dimensions"]))
        assert rebuilt.state_dict() == expected
        loaded = ExampleStore()
        loaded.load_state(small["state"])
        assert loaded.state_dict() == expected


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
