"""Build the embedding golden corpus replayed by ``tests/test_retrieval.py``.

The committed ``embedding_corpus.json`` was written by the per-feature
``EmbeddingModel`` loop that preceded the vectorized one, so replaying it
checks that the rewrite kept every token, every feature profile (interned
ids, hashed indices, signed counts), every vector, the canonical
``state_dict()`` (digested in the list form it had then, see
``tests/model_state.py``) and every error.  Regenerating it with the current
model only re-records today's behaviour.

    PYTHONPATH=src python tests/data/make_embedding_corpus.py [--seed 16] [--count 400]

Each configuration replays one fixed sequence on one model: for text ``i``
the profile is taken, the text is observed unless ``i % 3 == 2``, and it is
embedded.  The per-step vectors, the final vectors of every text, the final
``state_dict()`` and the vectors of a model rebuilt with ``from_state`` are
recorded as sha256 digests.  Error texts (lone surrogates) run on a fresh
model each and record the exception type and message.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from repro.retrieval.embedding import EmbeddingModel  # noqa: E402
from repro.retrieval.text import tokenize_text  # noqa: E402
from tests.model_state import list_form  # noqa: E402

#: Hand-picked edge cases: Unicode case mapping and digits, whitespace runs,
#: texts shorter than a trigram, identifier splitting, and counts of one
#: word and one trigram far above any small-count table.
SPECIAL = [
    "", " ", "\t\n ", "a", "ab", " a ", "a b", "abc", "İ", "İstanbul", "İİİ",
    "ß", "Straße STRASSE", "²", "x²", "½", "a½ cup", "٣.٣ and ٣٣", "ΣΑΣ ΟΔΟΣ",
    "ǅemal", "ﬁle ﬂow", "café naïve", "日本語のテキスト", "😀 emoji 😀😀",
    "\U0010ffff\U0010ffffz", "nb\u00a0sp\u2028ls\x1cfs\x0bvt",
    "  lots   of\t\twhitespace \n\n runs  ", "x1Y", "1.5abc", "HTTPServer",
    "getHTTPResponseCode", "MOIRA_LIST_NAME equals 'EECS'", "__init__ a__b _",
    "The select of the group", "1.5 2.25 3. .4 10.0.1",
    "ab" * 400, "select " * 300, "zzzz " * 70,
    "SELECT T1.name, COUNT(*) FROM singer AS T1 JOIN concert AS T2 "
    "ON T1.singer_id = T2.singer_id GROUP BY T1.name ORDER BY COUNT(*) DESC\n"
    "How many concerts did each singer perform in, most first?",
]

#: Texts whose trigrams contain a lone surrogate, which cannot be hashed.
ERRORS = ["a\ud800bc", "\udfff", "x\ud800", "ab\udc80", "SELECT name \ud83d FROM t"]

WORDS = [
    "SELECT", "select", "FROM", "where", "GROUP", "BY", "order", "count", "avg",
    "name", "age", "singer_id", "T1", "T2", "acad_term", "MOIRA_LIST_NAME",
    "CamelCase", "HTTPServer", "x1Y", "1.5abc", "42", "3.14", "the", "of", "a",
    "list", "students", "older", "than", "How", "many", "İ", "ß", "²", "½",
    "٣", "é", "日本", "😀", "ΣΑΣ", "'EECS'", "(*)", ">=", "=", ",", ".", ";",
]
SEPARATORS = [" ", " ", " ", "", "\n", "\t", "  ", "_", ".", " "]


def make_texts(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    texts = list(SPECIAL)
    for index in range(count):
        if index % 2 == 0:
            words = [rng.choice(WORDS) for _ in range(rng.randint(1, 24))]
            texts.append("".join(word + rng.choice(SEPARATORS) for word in words))
        else:
            alphabet = "abcxyzABCXYZ_019. \n" + "İß²½٣é日😀"
            texts.append("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40))))
    return texts


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def state_digest(model: EmbeddingModel) -> str:
    canonical = json.dumps(list_form(model.state_dict()), sort_keys=True, separators=(",", ":"))
    return digest(canonical.encode("utf-8"))


def replay(texts: list[str], dimensions: int, use_ngrams: bool) -> dict:
    model = EmbeddingModel(dimensions=dimensions, use_ngrams=use_ngrams)
    profiles = []
    step_vectors = []
    for index, text in enumerate(texts):
        profile = model._profile(text)
        profiles.append([
            profile.feature_ids.tolist(),
            profile.indices.tolist(),
            profile.signed_counts.tolist(),
        ])
        if index % 3 != 2:
            model.observe(text)
        step_vectors.append(model.embed(text).tobytes())
    final_vectors = b"".join(model.embed(text).tobytes() for text in texts)
    restored = EmbeddingModel.from_state(model.state_dict())
    restored_vectors = b"".join(restored.embed(text).tobytes() for text in texts)
    return {
        "dimensions": dimensions,
        "use_ngrams": use_ngrams,
        "profiles": profiles,
        "step_vectors_sha256": digest(b"".join(step_vectors)),
        "final_vectors_sha256": digest(final_vectors),
        "state_sha256": state_digest(model),
        "restored_vectors_sha256": digest(restored_vectors),
    }


def record_error(text: str) -> list[str]:
    try:
        EmbeddingModel().observe(text)
    except Exception as error:  # noqa: BLE001 - the type is what is recorded
        return [type(error).__name__, str(error)]
    raise AssertionError(f"{text!r} did not raise")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=16)
    parser.add_argument("--count", type=int, default=400)
    parser.add_argument(
        "--out", default=str(Path(__file__).with_name("embedding_corpus.json"))
    )
    args = parser.parse_args()
    texts = make_texts(args.seed, args.count)
    payload = {
        "seed": args.seed,
        "count": args.count,
        "texts": texts,
        "tokens": [tokenize_text(text) for text in texts],
        "tokens_without_stopwords": [
            tokenize_text(text, remove_stopwords=True) for text in texts
        ],
        "configs": [replay(texts, 256, True), replay(texts, 61, False)],
        "errors": [{"text": text, "error": record_error(text)} for text in ERRORS],
    }
    with open(args.out, "w", encoding="ascii") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {len(texts)} texts and {len(ERRORS)} error cases to {args.out}")


if __name__ == "__main__":
    main()
