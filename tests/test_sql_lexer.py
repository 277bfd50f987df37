"""Unit tests for the SQL lexer."""

import json
import sys
import threading
from pathlib import Path

import pytest

from repro.errors import LexError
from repro.sql import lexer
from repro.sql.lexer import tokenize
from repro.sql.tokens import Token, TokenKind

CORPUS_PATH = Path(__file__).parent / "data" / "lexer_corpus.json"


def lex_outcome(text):
    """Tokens as plain tuples, or the LexError as (message, position, line)."""
    try:
        return [(t.kind.name, t.value, t.position, t.line) for t in tokenize(text)]
    except LexError as error:
        return ("error", str(error), error.position, error.line)


class TestBasicTokens:
    def test_keywords_are_uppercased(self):
        tokens = tokenize("select From wHeRe")
        assert [t.value for t in tokens] == ["SELECT", "FROM", "WHERE"]
        assert all(t.kind is TokenKind.KEYWORD for t in tokens)

    def test_identifiers_keep_case(self):
        tokens = tokenize("SELECT MyColumn FROM MyTable")
        assert tokens[1].value == "MyColumn"
        assert tokens[1].kind is TokenKind.IDENTIFIER
        assert tokens[3].value == "MyTable"

    def test_integer_literal(self):
        token = tokenize("42")[0]
        assert token.kind is TokenKind.NUMBER
        assert token.value == "42"

    def test_decimal_literal(self):
        token = tokenize("3.14")[0]
        assert token.kind is TokenKind.NUMBER
        assert token.value == "3.14"

    def test_scientific_notation(self):
        token = tokenize("1.5e10")[0]
        assert token.kind is TokenKind.NUMBER
        assert token.value == "1.5e10"

    def test_string_literal(self):
        token = tokenize("'hello world'")[0]
        assert token.kind is TokenKind.STRING
        assert token.value == "hello world"

    def test_string_with_escaped_quote(self):
        token = tokenize("'it''s'")[0]
        assert token.value == "it's"

    def test_double_quoted_identifier(self):
        token = tokenize('"Weird Name"')[0]
        assert token.kind is TokenKind.QUOTED_IDENTIFIER
        assert token.value == "Weird Name"

    @pytest.mark.parametrize("text, name", [
        ('"a""b"', 'a"b'), ('""""', '"'), ('"a``b"', "a``b"),
        ("`a``b`", "a`b"), ("````", "`"), ('`a""b`', 'a""b'),
    ])
    def test_doubled_quote_inside_quoted_identifier_is_one_quote(self, text, name):
        (token,) = tokenize(text)
        assert token.kind is TokenKind.QUOTED_IDENTIFIER
        assert token.value == name

    def test_backtick_identifier(self):
        token = tokenize("`order`")[0]
        assert token.kind is TokenKind.QUOTED_IDENTIFIER
        assert token.value == "order"

    def test_punctuation_and_operators(self):
        tokens = tokenize("(a, b) = c.d;")
        kinds = [t.kind for t in tokens]
        assert TokenKind.PUNCTUATION in kinds
        assert TokenKind.OPERATOR in kinds

    def test_multi_char_operators(self):
        values = [t.value for t in tokenize("a <> b >= c <= d != e || f")]
        assert "<>" in values
        assert ">=" in values
        assert "<=" in values
        assert "||" in values
        # != is normalised to <>
        assert values.count("<>") == 2

    def test_named_parameter(self):
        token = tokenize(":limit")[0]
        assert token.kind is TokenKind.PARAMETER
        assert token.value == ":limit"

    def test_positional_parameter(self):
        token = tokenize("?")[0]
        assert token.kind is TokenKind.PARAMETER


class TestCommentsAndWhitespace:
    def test_line_comment_skipped(self):
        tokens = tokenize("SELECT 1 -- trailing comment\n+ 2")
        assert [t.value for t in tokens] == ["SELECT", "1", "+", "2"]

    def test_block_comment_skipped(self):
        tokens = tokenize("SELECT /* a block\ncomment */ 1")
        assert [t.value for t in tokens] == ["SELECT", "1"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("SELECT /* oops")

    def test_whitespace_only_input(self):
        assert tokenize("   \n\t  ") == []

    def test_line_numbers_tracked(self):
        tokens = tokenize("SELECT\n1")
        assert tokens[0].line == 1
        assert tokens[1].line == 2


class TestLexErrors:
    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize("SELECT 'oops")

    def test_unterminated_quoted_identifier_raises(self):
        with pytest.raises(LexError):
            tokenize('SELECT "oops')

    def test_doubled_quote_does_not_close_an_identifier(self):
        # '"a""' is an unterminated identifier starting at 7, not "a"
        # followed by a stray quote.
        with pytest.raises(LexError) as info:
            tokenize('SELECT "a"" FROM t')
        assert (str(info.value), info.value.position) == ("unterminated quoted identifier", 7)

    def test_unexpected_character_raises(self):
        with pytest.raises(LexError):
            tokenize("SELECT @")

    def test_malformed_number_raises(self):
        with pytest.raises(LexError):
            tokenize("SELECT 1.2.3")


class TestTokenHelpers:
    def test_is_keyword(self):
        token = Token(TokenKind.KEYWORD, "SELECT")
        assert token.is_keyword("SELECT")
        assert token.is_keyword("SELECT", "FROM")
        assert not token.is_keyword("FROM")

    def test_is_punctuation(self):
        token = Token(TokenKind.PUNCTUATION, "(")
        assert token.is_punctuation("(")
        assert not token.is_punctuation(")")

    def test_is_operator(self):
        token = Token(TokenKind.OPERATOR, "=")
        assert token.is_operator("=", "<>")
        assert not token.is_operator("<")


class TestGoldenCorpus:
    """Replays strings lexed by the character-at-a-time lexer this one replaced."""

    def test_corpus_replays_exactly(self):
        corpus = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
        assert len(corpus["cases"]) == corpus["count"] == 2000
        mismatches = []
        for case in corpus["cases"]:
            if "error" in case:
                expected = ("error", *case["error"])
            else:
                expected = [tuple(token) for token in case["tokens"]]
            if lex_outcome(case["text"]) != expected:
                mismatches.append(case["text"])
        assert mismatches == []


class TestScan:
    """``scan`` walks the master regex without raising, for the log splitter."""

    @staticmethod
    def corpus_cases():
        return json.loads(CORPUS_PATH.read_text(encoding="utf-8"))["cases"]

    def test_spans_start_where_tokens_start(self):
        for case in self.corpus_cases():
            if "error" not in case:
                spans = list(lexer.scan(case["text"]))
                assert [start for _, start, _ in spans] == [token[2] for token in case["tokens"]]
                assert not any(kind.startswith("bad_") for kind, _, _ in spans)

    def test_text_that_does_not_lex_is_scanned_to_the_end(self):
        marked = ("unexpected character", "unterminated string", "unterminated quoted")
        checked = 0
        for case in self.corpus_cases():
            if "error" in case and case["error"][0].startswith(marked):
                spans = list(lexer.scan(case["text"]))
                bad = {start for kind, start, _ in spans if kind.startswith("bad_")}
                assert case["error"][1] in bad, case["text"]
                checked += 1
        assert checked > 100

    def test_scanning_goes_on_after_a_bad_span(self):
        text = "SELECT 'open; SELECT #; SELECT 1"
        kinds = [(kind, text[start:stop]) for kind, start, stop in lexer.scan(text)]
        assert ("bad_string", "'") in kinds and ("bad_char", "#") in kinds
        assert kinds[-1] == ("number", "1")


class TestPitfalls:
    def test_unterminated_block_comment_reports_end_of_text(self):
        text = "SELECT 1\n/* never\nclosed"
        with pytest.raises(LexError) as info:
            tokenize(text)
        assert str(info.value) == "unterminated block comment"
        assert (info.value.position, info.value.line) == (len(text), 3)

    def test_unterminated_comment_is_not_divide_times(self):
        assert lex_outcome("a /*/") == ("error", "unterminated block comment", 5, 1)
        assert lex_outcome("a /**/ b") == [
            ("IDENTIFIER", "a", 0, 1), ("IDENTIFIER", "b", 7, 1)
        ]

    def test_unterminated_string_after_escape_reports_opening_quote(self):
        assert lex_outcome("x = 'a'' ") == ("error", "unterminated string literal", 4, 1)
        assert lex_outcome("'" * 3) == ("error", "unterminated string literal", 0, 1)
        assert lex_outcome("'" * 4) == [("STRING", "'", 0, 1)]

    def test_line_separator_is_whitespace_without_a_new_line(self):
        assert lex_outcome("SELECT\u20281\n2") == [
            ("KEYWORD", "SELECT", 0, 1), ("NUMBER", "1", 7, 1), ("NUMBER", "2", 9, 2)
        ]
        assert lex_outcome("a\u00a0b") == [("IDENTIFIER", "a", 0, 1), ("IDENTIFIER", "b", 2, 1)]

    def test_non_decimal_digits_lex_as_numbers(self):
        assert lex_outcome("²0") == [("NUMBER", "²0", 0, 1)]
        assert lex_outcome("1² 1e¹") == [
            ("NUMBER", "1²", 0, 1), ("NUMBER", "1e¹", 3, 1)
        ]
        assert lex_outcome(".²") == [("NUMBER", ".²", 0, 1)]
        assert lex_outcome("٣.٣") == [("NUMBER", "٣.٣", 0, 1)]

    def test_numeric_non_letters_cannot_start_words(self):
        assert lex_outcome("½") == ("error", "unexpected character '½'", 0, 1)
        assert lex_outcome("Ⅳx") == ("error", "unexpected character 'Ⅳ'", 0, 1)
        assert lex_outcome("a½²") == [("IDENTIFIER", "a½²", 0, 1)]

    def test_parameters_need_a_letter_after_the_colon(self):
        assert lex_outcome(":été") == [("PARAMETER", ":été", 0, 1)]
        assert lex_outcome(":²") == ("error", "unexpected character ':'", 0, 1)
        assert lex_outcome(":½") == ("error", "unexpected character ':'", 0, 1)

    def test_unicode_words_and_keyword_folding(self):
        assert lex_outcome("straße ſelect") == [
            ("IDENTIFIER", "straße", 0, 1), ("KEYWORD", "SELECT", 7, 1)
        ]


class TestSharedLex:
    def test_mutating_the_returned_list_does_not_leak(self):
        first = tokenize("SELECT a FROM t")
        first.append(Token(TokenKind.IDENTIFIER, "junk"))
        first[0] = Token(TokenKind.IDENTIFIER, "other")
        assert [t.value for t in tokenize("SELECT a FROM t")] == ["SELECT", "a", "FROM", "t"]

    def test_threads_see_the_sequential_result(self):
        texts = [
            f"SELECT c{index % 37}, '{index}é' FROM t{index % 11} WHERE x > {index}.5"
            + (" AND y = ²" if index % 3 == 0 else "")
            for index in range(200)
        ]
        expected = [lex_outcome(text) for text in texts]
        lexer._lex.cache_clear()
        results = {}

        def worker(offset):
            results[offset] = [lex_outcome(text) for text in texts[offset:] + texts[:offset]]

        offsets = (0, 50, 100, 150)
        threads = [threading.Thread(target=worker, args=(offset,)) for offset in offsets]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == list(offsets)
        for offset, outcome in results.items():
            assert outcome == expected[offset:] + expected[:offset]
