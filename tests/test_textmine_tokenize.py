"""Tests for repro.textmine.tokenize."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.textmine.tokenize import (
    Token,
    find_normalized,
    ngrams,
    normalize,
    sentences,
    tokens,
    word_tokens,
)


class TestNormalize:
    def test_collapses_whitespace(self):
        assert normalize("a  b\t c\n d") == "a b c d"

    def test_unifies_curly_quotes(self):
        assert normalize("‘a’ “b”") == "'a' \"b\""

    def test_unifies_dashes(self):
        assert normalize("a–b—c") == "a-b-c"

    def test_strips_edges(self):
        assert normalize("  hello  ") == "hello"

    def test_empty_string(self):
        assert normalize("") == ""


class TestFindNormalized:
    def test_matches_across_whitespace_runs_and_line_breaks(self):
        text = "Intro.\n\nWe   met\r\noperators."
        assert find_normalized(text, "We met operators.") == 8

    def test_matches_curly_quotes_and_dashes(self):
        text = "x \u201cwe\u2019re\u201d \u2013 here"
        assert find_normalized(text, "\"we're\" - here") == 2

    def test_missing_span(self):
        assert find_normalized("We met operators.", "We met users.") == -1

    @settings(max_examples=200, deadline=None)
    @given(st.text(
        alphabet=st.sampled_from(
            list("aZ.?! (9'\"-\n\t\r") + ["\u00a0", "\u2018", "\u2019",
                                        "\u201c", "\u201d", "\u2013", "\u2014"]
        ),
        max_size=60,
    ))
    def test_every_sentence_is_found_in_the_raw_text(self, text):
        for sentence in sentences(text):
            at = find_normalized(text, sentence)
            assert at >= 0
            assert normalize(text[at]) == sentence[0]
            assert normalize(text[at:]).startswith(sentence)


class TestSentences:
    def test_basic_split(self):
        assert sentences("We met operators. They ran IXPs.") == [
            "We met operators.",
            "They ran IXPs.",
        ]

    def test_keeps_abbreviations_together(self):
        result = sentences("See Rosa et al. 2021 for details. It is good.")
        assert len(result) == 2
        assert "et al." in result[0]

    def test_question_and_exclamation(self):
        result = sentences("Why peer? Because it is cheaper! Indeed.")
        assert len(result) == 3

    def test_single_sentence_no_terminal(self):
        assert sentences("no terminal punctuation") == [
            "no terminal punctuation"
        ]

    def test_empty_text(self):
        assert sentences("") == []

    def test_numbers_can_start_sentences(self):
        result = sentences("We saw growth. 40 ISPs joined.")
        assert result[1].startswith("40")


class TestTokens:
    def test_spans_recover_surface(self):
        text = "peering, at IXPs!"
        for token in tokens(text):
            assert text[token.start:token.end] == token.text

    def test_word_flag(self):
        token_list = list(tokens("hi!"))
        assert token_list[0].is_word
        assert not token_list[1].is_word

    def test_token_lower(self):
        assert Token("BGP", 0, 3).lower() == "bgp"


class TestWordTokens:
    def test_drops_punctuation(self):
        assert word_tokens("Mesh networks, community-run!") == [
            "mesh", "networks", "community-run",
        ]

    def test_case_preserved_when_requested(self):
        assert word_tokens("BGP table", lowercase=False) == ["BGP", "table"]

    def test_apostrophes_stay_joined(self):
        assert word_tokens("don't stop") == ["don't", "stop"]

    def test_numbers_included(self):
        assert word_tokens("AS64500 announced 3 prefixes") == [
            "as64500", "announced", "3", "prefixes",
        ]


class TestNgrams:
    def test_bigrams(self):
        assert ngrams(["a", "b", "c"], 2) == [("a", "b"), ("b", "c")]

    def test_unigrams(self):
        assert ngrams(["x", "y"], 1) == [("x",), ("y",)]

    def test_n_longer_than_sequence(self):
        assert ngrams(["a"], 3) == []

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ngrams(["a"], 0)
