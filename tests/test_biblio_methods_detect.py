"""Tests for repro.bibliometrics.methods_detect.

The single-pass :class:`LexiconScanner` must be *exactly* equivalent to
the per-family ``finditer`` reference (``tests.lexicon_oracle``): same
mentions, same surfaces, same offsets — including on adversarial
lexicons with cross-family shared prefixes, overlapping matches and stem
collisions, and on text whose case mapping is not ASCII's.
"""

import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bibliometrics.corpus import Paper, Venue, Corpus
from repro.bibliometrics.methods_detect import (
    DEFAULT_SCANNER,
    HUMAN_METHOD_FAMILIES,
    METHOD_FAMILIES,
    LexiconScanner,
    classify_paper,
    detect_methods,
    fold_case,
    uses_human_methods,
)
from tests.lexicon_oracle import detect_multipass
from tests.test_biblio_shardscan import NON_ASCII, phrase_forms


def make_paper(abstract, body=""):
    return Paper("p", "Title", abstract, "v", 2020, body=body)


class TestDetect:
    def test_finds_participatory(self):
        mentions = detect_methods(
            "We conducted participatory action research with operators."
        )
        assert any(m.family == "participatory" for m in mentions)

    def test_stem_wildcards(self):
        mentions = detect_methods("Our ethnographic fieldwork spanned a year.")
        families = {m.family for m in mentions}
        assert "ethnography" in families

    def test_case_insensitive(self):
        assert detect_methods("SEMI-STRUCTURED INTERVIEWS with staff")

    def test_offsets_recorded(self):
        text = "xxxx testbed yyyy"
        mention = detect_methods(text, families=("testbed",))[0]
        assert text[mention.start:mention.start + len("testbed")] == "testbed"

    def test_family_filter(self):
        text = "We interviewed users on our testbed."
        only = detect_methods(text, families=("testbed",))
        assert {m.family for m in only} == {"testbed"}

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError):
            detect_methods("x", families=("astrology",))

    def test_no_false_positive_on_plain_text(self):
        mentions = detect_methods(
            "We present a new congestion control algorithm with proofs."
        )
        human = [m for m in mentions if m.is_human_method]
        assert human == []

    def test_sorted_by_offset(self):
        text = "A focus group met. Then a diary study started."
        mentions = detect_methods(text)
        offsets = [m.start for m in mentions]
        assert offsets == sorted(offsets)


#: Adversarial (lexicon, text) pairs stressing scanner edge cases.
EQUIVALENCE_CASES = [
    # cross-family matches at the same offset, alternation shadowing
    ({"a": ("foo bar", "foo"), "b": ("foo bar baz", "bar")},
     "foo bar baz foo bar foo"),
    # stem vs exact collision on the same token
    ({"a": ("ab*",), "b": ("abc",)}, "abc abd ab abcd ABC"),
    # shared common first word across families
    ({"x": ("we measure*", "we"), "y": ("we measured twice",)},
     "we measured twice and we measure often we"),
    # hyphenated first tokens (token index key is the leading word chunk)
    ({"p": ("co-design",), "q": ("co-located co-design",)},
     "co-located co-design and co-design again and co-author"),
    # overlapping phrases within and across families
    ({"m": ("case study", "case studies"), "n": ("study case",)},
     "case study case studies study case case study"),
    # stem family vs multi-word family starting with the stemmed word
    ({"s": ("ethnograph*",), "t": ("ethnography of networks",)},
     "ethnography of networks ethnographic ETHNOGRAPHY"),
    # one family's phrase starts inside another family's match
    ({"long": ("a b c d",), "short": ("b c",)}, "a b c d b c a b c d"),
    # letters whose case mapping is not ASCII's, which IGNORECASE matches
    ({"s": ("survey of", "kin*"), "i": ("in-depth",)},
     "\u017furvey of \u212aINSHIP \u0130n-depth \u0131N-DEPTH survey\nof"),
    # empty text and no-hit text
    ({"a": ("anything",)}, ""),
    ({"a": ("anything",)}, "nothing here matches at all"),
    # chunks longer than a token head that share its 8 bytes, as exact
    # first chunks, stems and second chunks
    ({"a": ("particip*",), "b": ("participatory design",), "c": ("participatorily",),
      "d": ("we participated", "we participate in")},
     "participatory design participatory participatorily particip participating "
     "we participated we participate in we particip"),
    # a token both gated (a two-word phrase) and admitted by a short stem
    ({"a": ("we*",), "b": ("we measure",)}, "we measure we report weekly we"),
    # second chunks where one starts another, under two families
    ({"a": ("case stud*",), "b": ("case study",), "c": ("case studies of",)},
     "case study case studies of case stud case studio case"),
]


class TestSinglePassEquivalence:
    @pytest.mark.parametrize("lexicon,text", EQUIVALENCE_CASES)
    def test_adversarial_lexicons(self, lexicon, text):
        scanner = LexiconScanner(lexicon)
        assert scanner.detect(text) == detect_multipass(scanner, text)

    @pytest.mark.parametrize("lexicon,text", EQUIVALENCE_CASES)
    def test_adversarial_lexicons_single_family_selections(self, lexicon, text):
        scanner = LexiconScanner(lexicon)
        for family in lexicon:
            selection = (family,)
            assert scanner.detect(text, selection) == detect_multipass(
                scanner, text, selection
            )

    @pytest.mark.parametrize("lexicon,text", EQUIVALENCE_CASES)
    def test_adversarial_lexicons_block_scan(self, lexicon, text):
        # An ASCII text takes the numpy prefilter (head tables of every
        # width, follower gates) and must find what detect finds.
        scanner = LexiconScanner(lexicon)
        starts, family_ids = scanner.scan_block(text, fold_case(text))
        found = sorted(zip(starts.tolist(), (scanner.families[i] for i in family_ids)))
        assert found == [(m.start, m.family) for m in scanner.detect(text)]

    def test_default_lexicon_on_representative_texts(self):
        texts = [
            "We conducted participatory action research and a diary study; "
            "semi-structured interviews with operators complement passive "
            "measurements from 12 vantage points and an ns-3 simulation.",
            "Our ethnographic fieldwork (autoethnography included) informed "
            "the co-design of the testbed; we surveyed 200 respondents with "
            "a Likert questionnaire and reflected on our positionality.",
            "case study CASE STUDIES case study " * 10,
            "we we we interviewed we surveyed we measure we simulate",
        ]
        scanner = LexiconScanner(METHOD_FAMILIES)
        for text in texts:
            assert scanner.detect(text) == detect_multipass(scanner, text)

    def test_default_lexicon_on_synthetic_papers(self):
        from tests.synthgen_oracle import SyntheticCorpusConfig, generate_corpus

        corpus, _ = generate_corpus(
            SyntheticCorpusConfig(start_year=2022, end_year=2024, seed=3)
        )
        scanner = LexiconScanner(METHOD_FAMILIES)
        assert len(list(corpus)) > 0
        for paper in corpus:
            text = paper.full_text
            assert scanner.detect(text) == detect_multipass(scanner, text)

    @pytest.mark.parametrize("texts", [
        ["we interviewed staff", "a focus group", "CASE STUDIES of\nrouters"],
        ["caf\u00e9 we interviewed", "na\u00efve focus group", "\u03a3 \u017furvey of"],
    ])
    def test_scan_block_equals_detect(self, texts):
        # An ASCII block takes the numpy prefilter, any other the
        # regex tokens; both must find what detect finds.
        block = "\x00".join(texts)
        starts, family_ids = DEFAULT_SCANNER.scan_block(block, fold_case(block))
        found = sorted(zip(starts.tolist(), (DEFAULT_SCANNER.families[i] for i in family_ids)))
        assert found == [(m.start, m.family) for m in DEFAULT_SCANNER.detect(block)]
        assert len(found) == 3

    def test_detect_methods_uses_the_default_scanner(self):
        text = "A focus group met; fieldwork followed."
        scanner = LexiconScanner(METHOD_FAMILIES)
        assert detect_methods(text) == detect_multipass(scanner, text)


class TestFirstWordIndex:
    def test_followers_only_where_every_phrase_continues(self):
        index = LexiconScanner({
            "a": ("we measure*", "We interviewed"),
            "b": ("in-depth interview*", "in"),
            "c": ("ethnograph*", "case study"),
        }).index
        assert index.exact == {"we": ("a",), "in": ("b",), "case": ("c",)}
        assert index.stems == {"ethnograph": ("c",)}
        assert index.stem_lengths == (10,)
        assert index.followers == {"we": ("interviewed", "measure"), "case": ("study",)}

    def test_phrase_off_token_start_is_not_indexable(self):
        for phrase in ("-dash start", " *wild", ""):
            with pytest.raises(ValueError):
                LexiconScanner({"u": (phrase,), "v": ("plain",)})

    def test_non_ascii_phrase_is_rejected(self):
        # A non-ASCII phrase word can match text that no folded token
        # equals (IGNORECASE matches "\u017f" to "s").
        with pytest.raises(ValueError):
            LexiconScanner({"u": ("na\u00efve design",), "v": ("plain",)})


#: Rewrites into the non-ASCII letters IGNORECASE matches to ASCII ones:
#: "ſ", "ı" and "İ", which ``str.lower`` leaves non-ASCII, and the Kelvin
#: sign, which it lowers to "k".
CASE_REWRITES = (
    str,
    lambda text: text.replace("s", "\u017f"),
    lambda text: text.replace("i", "\u0131"),
    lambda text: text.replace("I", "\u0130").replace("i", "\u0130"),
    lambda text: text.replace("k", "\u212a"),
)


@st.composite
def lexicon_texts(draw):
    """Phrase forms, non-ASCII words and filler, joined by varied gaps."""
    parts = draw(st.lists(
        st.one_of(
            phrase_forms(),
            st.sampled_from(NON_ASCII),
            st.sampled_from(("the", "we", "in", "case", "x", "_", "9", "co-", "-")),
        ),
        max_size=10,
    ))
    seps = [draw(st.sampled_from((" ", "", "\n", ". ", "-", "\x00"))) for _ in parts]
    text = "".join(part + sep for part, sep in zip(parts, seps))
    return draw(st.sampled_from(CASE_REWRITES))(text)


class TestDetectProperties:
    @settings(max_examples=200, deadline=None)
    @given(text=lexicon_texts(), selection=st.sets(st.sampled_from(sorted(METHOD_FAMILIES))))
    def test_detect_equals_multipass_and_selections_filter(self, text, selection):
        mentions = DEFAULT_SCANNER.detect(text)
        assert mentions == detect_multipass(DEFAULT_SCANNER, text)
        assert DEFAULT_SCANNER.detect(text, tuple(selection)) == [
            m for m in mentions if m.family in selection
        ]

    def test_fold_case_is_the_patterns_case_map(self):
        # Over every code point: one character for one, the same word
        # characters, and an ASCII letter exactly where IGNORECASE
        # matches one, that letter.
        chars = "".join(map(chr, range(sys.maxunicode + 1)))
        folded = fold_case(chars)
        assert len(folded) == len(chars)
        assert [m.span() for m in re.finditer(r"\w+", folded)] == [
            m.span() for m in re.finditer(r"\w+", chars)
        ]
        letters = list(re.finditer("[a-z]", chars, re.IGNORECASE))
        assert [m.start() for m in re.finditer("[a-z]", folded)] == [
            m.start() for m in letters
        ]
        assert all(re.fullmatch(folded[m.start()], m.group(), re.IGNORECASE) for m in letters)


class TestClassify:
    def test_counts_per_family(self):
        paper = make_paper(
            "We interviewed operators. We interviewed users. A testbed ran."
        )
        counts = classify_paper(paper)
        assert counts["interviews"] == 2
        assert counts["testbed"] == 1

    def test_body_scanned_too(self):
        paper = make_paper("Plain abstract.", body="A diary study followed.")
        assert "diaries" in classify_paper(paper)

    def test_human_families_subset_of_all(self):
        assert HUMAN_METHOD_FAMILIES <= set(METHOD_FAMILIES)


class TestUsesHumanMethods:
    def test_true_for_interview_paper(self):
        paper = make_paper("Findings draw on in-depth interviews with engineers.")
        assert uses_human_methods(paper)

    def test_false_for_measurement_paper(self):
        paper = make_paper("We measure the system from 40 vantage points.")
        assert not uses_human_methods(paper)

    def test_min_mentions_threshold(self):
        paper = make_paper("One focus group met.")
        assert uses_human_methods(paper, min_mentions=1)
        assert not uses_human_methods(paper, min_mentions=2)
