"""Tests for repro.core.positionality."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import positionality
from repro.core.positionality import (
    FACETS,
    PositionalityStatement,
    disclosure_score,
    extract_statements,
    has_positionality_statement,
)
from tests.positionality_oracle import has_statement_oracle

FULL = PositionalityStatement(
    identity="network engineers",
    location="the Global North",
    beliefs="a feminist, community-based lens",
    affiliations="a public university with industry funding",
    community_ties="ties to rural cooperative ISPs",
    relevance="this standpoint shaped which questions we prioritized",
)


class TestStatement:
    def test_disclosed_facets_in_schema_order(self):
        assert FULL.disclosed_facets() == FACETS

    def test_empty_statement_discloses_nothing(self):
        assert PositionalityStatement().disclosed_facets() == ()

    def test_render_includes_disclosures(self):
        text = FULL.render()
        assert text.startswith("Positionality.")
        assert "network engineers" in text
        assert "Global North" in text

    def test_disclosure_score(self):
        assert disclosure_score(FULL) == 1.0
        assert disclosure_score(PositionalityStatement()) == 0.0
        half = PositionalityStatement(
            identity="x", location="y", beliefs="z"
        )
        assert disclosure_score(half) == 0.5


PAPER_WITH_SECTION = """1 Introduction
We study meshes.

Positionality
We write as practitioners embedded in this community. We are situated
in the Global South. This standpoint shaped which questions we asked.

2 Methods
Interviews were conducted.
"""

PAPER_WITH_INLINE = (
    "Abstract text here. The authors situate themselves as researchers "
    "who grew up in the studied regions; this standpoint shaped the "
    "framing of results. More text follows."
)

PAPER_WITHOUT = """1 Introduction
We present a congestion control algorithm. We measure it at scale.
"""


class TestExtraction:
    def test_section_statement_found(self):
        statements = extract_statements(PAPER_WITH_SECTION)
        assert len(statements) == 1
        assert statements[0].identity
        assert statements[0].location
        assert statements[0].relevance

    def test_inline_statement_found(self):
        statements = extract_statements(PAPER_WITH_INLINE)
        assert len(statements) == 1
        assert statements[0].identity or statements[0].community_ties

    def test_plain_paper_yields_nothing(self):
        assert extract_statements(PAPER_WITHOUT) == []

    def test_source_text_preserved(self):
        statements = extract_statements(PAPER_WITH_SECTION)
        assert "Global South" in statements[0].source_text

    def test_inline_statement_with_whitespace_runs_found(self):
        # The marker sentence is normalized text; looking it up verbatim
        # in the raw text missed it and took an empty window.
        text = (
            "Intro text here.\n\nWe   situate ourselves as members of the "
            "community we study.   We are operators based in the Global South."
        )
        [statement] = extract_statements(text)
        assert statement.identity and statement.location
        assert statement.source_text.startswith("We   situate ourselves")

    @pytest.mark.parametrize("gap", ["\n", "  ", "\r\n", "\u00a0"])
    def test_inline_marker_sentence_broken_across_lines_counts(self, gap):
        text = (
            "Intro text here.\n\nWe situate ourselves as members of the"
            f"{gap}community we study. We are \u201coperators\u201d based in "
            "the Global South."
        )
        assert has_positionality_statement(text)


class TestHasStatement:
    def test_true_for_real_statements(self):
        assert has_positionality_statement(PAPER_WITH_SECTION)
        assert has_positionality_statement(PAPER_WITH_INLINE)

    def test_false_for_plain_papers(self):
        assert not has_positionality_statement(PAPER_WITHOUT)

    def test_citation_alone_does_not_count(self):
        citing = (
            "Prior work discusses positionality [12] in HCI venues. "
            "We measure BGP tables."
        )
        assert not has_positionality_statement(citing)

    def test_rendered_statement_roundtrips(self):
        text = "1 Introduction\nIntro text.\n\nPositionality\n" + FULL.render()
        assert has_positionality_statement(text)

    @pytest.mark.parametrize("marker", [
        "We   situate ourselves", "We situate\nourselves", "we\tsituate  ourselves",
        "The authors situate\r\nthemselves", "Our situated\u00a0knowledge",
    ])
    def test_marker_with_whitespace_run_counts(self, marker):
        # The extractor finds these statements in normalized sentences;
        # a literal marker check missed them.
        text = (
            f"Intro text here.\n\n{marker} as members of the community we "
            "study. We are operators based in the Global South."
        )
        assert has_positionality_statement(text)

    def test_every_marker_contains_an_anchor(self):
        for marker in positionality.STATEMENT_MARKERS:
            assert any(anchor in marker for anchor in positionality.MARKER_ANCHORS)
            assert not any(char.isspace() for anchor in positionality.MARKER_ANCHORS
                           for char in anchor)


class TestSectionConfirmation:
    """Marked papers with a cue in their Positionality section skip the
    extractor; everything else still reaches it."""

    def _decide(self, text):
        with mock.patch.object(
            positionality, "extract_statements", wraps=extract_statements
        ) as extractor:
            decided = has_positionality_statement(text)
        return decided, extractor.call_count

    def test_section_with_cue_skips_extractor(self):
        assert self._decide(PAPER_WITH_SECTION) == (True, 0)

    def test_cue_split_across_lines_is_confirmed(self):
        text = "Positionality\nWe write as practitioners in the Global\r\nSouth."
        assert self._decide(text) == (True, 0)

    @pytest.mark.parametrize("text", [
        "Positionality\nWe measure BGP tables.\n\n2 Methods\nWe are here.",
        "Positionality\n\n2 Methods\nWe write as operators.",
        "Our positionality shaped the study.",
    ])
    def test_unconfirmed_papers_reach_the_extractor(self, text):
        decided, calls = self._decide(text)
        assert calls == 1
        assert decided == has_statement_oracle(text)

    def test_cue_free_section_with_inline_statement_counts(self):
        text = (
            "Positionality\nWe measure BGP tables.\n\n2 Methods\nInterviews ran. "
            "We situate ourselves as members of the community based in Lagos."
        )
        assert self._decide(text) == (True, 1)

    def test_only_the_first_positionality_section_is_confirmed(self):
        # The second section's cue is left to the extractor, which finds
        # it through the inline marker path.
        text = (
            "Positionality\nNothing here.\n\n"
            "4 Positionality\nWe write as network engineers."
        )
        assert self._decide(text) == (True, 1)


#: Header lines the section splitter accepts, positionality or not.
HEADERS = (
    "Positionality", "Positionality Statement", "POSITIONALITY",
    "Positionality.", "  Positionality  ", "# Positionality",
    "## 4 Positionality", "4 Positionality", "4.1 Our Positionality",
    "1 Introduction", "2 Methods", "Related Work", "References",
)

#: Lines that mention positionality but are not headers to the splitter.
NOT_HEADERS = (
    "positionality", "# positionality", "Our positionality",
    "3 Positionality.", "Positionality matters here, we argue.",
    "4 Positionality and reflexivity in a header that runs past ten words",
    "The positionality literature [12] is broad.",
)

#: Body lines: facet cues, cue-free prose, inline markers, and cues
#: and markers broken by line breaks, whitespace runs or no-break
#: spaces.
BODY_LINES = (
    "", "We write as network engineers.", "We are situated in the Global South.",
    "We measure BGP tables.", "Interviews were conducted.",
    "We situate ourselves as members of the community we study.",
    "The authors situate themselves as operators.",
    "Our situated knowledge of rural ISPs matters.",
    "This standpoint shaped which questions we asked.",
    "we", "are", "Global", "South.", "we   are committed", "funded\tby a grant",
    "We \u00a0hold a feminist view.", "\u201cWe are\u201d operators.",
    "Reflexivity statement follows.", "e.g. we are", "ties", "to rural ISPs",
    # Markers with a whitespace run or a line break between their words.
    "We   situate ourselves as operators.", "The authors situate\nthemselves as",
    "our situated\u00a0knowledge", "Reflexivity\r\nstatement:", "we situate\n\nourselves",
    # Longer than the extractor's 500-character inline window.
    "filler " * 80,
)


@st.composite
def paper_texts(draw):
    """A paper's text: header, near-miss and body lines, joined by
    varied line endings (or a space, which keeps a line inline)."""
    lines = draw(st.lists(
        st.one_of(
            st.sampled_from(HEADERS),
            st.sampled_from(NOT_HEADERS),
            st.sampled_from(BODY_LINES),
        ),
        max_size=10,
    ))
    seps = [draw(st.sampled_from(("\n", "\r\n", "\n\n", " ", "  ", "\n \n")))
            for _ in lines]
    return "".join(line + sep for line, sep in zip(lines, seps))


class TestDecisionEqualsOracle:
    @settings(max_examples=500, deadline=None)
    @given(text=paper_texts())
    def test_decision_equals_full_extractor(self, text):
        assert has_positionality_statement(text) == has_statement_oracle(text)
