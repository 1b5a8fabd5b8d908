"""Positionality statements: model, renderer, extractor, scoring.

Section 4: "Authors use positionality in the introduction or methods
sections to situate or position themselves within the research, often
including their geographic location, socioeconomic status, personal
beliefs, and affiliations with specific communities."  That sentence is
this module's schema: a statement is structured disclosure along those
facets, a disclosure score measures how many relevant facets a
statement covers, and the extractor recovers statements from paper text
(used by experiment E2 over the synthetic corpus).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.textmine.sections import _is_header, find_section, split_sections
from repro.textmine.tokenize import find_normalized, sentences

#: The disclosure facets Section 4 enumerates.
FACETS: tuple[str, ...] = (
    "identity",         # who the authors are (role, expertise, background)
    "location",         # geographic/geopolitical situation
    "beliefs",          # political/social/theoretical commitments
    "affiliations",     # institutional and industry ties
    "community_ties",   # membership in or ties to the studied community
    "relevance",        # why any of this matters to *this* work
)

_FACET_CUES: dict[str, tuple[str, ...]] = {
    "identity": (
        "we are", "the authors are", "as researchers", "we write as",
        "situate themselves as", "we identify",
    ),
    "location": (
        "global north", "global south", "based in", "located in",
        "geograph",
    ),
    "beliefs": (
        "we believe", "we hold", "feminist", "we are committed",
        "our view", "normative", "we value", "skeptic", "proponent",
    ),
    "affiliations": (
        "affiliat", "industry ties", "funded by", "employed",
        "prior industry", "our institution",
    ),
    "community_ties": (
        "member of the community", "ties to", "embedded in",
        "part of the community", "grew up", "we operate",
    ),
    "relevance": (
        "shaped which questions", "informs", "influenced our",
        "this standpoint", "affects our research", "shaped the framing",
        "shaped both the methods",
    ),
}


def _any_phrase(phrases) -> re.Pattern:
    """One pattern for ``phrases``, each space matching any whitespace run."""
    return re.compile(
        "|".join(r"\s+".join(map(re.escape, phrase.split(" "))) for phrase in phrases)
    )


#: Every facet cue as one pattern: over a lowered text it finds exactly
#: the cues that :func:`_facets_in_text` finds in that text's normalized
#: sentences.
_CUE_RE = _any_phrase(cue for cues in _FACET_CUES.values() for cue in cues)

#: Marker phrases :func:`has_positionality_statement` requires before
#: anything else, each space matching any whitespace run.  A marked
#: paper is then decided from its "Positionality" section when that
#: section shows a facet cue, and by the full :func:`extract_statements`
#: otherwise.
STATEMENT_MARKERS = (
    "positionality",
    "we situate ourselves",
    "situate themselves",
    "our situated knowledge",
    "reflexivity statement",
)

#: Whitespace-free words one of which every marker contains, so bulk
#: scanners (the columnar shard scan) can prefilter candidate papers
#: with ``str.find`` on lowered text.
MARKER_ANCHORS = ("positionality", "situate", "reflexivity")

#: Every marker as one pattern: over a lowered text it finds exactly the
#: markers :func:`extract_statements` finds in that text's normalized
#: sentences.
_MARKER_RE = _any_phrase(STATEMENT_MARKERS)


@dataclass(frozen=True, slots=True)
class PositionalityStatement:
    """A structured positionality statement.

    Attributes (each a free-text disclosure; "" = not disclosed):
        identity / location / beliefs / affiliations / community_ties /
        relevance: See :data:`FACETS`.
        source_text: Raw text the statement came from (extractor output)
            or "" when authored directly.
    """

    identity: str = ""
    location: str = ""
    beliefs: str = ""
    affiliations: str = ""
    community_ties: str = ""
    relevance: str = ""
    source_text: str = ""

    def disclosed_facets(self) -> tuple[str, ...]:
        """Facets with non-empty disclosures, in schema order."""
        return tuple(f for f in FACETS if getattr(self, f).strip())

    def render(self) -> str:
        """Render as the prose block a paper would carry.

        >>> PositionalityStatement(identity="network engineers").render()
        'Positionality. We write as network engineers.'
        """
        parts = ["Positionality."]
        if self.identity:
            parts.append(f"We write as {self.identity}.")
        if self.location:
            parts.append(f"We are situated in {self.location}.")
        if self.affiliations:
            parts.append(f"Our affiliations include {self.affiliations}.")
        if self.community_ties:
            parts.append(f"We have ties to {self.community_ties}.")
        if self.beliefs:
            parts.append(f"We hold {self.beliefs}.")
        if self.relevance:
            parts.append(f"This matters here because {self.relevance}.")
        return " ".join(parts)


def disclosure_score(statement: PositionalityStatement) -> float:
    """Fraction of the six facets the statement discloses.

    The paper does not demand every facet in every work ("in as much
    detail as is relevant"); the score is a coverage measure, not a
    pass/fail bar.
    """
    return len(statement.disclosed_facets()) / len(FACETS)


def _facets_in_text(text: str) -> dict[str, str]:
    """Map facet -> first sentence in ``text`` showing that facet's cue."""
    found: dict[str, str] = {}
    for sentence in sentences(text):
        lowered = sentence.lower()
        for facet, cues in _FACET_CUES.items():
            if facet not in found and any(cue in lowered for cue in cues):
                found[facet] = sentence.strip()
    return found


def extract_statements(paper_text: str) -> list[PositionalityStatement]:
    """Recover positionality statements from a paper's plain text.

    Strategy: first look for an explicit "Positionality" section; then
    scan the remaining text for statement-marker sentences and take a
    window around each.  Each hit is parsed into facets via cue phrases.

    Returns:
        Statements in document order (usually zero or one per paper).
    """
    statements: list[PositionalityStatement] = []
    claimed_spans: list[str] = []

    section = find_section(split_sections(paper_text), "positionality")
    if section is not None and section.body.strip():
        claimed_spans.append(section.body)

    remaining = paper_text
    for span in claimed_spans:
        remaining = remaining.replace(span, "")
    for sentence in sentences(remaining):
        lowered = sentence.lower()
        if any(marker in lowered for marker in STATEMENT_MARKERS):
            # ``sentence`` is normalized text; find where it starts in
            # the raw text, whitespace runs and curly quotes included.
            start = find_normalized(remaining, sentence)
            window = remaining[start : start + 500]
            claimed_spans.append(window)
            break  # one inline statement per paper is the realistic case

    for index, span in enumerate(claimed_spans):
        facets = _facets_in_text(span)
        # An explicit section counts even when facet parsing comes up
        # empty (the header is the author's own label); an inline marker
        # hit must parse at least one facet, or it is just the *word*
        # "positionality" appearing in prose.
        is_section_span = section is not None and index == 0
        if not facets and not is_section_span:
            continue
        statements.append(
            PositionalityStatement(
                identity=facets.get("identity", ""),
                location=facets.get("location", ""),
                beliefs=facets.get("beliefs", ""),
                affiliations=facets.get("affiliations", ""),
                community_ties=facets.get("community_ties", ""),
                relevance=facets.get("relevance", ""),
                source_text=span.strip(),
            )
        )
    return statements


def _positionality_section_body(paper_text: str) -> str | None:
    """Body of the section ``find_section(split_sections(paper_text),
    "positionality")`` returns, built as :func:`split_sections` builds
    it, without splitting the rest of the paper; None when absent.

    A header's title is its line less hashes, number and a final
    period, so a header line naming positionality has it in its title.
    """
    lines = paper_text.splitlines()
    for index, line in enumerate(lines):
        if "positionality" not in line.lower() or _is_header(line) is None:
            continue
        body: list[str] = []
        for following in lines[index + 1 :]:
            if _is_header(following) is not None:
                break
            body.append(following)
        return "\n".join(body).strip()
    return None


def has_positionality_statement(paper_text: str) -> bool:
    """True when the text carries a recognizable positionality statement.

    Requires a marker *and* at least one parsed facet, so a paper that
    merely cites positionality literature does not count.  A marker may
    have any whitespace run between its words ("We   situate
    ourselves"), as in the extractor's normalized sentences.

    Equal to ``any(s.disclosed_facets() for s in
    extract_statements(paper_text))`` after the marker check, but a
    paper whose "Positionality" section shows a facet cue is confirmed
    from that section alone: the extractor would turn the section into
    a statement disclosing that facet.  The cue search runs on the
    lowered body with each space matching a whitespace run, which is
    the test :func:`_facets_in_text` applies sentence by sentence —
    sentences end only at whitespace after ``.!?``, which no cue
    contains.  Every other marked paper runs the full extractor.
    """
    if _MARKER_RE.search(paper_text.lower()) is None:
        return False
    body = _positionality_section_body(paper_text)
    if body and _CUE_RE.search(body.lower()):
        return True
    return any(s.disclosed_facets() for s in extract_statements(paper_text))
