"""Method-mention detection in paper text.

Detects which research methods a paper reports using, via a curated
phrase lexicon per method family.  The families cover the three methods
the paper foregrounds (participatory action research, ethnography,
positionality) plus the wider human-methods canon it references
(interviews, surveys, focus groups, diaries, case studies) and the
quantitative baseline families networking papers usually report
(measurement, simulation, testbed).

Detection is lexicon-based on purpose: it is transparent, auditable, and
reproducible — the same properties Section 5 asks of qualitative
practice itself.  Every hit carries its matched phrase and character
offset so a human can audit the classification with a KWIC view.

Scanning is single-pass: the text is tokenized once and each token is
hash-dispatched (by the first word of every lexicon phrase) to cheap
anchored per-family checks, instead of running one full regex scan per
family (eleven passes for the default lexicon).  A combined named-group
alternation was tried first and measured *slower* than multipass —
Python's ``re`` attempts every branch at every position, so a big
alternation costs the sum of the per-family scans plus bookkeeping; the
token index skips all positions whose word can't start any phrase.  The
scanner preserves the per-family semantics exactly — each family yields
its own greedy left-to-right non-overlapping matches, families never
consume text from each other — which the naive per-family ``finditer``
reference in the tests pins down.  The same first-word index
(:class:`FirstWordIndex`) drives the block-level corpus matcher in
:mod:`repro.bibliometrics.shardscan`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.bibliometrics.corpus import Paper

# Family -> phrases.  Phrases are matched case-insensitively on word
# boundaries; "*" at the end of a token marks a stem wildcard.
METHOD_FAMILIES: dict[str, tuple[str, ...]] = {
    "participatory": (
        "participatory action research",
        "action research",
        "participatory design",
        "co-design",
        "community-based participatory",
        "participatory method*",
        "community partner*",
        "codesign",
    ),
    "ethnography": (
        "ethnograph*",
        "participant observation",
        "fieldwork",
        "field notes",
        "fieldnotes",
        "patchwork ethnography",
        "rapid ethnography",
        "autoethnograph*",
    ),
    "positionality": (
        "positionality",
        "reflexivity",
        "situated knowledge*",
        "standpoint",
        "we situate ourselves",
        "our own perspectives as researchers",
    ),
    "interviews": (
        "semi-structured interview*",
        "in-depth interview*",
        "we interviewed",
        "interview study",
        "interviews with",
        "interviewee*",
    ),
    "surveys": (
        "survey of",
        "we surveyed",
        "questionnaire*",
        "survey respondent*",
        "likert",
        "survey instrument",
    ),
    "focus_groups": (
        "focus group*",
    ),
    "diaries": (
        "diary stud*",
        "user diaries",
        "diary entries",
        "technology probe*",
    ),
    "case_study": (
        "case study",
        "case studies",
    ),
    "measurement": (
        "we measure*",
        "measurement study",
        "vantage point*",
        "packet trace*",
        "traceroute*",
        "bgp table*",
        "passive measurement*",
        "active measurement*",
        "telemetry",
    ),
    "simulation": (
        "we simulate*",
        "simulation stud*",
        "simulator",
        "ns-3",
        "discrete-event simulation",
        "emulation",
    ),
    "testbed": (
        "testbed",
        "we deploy*",
        "deployment experience*",
        "production deployment",
        "pilot deployment",
    ),
}

# Families that count as "human-centered methods" for the paper's claims.
HUMAN_METHOD_FAMILIES: frozenset[str] = frozenset(
    {
        "participatory",
        "ethnography",
        "positionality",
        "interviews",
        "surveys",
        "focus_groups",
        "diaries",
    }
)


#: Tokenizer for the single-pass scan: every lexicon phrase that starts
#: with a word character can only match at one of these token starts.
_WORD_RE = re.compile(r"\w+")


def _phrase_pattern(phrase: str) -> str:
    """Compile one lexicon phrase to a regex fragment.

    Tokens ending in "*" become stem matches; whitespace matches any
    whitespace run; everything is bounded at word edges.
    """
    parts = []
    for token in phrase.split():
        if token.endswith("*"):
            parts.append(re.escape(token[:-1]) + r"\w*")
        else:
            parts.append(re.escape(token))
    return r"\b" + r"\s+".join(parts) + r"\b"


@dataclass(frozen=True, slots=True)
class MethodMention:
    """One detected method mention.

    Attributes:
        family: Method family key (see :data:`METHOD_FAMILIES`).
        phrase: The matched surface text.
        start: Character offset in the scanned text.
    """

    family: str
    phrase: str
    start: int

    @property
    def is_human_method(self) -> bool:
        """True for the human-centered families."""
        return self.family in HUMAN_METHOD_FAMILIES


@dataclass(frozen=True)
class FirstWordIndex:
    """Where a lexicon selection's phrases can start, keyed by first word.

    Every indexable phrase starts with a word character, so it can only
    match at the start of a ``\\w+`` token.  A *chunk* is one ``\\w+``
    run of a phrase, lowercased (``"co-design"`` has chunks ``co`` and
    ``design``).

    Attributes:
        exact: First chunk -> families with a phrase starting there; a
            token must *equal* the chunk to start a match.
        stems: Stem (a first token ending in ``*``) -> families; a token
            must *start with* the stem.
        stem_lengths: The distinct stem lengths, ascending.
        followers: Exact first chunk -> the second chunks of its
            phrases, for chunks whose every phrase has a second chunk.
            A match there also needs the *next* token to start with one
            of them, since only whitespace or the phrase's own non-word
            characters separate the two chunks.
    """

    exact: dict[str, tuple[str, ...]]
    stems: dict[str, tuple[str, ...]]
    stem_lengths: tuple[int, ...]
    followers: dict[str, tuple[str, ...]]


class LexiconScanner:
    """Single-pass multi-family phrase scanner over a lexicon.

    The text is tokenized once (``\\w+``) and each token is looked up in
    a *first-word index*: a hash from the leading word of every lexicon
    phrase (plus a small prefix table for stem-wildcard first words like
    ``ethnograph*``) to the families whose phrases could start there.
    Only candidate positions pay an anchored per-family ``match`` call;
    every other position costs one dictionary probe.  Each family keeps
    a resume offset so its matches stay non-overlapping, exactly as a
    per-family ``finditer`` would produce.

    A phrase whose first word does not begin with a ``\\w`` character
    cannot be token-indexed; selections containing one fall back to an
    exact (slower) combined-alternation traversal.

    Args:
        families: Family name -> phrase tuple (the lexicon).
    """

    def __init__(self, families: dict[str, tuple[str, ...]]) -> None:
        self.families: tuple[str, ...] = tuple(families)
        self._family_phrases: dict[str, tuple[str, ...]] = {
            family: tuple(phrases) for family, phrases in families.items()
        }
        self._family_patterns: dict[str, re.Pattern] = {
            family: re.compile(
                "|".join(_phrase_pattern(p) for p in phrases), re.IGNORECASE
            )
            for family, phrases in families.items()
        }
        self._phrase_fragments: dict[str, str] = {
            family: "|".join(_phrase_pattern(p) for p in phrases)
            for family, phrases in families.items()
        }
        self._combined: dict[tuple[str, ...], re.Pattern] = {}
        self._indexes: dict[tuple[str, ...], FirstWordIndex | None] = {}

    def pattern_for(self, family: str) -> re.Pattern:
        """The compiled single-family pattern (KeyError when unknown)."""
        return self._family_patterns[family]

    def _combined_pattern(self, selected: tuple[str, ...]) -> re.Pattern:
        """The named-group alternation over ``selected``, cached."""
        pattern = self._combined.get(selected)
        if pattern is None:
            pattern = re.compile(
                "|".join(
                    f"(?P<{family}>{self._phrase_fragments[family]})"
                    for family in selected
                ),
                re.IGNORECASE,
            )
            self._combined[selected] = pattern
        return pattern

    def _check_selection(self, selected: tuple[str, ...]) -> None:
        unknown = [f for f in selected if f not in self._family_patterns]
        if unknown:
            raise KeyError(f"unknown method families: {unknown}")

    def first_word_index(
        self, families: tuple[str, ...] | None = None
    ) -> FirstWordIndex | None:
        """The first-word index for ``families`` (default: all), cached.

        None when the selection contains a phrase whose first word does
        not start with a word character: such a phrase can match away
        from a token start, so no token index covers it.
        """
        selected = tuple(families) if families is not None else self.families
        if selected in self._indexes:
            return self._indexes[selected]
        phrases = [
            (family, phrase)
            for family in selected
            for phrase in self._family_phrases[family]
        ]
        index = None
        if all(_WORD_RE.match(phrase.split()[0]) for _, phrase in phrases):
            exact: dict[str, list[str]] = {}
            stems: dict[str, list[str]] = {}
            followers: dict[str, set[str] | None] = {}
            for family, phrase in phrases:
                token = phrase.split()[0]
                chunks = [chunk.lower() for chunk in _WORD_RE.findall(phrase)]
                chunk = chunks[0]
                if token.endswith("*") and token[:-1].lower() == chunk:
                    # Stem wildcard: any token *starting with* the stem
                    # is a candidate.
                    bucket = stems.setdefault(chunk, [])
                else:
                    # The regex requires a non-word char (or phrase
                    # continuation) right after the chunk, so only a
                    # token *equal to* the chunk can start a match.
                    bucket = exact.setdefault(chunk, [])
                    seconds = followers.setdefault(chunk, set())
                    if seconds is not None and len(chunks) > 1:
                        seconds.add(chunks[1])
                    else:
                        followers[chunk] = None
                if family not in bucket:
                    bucket.append(family)
            index = FirstWordIndex(
                exact={chunk: tuple(fams) for chunk, fams in exact.items()},
                stems={chunk: tuple(fams) for chunk, fams in stems.items()},
                stem_lengths=tuple(sorted({len(chunk) for chunk in stems})),
                followers={
                    chunk: tuple(sorted(seconds))
                    for chunk, seconds in followers.items()
                    if seconds is not None
                },
            )
        self._indexes[selected] = index
        return index

    def detect(
        self, text: str, families: tuple[str, ...] | None = None
    ) -> list[MethodMention]:
        """Scan ``text`` once; mentions sorted by offset, then family.

        Semantically identical to one ``finditer`` pass per family
        (enforced by tests against that reference), at one tokenizing
        traversal of ``text`` instead of one full regex pass per family.
        """
        selected = tuple(families) if families is not None else self.families
        self._check_selection(selected)
        index = self.first_word_index(selected)
        if index is None:
            return self._detect_stepping(text, selected)
        exact, stems, stem_lengths = index.exact, index.stems, index.stem_lengths
        patterns = self._family_patterns
        # Per-family resume offset: a family's next match must start at
        # or after the end of its previous one (finditer semantics).
        resume = dict.fromkeys(selected, 0)
        mentions: list[MethodMention] = []
        exact_get = exact.get
        stems_get = stems.get
        min_stem = stem_lengths[0] if stem_lengths else None
        for token_match in _WORD_RE.finditer(text):
            token = token_match.group().lower()
            candidates = exact_get(token)
            if min_stem is not None and len(token) >= min_stem:
                for length in stem_lengths:
                    if length <= len(token):
                        stem_families = stems_get(token[:length])
                        if stem_families is not None:
                            candidates = (
                                stem_families
                                if candidates is None
                                else candidates + stem_families
                            )
            if candidates is None:
                continue
            start = token_match.start()
            for family in candidates:
                if start < resume[family]:
                    continue
                hit = patterns[family].match(text, start)
                if hit is not None:
                    mentions.append(MethodMention(family, hit.group(), start))
                    resume[family] = hit.end()
        mentions.sort(key=lambda m: (m.start, m.family))
        return mentions

    def _detect_stepping(
        self, text: str, selected: tuple[str, ...]
    ) -> list[MethodMention]:
        """Exact fallback scan via the combined named-group alternation.

        Used when a phrase's first word is not token-indexable.  Visits
        every position where *any* family matches — the combined
        pattern's hits, stepped one character past each hit start — and
        resolves the matching families there with anchored ``match``
        calls.
        """
        combined = self._combined_pattern(selected)
        order = {family: i for i, family in enumerate(selected)}
        anchored = [(family, self._family_patterns[family]) for family in selected]
        resume = dict.fromkeys(selected, 0)
        mentions: list[MethodMention] = []
        search = combined.search
        position = 0
        while (hit := search(text, position)) is not None:
            start = hit.start()
            # The alternation matched its first listed family; families
            # earlier in the selection cannot match at this offset.
            first = hit.lastgroup
            if start >= resume[first]:
                mentions.append(MethodMention(first, hit.group(), start))
                resume[first] = hit.end()
            # Later families may also match here, shadowed by the
            # alternation order — resolve them with anchored matches.
            for family, pattern in anchored[order[first] + 1:]:
                anchored_hit = pattern.match(text, start)
                if anchored_hit is not None and start >= resume[family]:
                    mentions.append(
                        MethodMention(family, anchored_hit.group(), start)
                    )
                    resume[family] = anchored_hit.end()
            # Step one character, not to the hit's end: other families'
            # matches may start inside this one.
            position = start + 1
        mentions.sort(key=lambda m: (m.start, m.family))
        return mentions


#: The default scanner over :data:`METHOD_FAMILIES`.
DEFAULT_SCANNER = LexiconScanner(METHOD_FAMILIES)


def detect_methods(text: str, families: tuple[str, ...] | None = None) -> list[MethodMention]:
    """Scan ``text`` for method mentions.

    Args:
        text: Any paper text (title+abstract+body).
        families: Restrict to these families (default: all).

    Returns:
        Mentions sorted by offset, then family.
    """
    return DEFAULT_SCANNER.detect(text, families)


def classify_text(text: str) -> dict[str, int]:
    """Count method mentions per family in raw text.

    Families with zero hits are omitted.  This is the per-paper
    definition the corpus scan must reproduce:
    :mod:`repro.bibliometrics.shardscan` calls it for blocks holding
    non-ASCII text and matches ASCII blocks in one pass to the same
    counts.  :func:`classify_paper` is the dataclass wrapper over it.
    """
    counts: dict[str, int] = {}
    for mention in detect_methods(text):
        counts[mention.family] = counts.get(mention.family, 0) + 1
    return counts


def classify_paper(paper: Paper) -> dict[str, int]:
    """Count method mentions per family in a paper's full text.

    Families with zero hits are omitted.
    """
    return classify_text(paper.full_text)


def uses_human_methods(paper: Paper, min_mentions: int = 1) -> bool:
    """True when the paper mentions any human-centered family.

    Args:
        paper: The paper to classify.
        min_mentions: Total human-family mentions required (a single
            passing reference can be noise; raise this for precision).
    """
    counts = classify_paper(paper)
    human_total = sum(
        count for family, count in counts.items() if family in HUMAN_METHOD_FAMILIES
    )
    return human_total >= min_mentions
