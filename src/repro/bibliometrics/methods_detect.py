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

One matcher serves a single text and a whole corpus block.
:class:`LexiconScanner` indexes every phrase by its first word
(:class:`FirstWordIndex`) and confirms each candidate token with its
family's anchored pattern and a per-family resume offset, so each
family yields its own greedy left-to-right non-overlapping matches —
exactly one ``finditer`` pass per family, the reference the tests pin
down, at one traversal of the text instead of eleven.  Candidates come
from one of two token sources:

- every ``\\w+`` token, for one text (:meth:`LexiconScanner.detect`)
  and for a block holding non-ASCII text;
- a numpy prefilter over an ASCII block
  (:meth:`LexiconScanner.scan_block`, used by
  :mod:`repro.bibliometrics.shardscan`), which keeps only the tokens
  whose 8-byte head the index admits.  It wins at block size and loses
  on a single paper, so :meth:`~LexiconScanner.detect` does not use it.

A combined named-group alternation was tried first and measured
*slower* than multipass: Python's ``re`` attempts every branch at every
position, while the token index skips every position whose word can't
start a phrase.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

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


#: Tokenizer of the regex token source: every lexicon phrase starts
#: with a word character, so it can only match at one of these token
#: starts.
_WORD_RE = re.compile(r"\w+")

#: The non-ASCII characters IGNORECASE matching equates with an ASCII
#: letter ("İ", "ı", "ſ" and the Kelvin sign), each with that letter.
_ASCII_FOLD = (("\u0130", "i"), ("\u0131", "i"), ("\u017f", "s"), ("\u212a", "k"))


def fold_case(text: str) -> str:
    """``text`` lowercased as the family patterns compare it, character
    for character.

    ``str.lower`` leaves "ſ" and "ı", which the patterns match to "s"
    and "i", and turns "İ" into two characters.  Folding those first
    keeps every offset and ``\\w`` boundary of ``text``, so a token of
    the result equals an (ASCII) phrase word exactly where the pattern
    can match that word.
    """
    if not text.isascii():
        # Four ``str.replace`` calls: ``str.translate`` on a non-ASCII
        # string is some twenty times slower.
        for char, letter in _ASCII_FOLD:
            text = text.replace(char, letter)
    return text.lower()


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
    """Where a lexicon's phrases can start, keyed by first word.

    Every phrase starts with a word character, so it can only match at
    the start of a ``\\w+`` token.  A *chunk* is one ``\\w+`` run of a
    phrase, lowercased (``"co-design"`` has chunks ``co`` and
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

    @classmethod
    def of(cls, families: dict[str, tuple[str, ...]]) -> "FirstWordIndex":
        """The index over a lexicon (ValueError on a phrase that is not
        ASCII or does not start with a word character)."""
        exact: dict[str, list[str]] = {}
        stems: dict[str, list[str]] = {}
        followers: dict[str, set[str] | None] = {}
        for family, phrases in families.items():
            for phrase in phrases:
                if not (phrase.isascii() and _WORD_RE.match(phrase.lstrip())):
                    raise ValueError(f"phrase {phrase!r} is not ASCII or not word-initial")
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
        return cls(
            exact={chunk: tuple(fams) for chunk, fams in exact.items()},
            stems={chunk: tuple(fams) for chunk, fams in stems.items()},
            stem_lengths=tuple(sorted({len(chunk) for chunk in stems})),
            followers={
                chunk: tuple(sorted(seconds))
                for chunk, seconds in followers.items()
                if seconds is not None
            },
        )


def _word_tokens(folded: str) -> list[tuple[int, str]]:
    """Every ``\\w+`` token of ``folded`` as ``(start, token)``."""
    return [(match.start(), match.group()) for match in _WORD_RE.finditer(folded)]


#: ``bytes.translate`` table: an ASCII ``\\w`` byte to 1, any other to 0.
_WORD_MASK = bytes(re.match(r"\w", chr(code)) is not None for code in range(128)) + bytes(128)

#: Little-endian bytes a token head holds (see :func:`_head_key`).
_HEAD_BYTES = 8

#: Token length -> the mask keeping that many head bytes (capped at 8).
_LENGTH_MASKS = np.array(
    [(1 << (8 * width)) - 1 for width in range(_HEAD_BYTES + 1)], dtype=np.uint64
)


def _head_key(chunk: str) -> int:
    """The first :data:`_HEAD_BYTES` bytes of an ASCII chunk as an integer.

    Tokens never contain a zero byte, so for a chunk shorter than the
    head the zero padding also pins its length: equal keys mean equal
    strings.  Longer chunks compare by prefix only, which can admit a
    false candidate but never loses a real one.
    """
    return int.from_bytes(chunk[:_HEAD_BYTES].encode("ascii"), "little")


def _head_tables(entries) -> list[tuple[np.uint64, np.ndarray, np.ndarray, np.ndarray]]:
    """Head tables over ``(width, chunk, gated)`` entries, one per width:
    ``(head mask, sorted keys, minimum token length per key, gated per
    key)``.

    A token is found in a table when its head, masked to the width,
    equals a key and it is at least as long as that key's shortest
    chunk; the key is gated when every chunk under it is.
    """
    by_width: dict[int, dict[int, list]] = {}
    for width, chunk, gated in entries:
        key = _head_key(chunk) & int(_LENGTH_MASKS[width])
        row = by_width.setdefault(width, {}).setdefault(key, [len(chunk), gated])
        row[0] = min(row[0], len(chunk))
        row[1] = row[1] and gated
    tables = []
    for width, rows in sorted(by_width.items()):
        keys = sorted(rows)
        tables.append((
            _LENGTH_MASKS[width],
            np.array(keys, dtype=np.uint64),
            np.array([rows[key][0] for key in keys], dtype=np.int64),
            np.array([rows[key][1] for key in keys], dtype=bool),
        ))
    return tables


def _look_up(heads, lengths, tables) -> tuple[np.ndarray, np.ndarray]:
    """``(free, gated)`` masks: which tokens some table finds under an
    ungated key, and which it finds only under gated ones."""
    free = np.zeros(len(heads), dtype=bool)
    gated = np.zeros(len(heads), dtype=bool)
    for mask, keys, min_lengths, gates in tables:
        masked = heads & mask
        at = np.minimum(np.searchsorted(keys, masked), len(keys) - 1)
        found = (keys[at] == masked) & (lengths >= min_lengths[at])
        free |= found & ~gates[at]
        gated |= found & gates[at]
    return free, gated & ~free


class LexiconScanner:
    """Single-pass multi-family phrase scanner over an ASCII lexicon.

    Each distinct candidate token is looked up once per call in the
    lexicon's :class:`FirstWordIndex`: a hash from the leading word of
    every phrase (plus a small prefix table for stem-wildcard first
    words like ``ethnograph*``) to the families whose phrases could
    start there.  Only candidate positions pay an anchored per-family
    ``match`` call.
    Each family keeps a resume offset so its matches stay
    non-overlapping, exactly as a per-family ``finditer`` would produce.

    Args:
        families: Family name -> phrase tuple (the lexicon).

    Raises:
        ValueError: A phrase is not ASCII or does not start with a word
            character (see :meth:`FirstWordIndex.of`).
    """

    def __init__(self, families: dict[str, tuple[str, ...]]) -> None:
        self.families: tuple[str, ...] = tuple(families)
        self._family_patterns: dict[str, re.Pattern] = {
            family: re.compile(
                "|".join(_phrase_pattern(p) for p in phrases), re.IGNORECASE
            )
            for family, phrases in families.items()
        }
        self._family_ids = {family: i for i, family in enumerate(self.families)}
        self.index = index = FirstWordIndex.of(families)
        # Exact first chunks go in at full head width (the zero padding
        # of a short chunk pins the token's length); stems at their own
        # width, capped at the head.
        self._first_tables = _head_tables(
            [(_HEAD_BYTES, chunk, chunk in index.followers) for chunk in index.exact]
            + [(min(len(stem), _HEAD_BYTES), stem, False) for stem in index.stems]
        )
        self._follower_tables = _head_tables(
            (min(len(second), _HEAD_BYTES), second, False)
            for seconds in index.followers.values()
            for second in seconds
        )

    def pattern_for(self, family: str) -> re.Pattern:
        """The compiled single-family pattern (KeyError when unknown)."""
        return self._family_patterns[family]

    def _prefiltered_tokens(self, folded: str) -> list[tuple[int, str]]:
        """The ``(start, token)`` pairs of an ASCII ``folded`` text that
        the index admits: equal to an exact first chunk (and, when every
        phrase under that chunk has a second chunk, followed by a token
        starting with one), or starting with a stem.  A superset of the
        sites where a phrase matches, found with numpy."""
        raw = folded.encode("ascii")
        flags = np.frombuffer(b"\0" + raw.translate(_WORD_MASK) + b"\0", dtype=np.int8)
        bounds = np.flatnonzero(flags[1:] != flags[:-1])
        starts, ends = bounds[0::2], bounds[1::2]
        lengths = ends - starts
        # Every offset's next 8 bytes as one unaligned little-endian
        # word; a token's head is its start's word cut to its length.
        words = np.ndarray(
            (len(raw),), dtype="<u8", buffer=raw + bytes(_HEAD_BYTES), strides=(1,)
        )
        heads = words[starts] & _LENGTH_MASKS[np.minimum(lengths, _HEAD_BYTES)]

        keep, gated = _look_up(heads, lengths, self._first_tables)
        # A gated token is kept when the token after it starts with a
        # second chunk.
        gated = np.flatnonzero(gated)
        gated = gated[gated + 1 < len(heads)]
        keep[gated] = _look_up(heads[gated + 1], lengths[gated + 1], self._follower_tables)[0]
        return [
            (start, folded[start:end])
            for start, end in zip(starts[keep].tolist(), ends[keep].tolist())
        ]

    def _confirm(
        self, text: str, tokens: list[tuple[int, str]]
    ) -> list[tuple[int, int, str]]:
        """Mentions in ``text`` as ``(start, end, family)``, confirmed at
        the candidate ``tokens`` (``(start, folded token)`` pairs in
        offset order) and listed in that order."""
        exact_get = self.index.exact.get
        stems_get = self.index.stems.get
        stem_lengths = self.index.stem_lengths
        patterns = self._family_patterns
        # The families a token can start, resolved once per distinct token.
        families_of = dict.fromkeys(map(itemgetter(1), tokens))
        for token in families_of:
            families = exact_get(token, ())
            for length in stem_lengths:
                if length > len(token):
                    break
                families += stems_get(token[:length], ())
            families_of[token] = families
        # Per-family resume offset: a family's next match must start at
        # or after the end of its previous one (finditer semantics).
        resume = dict.fromkeys(self.families, 0)
        hits: list[tuple[int, int, str]] = []
        for start, token in tokens:
            for family in families_of[token]:
                if start < resume[family]:
                    continue
                hit = patterns[family].match(text, start)
                if hit is not None:
                    end = resume[family] = hit.end()
                    hits.append((start, end, family))
        return hits

    def detect(
        self, text: str, families: tuple[str, ...] | None = None
    ) -> list[MethodMention]:
        """Scan ``text`` once; mentions sorted by offset, then family.

        Semantically identical to one ``finditer`` pass per family
        (enforced by tests against that reference).  A selection of
        ``families`` filters the scan of all of them, which is exact
        because families never share a resume offset; an unknown family
        is a KeyError.
        """
        hits = self._confirm(text, _word_tokens(fold_case(text)))
        if families is not None:
            unknown = [f for f in families if f not in self._family_patterns]
            if unknown:
                raise KeyError(f"unknown method families: {unknown}")
            hits = [hit for hit in hits if hit[2] in families]
        mentions = [
            MethodMention(family, text[start:end], start) for start, end, family in hits
        ]
        mentions.sort(key=lambda m: (m.start, m.family))
        return mentions

    def scan_block(self, block: str, folded: str) -> tuple[np.ndarray, np.ndarray]:
        """Every mention in ``block`` as ``(start offsets, family
        indexes into`` :attr:`families` ``)``, in offset order.

        ``folded`` is :func:`fold_case` of ``block``.  An ASCII block
        takes its candidates from the numpy prefilter, any other block
        from its ``\\w+`` tokens; the confirmation is the one
        :meth:`detect` runs.
        """
        tokens = (
            self._prefiltered_tokens(folded) if block.isascii() else _word_tokens(folded)
        )
        hits = self._confirm(block, tokens)
        family_ids = self._family_ids
        return (
            np.array([start for start, _, _ in hits], dtype=np.int64),
            np.array([family_ids[family] for _, _, family in hits], dtype=np.int64),
        )


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
    :mod:`repro.bibliometrics.shardscan` matches a whole block of papers
    with :meth:`LexiconScanner.scan_block` to the same counts.
    :func:`classify_paper` is the dataclass wrapper over it.
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
