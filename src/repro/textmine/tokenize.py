"""Sentence and word tokenization.

Rule-based tokenizers sufficient for research-paper prose and interview
transcripts.  The design goal is determinism and transparency rather than
linguistic perfection: every downstream consumer (method detection,
positionality extraction, TF-IDF) needs stable token boundaries across
runs, not state-of-the-art segmentation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

# Common abbreviations that end with a period but do not end a sentence.
_ABBREVIATIONS = frozenset(
    {
        "al",
        "dr",
        "e.g",
        "eds",
        "et",
        "etc",
        "fig",
        "i.e",
        "jr",
        "mr",
        "mrs",
        "ms",
        "no",
        "p",
        "pp",
        "prof",
        "sec",
        "st",
        "vs",
    }
)

_SENTENCE_BOUNDARY = re.compile(r"(?<=[.!?])\s+(?=[A-Z0-9\"'(\[])")
_WORD_RE = re.compile(r"[A-Za-z0-9]+(?:[-'][A-Za-z0-9]+)*")
_TOKEN_RE = re.compile(r"[A-Za-z0-9]+(?:[-'][A-Za-z0-9]+)*|[^\sA-Za-z0-9]")


@dataclass(frozen=True, slots=True)
class Token:
    """A token with its character span in the source text.

    Attributes:
        text: The token surface form, exactly as it appears in the source.
        start: Offset of the first character in the source string.
        end: Offset one past the last character (``source[start:end] == text``).
    """

    text: str
    start: int
    end: int

    def lower(self) -> str:
        """Return the lowercased surface form."""
        return self.text.lower()

    @property
    def is_word(self) -> bool:
        """True when the token is alphanumeric (not punctuation)."""
        return bool(_WORD_RE.fullmatch(self.text))


#: Unicode punctuation :func:`normalize` unifies, each one character
#: for one, so only whitespace runs move offsets.
_UNIFIED_PUNCTUATION = str.maketrans({
    "‘": "'",
    "’": "'",
    "“": '"',
    "”": '"',
    "–": "-",
    "—": "-",
    "\u00a0": " ",
})

_WHITESPACE_RUN = re.compile(r"\s+")


def normalize(text: str) -> str:
    """Normalize whitespace and unify common unicode punctuation.

    Curly quotes become straight quotes, dashes become hyphens, and runs
    of whitespace collapse to single spaces.  Used before tokenization so
    corpora generated on different platforms compare equal.
    """
    return _WHITESPACE_RUN.sub(" ", text.translate(_UNIFIED_PUNCTUATION)).strip()


def find_normalized(text: str, piece: str) -> int:
    """Offset in raw ``text`` of the first occurrence of ``piece`` in
    ``normalize(text)``, or -1.

    ``piece`` is normalized text that starts with a non-space, such as
    one of :func:`sentences`: the raw span found may hold whitespace
    runs, line breaks, curly quotes and dashes where ``piece`` has a
    single space, straight quote or hyphen.

    >>> find_normalized("Intro.\\n\\nWe   met “operators”.", 'We met "operators".')
    8
    """
    at = normalize(text).find(piece)
    if at < 0:
        return -1
    shift = 0  # raw offset minus normalized offset, so far
    for run in _WHITESPACE_RUN.finditer(text):
        start, end = run.span()
        if start - shift > at:
            break
        # The leading run is stripped; every other run keeps one space.
        shift += end - start - (start > 0)
    return at + shift


def sentences(text: str) -> list[str]:
    """Split ``text`` into sentences.

    Splits on terminal punctuation followed by whitespace and an
    upper-case or numeric start, while refusing to split after common
    abbreviations ("et al.", "e.g.", "Fig.").

    >>> sentences("We met operators. They ran IXPs.")
    ['We met operators.', 'They ran IXPs.']
    """
    text = normalize(text)
    if not text:
        return []
    pieces: list[str] = []
    start = 0
    for match in _SENTENCE_BOUNDARY.finditer(text):
        candidate = text[start : match.start()]
        last_word = candidate.rsplit(None, 1)[-1] if candidate.split() else ""
        bare = last_word.rstrip(".").lower()
        if bare in _ABBREVIATIONS:
            continue
        pieces.append(candidate)
        start = match.end()
    tail = text[start:]
    if tail:
        pieces.append(tail)
    return pieces


def tokens(text: str) -> Iterator[Token]:
    """Yield :class:`Token` objects (words and punctuation) with spans."""
    for match in _TOKEN_RE.finditer(text):
        yield Token(match.group(), match.start(), match.end())


def word_tokens(text: str, lowercase: bool = True) -> list[str]:
    """Return the word tokens of ``text`` as plain strings.

    Punctuation is dropped; hyphenated and apostrophe-joined words stay
    single tokens ("community-run", "don't").

    >>> word_tokens("Mesh networks, community-run!")
    ['mesh', 'networks', 'community-run']
    """
    words = (m.group() for m in _WORD_RE.finditer(text))
    if lowercase:
        return [w.lower() for w in words]
    return list(words)


def ngrams(words: Iterable[str], n: int) -> list[tuple[str, ...]]:
    """Return the order-``n`` n-grams of a token sequence.

    >>> ngrams(["a", "b", "c"], 2)
    [('a', 'b'), ('b', 'c')]
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    seq = list(words)
    return [tuple(seq[i : i + n]) for i in range(len(seq) - n + 1)]
