"""Documents, coded segments, and coding sessions.

A :class:`Document` is any unit of qualitative data — an interview
transcript, a field note, a hallway-conversation memo.  A
:class:`CodedSegment` records that a rater applied a code to a character
span of a document.  A :class:`CodingSession` collects segments across
documents and raters and offers the query surface the analysis modules
(agreement, co-occurrence, saturation) are built on.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.qualcoding.codebook import Codebook


@dataclass(frozen=True, slots=True)
class Document:
    """A unit of qualitative data.

    Attributes:
        doc_id: Unique identifier ("interview-07", "fieldnote-2024-03-02").
        text: Full text content.
        kind: Free-form data kind ("interview", "fieldnote", "memo", ...).
        metadata: Arbitrary key/value context (site, date, participant).
    """

    doc_id: str
    text: str
    kind: str = "interview"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise ValueError("doc_id must be non-empty")


@dataclass(frozen=True, slots=True)
class CodedSegment:
    """One application of a code to a span of a document.

    Attributes:
        doc_id: The coded document.
        code: Code name (should exist in the session codebook).
        start: Span start offset (inclusive).
        end: Span end offset (exclusive); must be > start.
        rater: Identifier of the person (or simulator) who coded.
        memo: Optional analytic memo attached to the act of coding.
    """

    doc_id: str
    code: str
    start: int
    end: int
    rater: str
    memo: str = ""

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"segment span must be non-empty: start={self.start} end={self.end}"
            )
        if self.start < 0:
            raise ValueError(f"segment start must be >= 0, got {self.start}")

    def overlaps(self, other: "CodedSegment") -> bool:
        """True when both segments cover at least one common character."""
        return (
            self.doc_id == other.doc_id
            and self.start < other.end
            and other.start < self.end
        )

    def text_in(self, document: Document) -> str:
        """The quoted text this segment covers in ``document``."""
        if document.doc_id != self.doc_id:
            raise ValueError(
                f"segment belongs to {self.doc_id!r}, not {document.doc_id!r}"
            )
        return document.text[self.start : self.end]


class CodingSession:
    """A body of coded data: documents + codebook + segments.

    Example:
        >>> from repro.qualcoding import Codebook
        >>> book = Codebook("demo")
        >>> _ = book.add("trust", "Expressions of trust in operators")
        >>> session = CodingSession(book)
        >>> session.add_document(Document("i1", "I trust the local operator."))
        >>> _ = session.code("i1", "trust", 2, 27, rater="r1")
        >>> session.codes_for_document("i1")
        ['trust']
    """

    def __init__(self, codebook: Codebook) -> None:
        self.codebook = codebook
        self._documents: dict[str, Document] = {}
        self._segments: list[CodedSegment] = []

    # -- documents ---------------------------------------------------------

    def add_document(self, document: Document) -> None:
        """Register a document; rejects duplicate ids."""
        if document.doc_id in self._documents:
            raise ValueError(f"duplicate document id: {document.doc_id!r}")
        self._documents[document.doc_id] = document

    def document(self, doc_id: str) -> Document:
        """Look up a document by id."""
        return self._documents[doc_id]

    def documents(self) -> list[Document]:
        """All documents, sorted by id."""
        return sorted(self._documents.values(), key=lambda d: d.doc_id)

    # -- coding ------------------------------------------------------------

    def code(
        self,
        doc_id: str,
        code: str,
        start: int,
        end: int,
        rater: str,
        memo: str = "",
    ) -> CodedSegment:
        """Apply ``code`` to ``doc_id[start:end]`` on behalf of ``rater``."""
        if doc_id not in self._documents:
            raise KeyError(f"unknown document: {doc_id!r}")
        if code not in self.codebook:
            raise KeyError(f"code not in codebook: {code!r}")
        document = self._documents[doc_id]
        if end > len(document.text):
            raise ValueError(
                f"span end {end} exceeds document length {len(document.text)}"
            )
        segment = CodedSegment(doc_id, code, start, end, rater, memo)
        self._segments.append(segment)
        return segment

    # -- queries -----------------------------------------------------------

    def segments(
        self,
        doc_id: str | None = None,
        code: str | None = None,
        rater: str | None = None,
    ) -> list[CodedSegment]:
        """Segments filtered by any combination of document, code, rater."""
        result = [
            s
            for s in self._segments
            if (doc_id is None or s.doc_id == doc_id)
            and (code is None or s.code == code)
            and (rater is None or s.rater == rater)
        ]
        return sorted(result, key=lambda s: (s.doc_id, s.start, s.end, s.code))

    def raters(self) -> list[str]:
        """All rater identifiers seen so far, sorted."""
        return sorted({s.rater for s in self._segments})

    def codes_for_document(self, doc_id: str, rater: str | None = None) -> list[str]:
        """Distinct codes applied to ``doc_id`` (optionally by one rater)."""
        return sorted(
            {s.code for s in self.segments(doc_id=doc_id, rater=rater)}
        )

    def code_frequencies(self, rater: str | None = None) -> dict[str, int]:
        """Segment counts per code, including zero-count codebook entries."""
        counts: dict[str, int] = {name: 0 for name in self.codebook.names()}
        for segment in self.segments(rater=rater):
            counts[segment.code] = counts.get(segment.code, 0) + 1
        return counts

    def document_code_matrix(
        self, rater: str | None = None
    ) -> dict[str, set[str]]:
        """Map each document id to the set of codes applied to it."""
        matrix: dict[str, set[str]] = {d.doc_id: set() for d in self.documents()}
        for segment in self.segments(rater=rater):
            matrix[segment.doc_id].add(segment.code)
        return matrix

    def quotes(self, code: str, rater: str | None = None) -> list[str]:
        """The quoted texts for every application of ``code``."""
        return [
            s.text_in(self._documents[s.doc_id])
            for s in self.segments(code=code, rater=rater)
        ]

    def remap_merged_codes(self) -> int:
        """Rewrite segments whose codes were merged in the codebook.

        Returns the number of segments rewritten.  Call after
        :meth:`repro.qualcoding.codebook.Codebook.merge`.
        """
        rewritten = 0
        updated: list[CodedSegment] = []
        for segment in self._segments:
            resolved = self.codebook.resolve(segment.code)
            if resolved != segment.code:
                segment = CodedSegment(
                    segment.doc_id,
                    resolved,
                    segment.start,
                    segment.end,
                    segment.rater,
                    segment.memo,
                )
                rewritten += 1
            updated.append(segment)
        self._segments = updated
        return rewritten

    def iter_units(
        self, raters: Iterable[str], doc_ids: Iterable[str] | None = None
    ) -> Iterator[tuple[str, dict[str, set[str]]]]:
        """Yield ``(doc_id, {rater: codes})`` for agreement computations.

        Documents are the units of analysis; each unit carries the set of
        codes each requested rater applied to it.
        """
        target_docs = sorted(doc_ids) if doc_ids is not None else [
            d.doc_id for d in self.documents()
        ]
        rater_list = list(raters)
        per_rater: dict[str, dict[str, set[str]]] = {
            r: defaultdict(set) for r in rater_list
        }
        for segment in self._segments:
            if segment.rater in per_rater:
                per_rater[segment.rater][segment.doc_id].add(segment.code)
        for doc_id in target_docs:
            yield doc_id, {r: set(per_rater[r].get(doc_id, set())) for r in rater_list}
