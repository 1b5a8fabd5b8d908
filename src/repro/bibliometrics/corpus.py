"""Corpus data model: authors, venues, papers.

The model is deliberately flat and serializable — the same records could
be populated from DBLP/Semantic-Scholar scrapes when network access is
available, or from :mod:`repro.bibliometrics.synthgen` when it is not.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator


@dataclass(frozen=True, slots=True)
class Author:
    """A researcher.

    Attributes:
        author_id: Stable unique id.
        name: Display name.
        affiliation: Institution name.
        sector: Institution sector ("university", "hyperscaler",
            "operator", "ngo", "government").
        region: Coarse region ("north-america", "europe", "latin-america",
            "africa", "asia", "oceania").
    """

    author_id: str
    name: str
    affiliation: str = ""
    sector: str = "university"
    region: str = "north-america"


@dataclass(frozen=True, slots=True)
class Venue:
    """A publication venue.

    Attributes:
        venue_id: Stable unique id ("sigcomm-like").
        name: Display name.
        kind: Community the venue belongs to ("networking", "hci", "sts").
    """

    venue_id: str
    name: str
    kind: str = "networking"


@dataclass(frozen=True, slots=True)
class Paper:
    """A published paper.

    Attributes:
        paper_id: Stable unique id.
        title: Title text.
        abstract: Abstract text.
        body: Optional full(er) text — sections the detectors scan.
        venue_id: Venue of publication.
        year: Publication year.
        author_ids: Ordered author ids.
        topic: Primary topic label ("datacenter", "community-networks", ...).
        references: Cited paper ids (within-corpus).
    """

    paper_id: str
    title: str
    abstract: str
    venue_id: str
    year: int
    author_ids: tuple[str, ...] = ()
    body: str = ""
    topic: str = ""
    references: tuple[str, ...] = ()

    @property
    def full_text(self) -> str:
        """Title + abstract + body, for text scanning."""
        return "\n\n".join(part for part in (self.title, self.abstract, self.body) if part)


class Corpus:
    """An in-memory publication corpus with indexed lookups.

    Example:
        >>> corpus = Corpus()
        >>> corpus.add_venue(Venue("v1", "SIGCOMM-like"))
        >>> corpus.add_author(Author("a1", "A. Researcher"))
        >>> corpus.add_paper(Paper("p1", "BGP at scale", "We measure...",
        ...                        "v1", 2020, ("a1",)))
        >>> len(corpus)
        1
    """

    def __init__(self) -> None:
        self._papers: dict[str, Paper] = {}
        self._authors: dict[str, Author] = {}
        self._venues: dict[str, Venue] = {}
        # The papers in id order, sorted on first iteration after a change.
        self._sorted: list[Paper] | None = None

    def __len__(self) -> int:
        return len(self._papers)

    def __iter__(self) -> Iterator[Paper]:
        if self._sorted is None:
            self._sorted = sorted(self._papers.values(), key=lambda p: p.paper_id)
        return iter(self._sorted)

    # -- mutation ----------------------------------------------------------

    def add_author(self, author: Author) -> None:
        """Register an author; rejects duplicate ids."""
        if author.author_id in self._authors:
            raise ValueError(f"duplicate author id: {author.author_id!r}")
        self._authors[author.author_id] = author

    def add_venue(self, venue: Venue) -> None:
        """Register a venue; rejects duplicate ids."""
        if venue.venue_id in self._venues:
            raise ValueError(f"duplicate venue id: {venue.venue_id!r}")
        self._venues[venue.venue_id] = venue

    def add_paper(self, paper: Paper) -> None:
        """Register a paper; validates venue and author references."""
        if paper.paper_id in self._papers:
            raise ValueError(f"duplicate paper id: {paper.paper_id!r}")
        if paper.venue_id not in self._venues:
            raise ValueError(f"unknown venue: {paper.venue_id!r}")
        missing = [a for a in paper.author_ids if a not in self._authors]
        if missing:
            raise ValueError(f"unknown authors: {missing}")
        self._papers[paper.paper_id] = paper
        self._sorted = None

    # -- lookups -----------------------------------------------------------

    def paper(self, paper_id: str) -> Paper:
        """Paper by id (KeyError when absent)."""
        return self._papers[paper_id]

    def author(self, author_id: str) -> Author:
        """Author by id (KeyError when absent)."""
        return self._authors[author_id]

    def venue(self, venue_id: str) -> Venue:
        """Venue by id (KeyError when absent)."""
        return self._venues[venue_id]

    def papers(
        self,
        venue_id: str | None = None,
        year: int | None = None,
        topic: str | None = None,
        predicate: Callable[[Paper], bool] | None = None,
    ) -> list[Paper]:
        """Papers filtered by venue, year, topic, and/or a predicate."""
        result = [
            p
            for p in self
            if (venue_id is None or p.venue_id == venue_id)
            and (year is None or p.year == year)
            and (topic is None or p.topic == topic)
            and (predicate is None or predicate(p))
        ]
        return result

    def venues(self) -> list[Venue]:
        """All venues, sorted by id."""
        return sorted(self._venues.values(), key=lambda v: v.venue_id)

    def authors(self) -> list[Author]:
        """All authors, sorted by id."""
        return sorted(self._authors.values(), key=lambda a: a.author_id)

    def years(self) -> list[int]:
        """Distinct publication years, ascending."""
        return sorted({p.year for p in self._papers.values()})

    # -- aggregates ---------------------------------------------------------

    def papers_per_author(self) -> Counter:
        """Counter of paper counts keyed by author id."""
        counts: Counter = Counter()
        for paper in self._papers.values():
            counts.update(paper.author_ids)
        return counts

    def citation_counts(self) -> Counter:
        """Counter of within-corpus citations keyed by cited paper id."""
        counts: Counter = Counter()
        for paper in self._papers.values():
            counts.update(paper.references)
        return counts

    def topic_counts(self, venue_id: str | None = None) -> Counter:
        """Counter of paper counts keyed by topic."""
        return Counter(
            p.topic for p in self.papers(venue_id=venue_id) if p.topic
        )

    # -- serialization -------------------------------------------------------

    def to_records(self) -> dict[str, list[dict]]:
        """Serialize to JSONL-ready record lists."""
        return {
            "venues": [
                {"venue_id": v.venue_id, "name": v.name, "kind": v.kind}
                for v in self.venues()
            ],
            "authors": [
                {
                    "author_id": a.author_id,
                    "name": a.name,
                    "affiliation": a.affiliation,
                    "sector": a.sector,
                    "region": a.region,
                }
                for a in self.authors()
            ],
            "papers": [
                {
                    "paper_id": p.paper_id,
                    "title": p.title,
                    "abstract": p.abstract,
                    "body": p.body,
                    "venue_id": p.venue_id,
                    "year": p.year,
                    "author_ids": list(p.author_ids),
                    "topic": p.topic,
                    "references": list(p.references),
                }
                for p in self
            ],
        }

    @classmethod
    def from_records(cls, records: dict[str, Iterable[dict]]) -> "Corpus":
        """Inverse of :meth:`to_records`."""
        corpus = cls()
        for venue in records.get("venues", []):
            corpus.add_venue(Venue(**venue))
        for author in records.get("authors", []):
            corpus.add_author(Author(**author))
        for paper in records.get("papers", []):
            payload = dict(paper)
            payload["author_ids"] = tuple(payload.get("author_ids", ()))
            payload["references"] = tuple(payload.get("references", ()))
            corpus.add_paper(Paper(**payload))
        return corpus
