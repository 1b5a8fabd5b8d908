"""Community demographics: who is in the room, over time.

Section 1's diagnosis is demographic: "Existing agendas tend to reflect
the views of those who are most easily reachable — researchers with the
right affiliations, invitations, and implicit credibility."  This
module measures a venue's room:

- :func:`newcomer_share` -- fraction of each year's author slots held
  by first-time authors at that venue (an open room admits newcomers).
- :func:`author_retention` -- fraction of one year's authors who
  publish at the venue again within ``horizon`` years.
- :func:`sector_mix` / :func:`region_mix` -- composition of author
  slots by sector/region, with a concentration Gini.
- :func:`gatekeeping_index` -- share of a venue's papers with at least
  one author from its top-decile most-published authors: high values
  mean the same names are on most of the papers.

Each statistic has one numpy implementation over a :class:`Room`, a
venue's byline slots as arrays.  The functions above build the room from
a classic :class:`~repro.bibliometrics.corpus.Corpus`; :func:`room_reports`
reads it from a :class:`~repro.bibliometrics.columnar.ColumnarCorpus`'s
integer columns in one pass over the shards, building no ``Paper``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.bibliometrics.corpus import Corpus
from repro.bibliometrics.metrics import gini

if TYPE_CHECKING:
    from repro.bibliometrics.columnar import ColumnarCorpus


@dataclass(frozen=True)
class Room:
    """A venue's byline slots, one array entry per slot, in paper order
    and then byline order.

    ``paper`` is any key that rises with paper order, ``author`` any key
    naming the author; ``sector`` and ``region`` are the author's.
    ``n_papers`` counts papers without authors too, and ``first_year``
    is the corpus's first year, not the venue's.
    """

    n_papers: int
    first_year: int | None
    paper: np.ndarray
    year: np.ndarray
    author: np.ndarray
    sector: np.ndarray
    region: np.ndarray


def _newcomer_shares(room: Room) -> dict[int, float]:
    # Every slot in an author's first year at the venue is new.
    authors, author = np.unique(room.author, return_inverse=True)
    first_seen = np.full(authors.size, np.iinfo(np.int64).max)
    np.minimum.at(first_seen, author, room.year)
    years, year = np.unique(room.year, return_inverse=True)
    slots = np.bincount(year, minlength=years.size)
    new = np.bincount(year[room.year == first_seen[author]], minlength=years.size)
    return {
        y: n / s
        for y, n, s in zip(years.tolist(), new.tolist(), slots.tolist())
        if y != room.first_year
    }


def _retention(room: Room, year: int, horizon: int) -> float:
    cohort = np.unique(room.author[room.year == year])
    if not cohort.size:
        return 0.0
    later = (room.year > year) & (room.year <= year + horizon)
    return int(np.isin(cohort, room.author[later]).sum()) / cohort.size


def _slot_mix(values: np.ndarray) -> dict:
    names, counts = np.unique(values, return_counts=True)
    total = int(counts.sum())
    return {
        "shares": {
            name: count / total for name, count in zip(names.tolist(), counts.tolist())
        },
        "gini": gini(counts) if counts.size else 0.0,
        "n_slots": total,
    }


def _gatekeeping(room: Room) -> float:
    if not room.author.size:
        return 0.0
    _, first, author, counts = np.unique(
        room.author, return_index=True, return_inverse=True, return_counts=True
    )
    # Count descending, ties by first slot: ``Counter.most_common``'s order.
    ranked = np.lexsort((first, -counts))
    top = np.zeros(counts.size, dtype=bool)
    top[ranked[:max(1, counts.size // 10)]] = True
    return np.unique(room.paper[top[author]]).size / room.n_papers


def _report(room: Room) -> dict:
    newcomers = _newcomer_shares(room)
    sectors = _slot_mix(room.sector)
    regions = _slot_mix(room.region)
    south = (
        regions["shares"].get("latin-america", 0.0)
        + regions["shares"].get("africa", 0.0)
    )
    return {
        "mean_newcomer_share": (
            sum(newcomers.values()) / len(newcomers) if newcomers else 0.0
        ),
        "sector_gini": sectors["gini"],
        "region_gini": regions["gini"],
        "hyperscaler_slot_share": sectors["shares"].get("hyperscaler", 0.0),
        "global_south_slot_share": south,
        "gatekeeping_index": _gatekeeping(room),
    }


def _corpus_room(corpus: Corpus, venue_id: str | None) -> Room:
    """The room of ``venue_id`` (every venue for None), in id order."""
    papers = corpus.papers(venue_id=venue_id)
    slots = [
        (position, paper.year, corpus.author(author_id))
        for position, paper in enumerate(papers)
        for author_id in paper.author_ids
    ]
    years = corpus.years()
    return Room(
        n_papers=len(papers),
        first_year=years[0] if years else None,
        paper=np.array([slot[0] for slot in slots], dtype=np.int64),
        year=np.array([slot[1] for slot in slots], dtype=np.int64),
        author=np.array([slot[2].author_id for slot in slots], dtype=str),
        sector=np.array([slot[2].sector for slot in slots], dtype=str),
        region=np.array([slot[2].region for slot in slots], dtype=str),
    )


def newcomer_share(corpus: Corpus, venue_id: str) -> dict[int, float]:
    """Per-year share of author slots held by venue first-timers.

    The first year of the corpus is skipped (everyone is a newcomer to
    an empty history, which says nothing).
    """
    return _newcomer_shares(_corpus_room(corpus, venue_id))


def author_retention(
    corpus: Corpus, venue_id: str, year: int, horizon: int = 3
) -> float:
    """Fraction of ``year``'s authors publishing at the venue again
    within ``horizon`` years.

    Returns 0.0 when the year has no papers at the venue.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return _retention(_corpus_room(corpus, venue_id), year, horizon)


def sector_mix(corpus: Corpus, venue_id: str | None = None) -> dict:
    """Author-slot shares by sector, plus a concentration Gini."""
    return _slot_mix(_corpus_room(corpus, venue_id).sector)


def region_mix(corpus: Corpus, venue_id: str | None = None) -> dict:
    """Author-slot shares by region, plus a concentration Gini."""
    return _slot_mix(_corpus_room(corpus, venue_id).region)


def gatekeeping_index(corpus: Corpus, venue_id: str) -> float:
    """Share of the venue's papers carrying a top-decile frequent author.

    The top decile is computed over the venue's own author publication
    counts (minimum one author).  1.0 means every paper has an
    established name on it — a closed room; low values mean entry
    without sponsorship is normal.
    """
    return _gatekeeping(_corpus_room(corpus, venue_id))


def room_report(corpus: Corpus, venue_id: str) -> dict:
    """All demographics for one venue in one dict.

    Keys: ``mean_newcomer_share``, ``sector_gini``, ``region_gini``,
    ``hyperscaler_slot_share``, ``global_south_slot_share`` (latin-
    america + africa regions), ``gatekeeping_index``.
    """
    return _report(_corpus_room(corpus, venue_id))


def room_reports(corpus: ColumnarCorpus, venue_ids: Iterable[str]) -> dict[str, dict]:
    """:func:`room_report` of each venue, read from the integer columns
    in one pass over the shards."""
    vocab = corpus.vocab
    venue_of = {venue.venue_id: i for i, venue in enumerate(vocab.venues)}
    wanted = {venue_id: venue_of[venue_id] for venue_id in venue_ids}
    n_papers = np.zeros(len(vocab.venues), dtype=np.int64)
    first_years, parts = [], []
    for shard in corpus.iter_shards():
        if not shard.n_papers:
            continue
        first_years.append(int(shard.year.min()))
        n_papers += np.bincount(shard.venue_idx, minlength=n_papers.size)
        lengths = np.diff(shard.author_indptr)
        slots = np.stack([
            np.repeat(shard.venue_idx, lengths),
            np.repeat(np.arange(shard.n_papers) + shard.paper_offset, lengths),
            np.repeat(shard.year, lengths),
            shard.author_values,
        ])
        parts.append(slots[:, np.isin(slots[0], list(wanted.values()))])
    venue, paper, year, author = (
        np.concatenate(parts, axis=1) if parts else np.zeros((4, 0), dtype=np.int64)
    )
    sectors, regions = np.array(vocab.sectors), np.array(vocab.regions)
    reports = {}
    for venue_id, index in wanted.items():
        here = venue == index
        reports[venue_id] = _report(Room(
            int(n_papers[index]), min(first_years, default=None),
            paper[here], year[here], author[here],
            sectors[vocab.author_sector_idx[author[here]]],
            regions[vocab.author_region_idx[author[here]]],
        ))
    return reports
