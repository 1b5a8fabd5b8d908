"""Method-adoption time series.

Turns the detector output into the per-venue, per-year adoption series
that experiment E1 reports: what share of each venue's papers mention
human-centered methods, and how that share moves over time.

The series are built from per-(venue, year) ``papers``/``human``
counters by :func:`adoption_series_from_counts` and
:func:`venue_adoption_table_from_counts`.  The counters come from one
of two places:

- the per-shard scan
  (:func:`repro.bibliometrics.shardscan.scan_corpus`), which already
  holds them for a columnar corpus, or
- :func:`adoption_series` / :func:`venue_adoption_table`, which count
  them by classifying the :class:`~repro.bibliometrics.corpus.Paper`
  objects of a classic corpus.

One builder per statistic, so the two paths cannot drift; the oracle
tests check the scan's counts against per-paper classification.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from repro.bibliometrics.corpus import Corpus
from repro.bibliometrics.methods_detect import uses_human_methods


@dataclass(frozen=True, slots=True)
class AdoptionPoint:
    """One (venue, year) observation.

    Attributes:
        venue_id: Venue id.
        year: Year.
        n_papers: Papers published that year at that venue.
        n_human: Papers among them detected as using human methods.
    """

    venue_id: str
    year: int
    n_papers: int
    n_human: int

    @property
    def share(self) -> float:
        """Human-method share (0.0 for an empty year)."""
        return self.n_human / self.n_papers if self.n_papers else 0.0


def _venue_year_counts(
    corpus: Corpus,
    min_mentions: int,
    venue_id: str | None = None,
) -> dict[tuple[str, int], Counter]:
    """Classify each paper into ``(venue, year) -> {papers, human}``."""
    counts: dict[tuple[str, int], Counter] = {}
    for paper in corpus.papers(venue_id=venue_id):
        bucket = counts.setdefault((paper.venue_id, paper.year), Counter())
        bucket["papers"] += 1
        if uses_human_methods(paper, min_mentions=min_mentions):
            bucket["human"] += 1
    return counts


def adoption_series(
    corpus: Corpus,
    venue_id: str,
    min_mentions: int = 1,
) -> list[AdoptionPoint]:
    """Yearly human-method adoption for one venue, ascending years."""
    return adoption_series_from_counts(
        _venue_year_counts(corpus, min_mentions, venue_id), venue_id
    )


def venue_adoption_table(
    corpus: Corpus,
    min_mentions: int = 1,
) -> list[dict]:
    """Per-venue adoption summary across the whole corpus.

    Returns:
        One record per venue with ``venue_id``, ``kind``, ``n_papers``,
        ``human_share`` (overall), ``early_share`` and ``late_share``
        (first and last third of the year range), sorted by descending
        ``human_share``.
    """
    return venue_adoption_table_from_counts(
        _venue_year_counts(corpus, min_mentions),
        {venue.venue_id: venue.kind for venue in corpus.venues()},
    )


def adoption_series_from_counts(
    venue_year: Mapping[tuple[str, int], Counter],
    venue_id: str,
) -> list[AdoptionPoint]:
    """:func:`adoption_series` from per-(venue, year) scan counters.

    Args:
        venue_year: ``(venue_id, year) -> Counter`` with ``"papers"``
            and ``"human"`` keys, as produced by
            :class:`repro.bibliometrics.shardscan.CorpusAggregates`.
        venue_id: The venue to extract.
    """
    points = []
    for (vid, year), bucket in venue_year.items():
        if vid != venue_id or not bucket["papers"]:
            continue
        points.append(
            AdoptionPoint(venue_id, year, bucket["papers"], bucket["human"])
        )
    points.sort(key=lambda p: p.year)
    return points


def venue_adoption_table_from_counts(
    venue_year: Mapping[tuple[str, int], Counter],
    venue_kinds: Mapping[str, str],
) -> list[dict]:
    """:func:`venue_adoption_table` from per-(venue, year) scan counters.

    The classic table's shares are ratios of per-(venue, year) paper
    and human counts, so this rebuilds the identical records without
    touching a single :class:`~repro.bibliometrics.corpus.Paper`.

    Args:
        venue_year: As in :func:`adoption_series_from_counts`.
        venue_kinds: ``venue_id -> kind`` for the venues in the table.
    """
    years = sorted({year for (_, year), b in venue_year.items() if b["papers"]})
    if not years:
        return []
    span = years[-1] - years[0] + 1
    early_cutoff = years[0] + span // 3
    late_cutoff = years[-1] - span // 3
    records = []
    for venue_id in sorted(venue_kinds):
        totals = Counter()
        early = Counter()
        late = Counter()
        for (vid, year), bucket in venue_year.items():
            if vid != venue_id:
                continue
            totals.update(bucket)
            if year < early_cutoff:
                early.update(bucket)
            if year > late_cutoff:
                late.update(bucket)
        if not totals["papers"]:
            continue
        records.append(
            {
                "venue_id": venue_id,
                "kind": venue_kinds[venue_id],
                "n_papers": totals["papers"],
                "human_share": totals["human"] / totals["papers"],
                "early_share": (
                    early["human"] / early["papers"] if early["papers"] else 0.0
                ),
                "late_share": (
                    late["human"] / late["papers"] if late["papers"] else 0.0
                ),
            }
        )
    records.sort(key=lambda r: (-r["human_share"], r["venue_id"]))
    return records
