"""Per-shard corpus analytics with associative reducers.

The classic analytics (``methods_detect.classify_paper`` over every
paper, ``trends.adoption_series``, the ``metrics`` indices over Counter
values) materialize the whole corpus as :class:`Paper` objects.  At
10⁶ papers that is exactly the ceiling the columnar layout removes — so
this module re-expresses them as a **per-shard scan** producing a small
associative summary, :class:`CorpusAggregates`, that merges like the
in-tree ``MetricsRegistry.merge`` pattern:

    ``scan(A ∪ B) == scan(A).merge(scan(B))``  (order-insensitive)

One shard is resident at a time (the scan drives
:meth:`ColumnarCorpus.iter_shards`, so streaming corpora stay
streamed), each paper's text is scanned exactly once, and the classic
dataclass pipeline remains in place as the equivalence oracle — the
tests assert that :func:`scan_corpus` + the ``*_from_counts`` helpers
in :mod:`repro.bibliometrics.trends` reproduce ``adoption_series`` /
``venue_adoption_table`` verbatim.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.bibliometrics.columnar import ColumnarCorpus, ColumnarShard, CorpusVocab
from repro.bibliometrics.methods_detect import (
    HUMAN_METHOD_FAMILIES,
    classify_text,
)
from repro.core.positionality import (
    STATEMENT_MARKERS,
    has_positionality_statement,
)

__all__ = [
    "AGGREGATES_ARTIFACT_KIND",
    "AGGREGATES_SCHEMA_VERSION",
    "CorpusAggregates",
    "scan_corpus",
    "scan_shard",
]

#: Artifact-cache kind for persisted :class:`CorpusAggregates`.
AGGREGATES_ARTIFACT_KIND = "corpus-aggregates"

#: Bump when the scan or the record layout changes meaning; older
#: entries become unreachable and the corpus is rescanned on demand.
AGGREGATES_SCHEMA_VERSION = 1

#: Record-layout groups of the :class:`CorpusAggregates` fields: maps
#: keyed by ``(venue_id, year)``, maps keyed by one id, flat counters.
_CELL_FIELDS = ("venue_year", "positionality")
_KEYED_FIELDS = ("venue_topics", "sector_slots")
_COUNTER_FIELDS = ("family_mentions", "topic_papers", "author_papers", "citations")


def _merge_counter_maps(ours: dict, theirs: dict) -> dict:
    """Key-wise ``Counter`` addition of two ``key -> Counter`` maps."""
    merged = {key: Counter(value) for key, value in ours.items()}
    for key, value in theirs.items():
        bucket = merged.get(key)
        if bucket is None:
            merged[key] = Counter(value)
        else:
            bucket.update(value)
    return merged


@dataclass
class CorpusAggregates:
    """An associative summary of (part of) a corpus.

    Every field is an integer count (or a map of them), so merging is
    exact — no float accumulation order to worry about — and a scan
    gives bit-identical experiment results however the corpus is
    sharded, and whether it is scanned fresh or read back through
    :meth:`to_records`/:meth:`from_records`.

    Attributes:
        n_papers: Papers scanned.
        venue_year: ``(venue_id, year) ->`` ``Counter`` with keys
            ``"papers"`` and ``"human"`` (papers detected at or above
            the scan's ``min_mentions`` threshold).
        family_mentions: Total detected mentions per method family.
        topic_papers: Paper counts per generator topic.
        venue_kinds: ``venue_id -> kind`` for every venue that
            contributed papers (carried so table builders need no
            corpus object).
        positionality: ``(venue_id, year) ->`` ``Counter`` with keys
            ``"papers"``, ``"detected"`` (extractor fired), ``"truth"``
            (ground-truth statement present), and the confusion cells
            ``"tp"``/``"fp"``/``"fn"`` — everything E2 needs, at
            by-year resolution so trend analyses need no rescan.
        venue_topics: ``venue_id ->`` per-topic paper ``Counter``
            (E3's agenda-concentration input, resolvable to venue
            kinds via :attr:`venue_kinds`).
        sector_slots: ``venue_id ->`` author-slot ``Counter`` keyed by
            author sector (E3's authorship-share input; one increment
            per byline slot, not per distinct author).
        author_papers: Global author index ``->`` papers authored
            (per-author depth, E12's small-N-engagement input).
        citations: Global paper index ``->`` within-corpus citations
            received.  Papers with zero citations are absent; fill
            from :attr:`n_papers` when a dense vector is needed.
    """

    n_papers: int = 0
    venue_year: dict[tuple[str, int], Counter] = field(default_factory=dict)
    family_mentions: Counter = field(default_factory=Counter)
    topic_papers: Counter = field(default_factory=Counter)
    venue_kinds: dict[str, str] = field(default_factory=dict)
    positionality: dict[tuple[str, int], Counter] = field(default_factory=dict)
    venue_topics: dict[str, Counter] = field(default_factory=dict)
    sector_slots: dict[str, Counter] = field(default_factory=dict)
    author_papers: Counter = field(default_factory=Counter)
    citations: Counter = field(default_factory=Counter)

    def merge(self, other: "CorpusAggregates") -> "CorpusAggregates":
        """The associative (and commutative) combination of two scans."""
        return CorpusAggregates(
            n_papers=self.n_papers + other.n_papers,
            venue_year=_merge_counter_maps(self.venue_year, other.venue_year),
            family_mentions=self.family_mentions + other.family_mentions,
            topic_papers=self.topic_papers + other.topic_papers,
            venue_kinds={**self.venue_kinds, **other.venue_kinds},
            positionality=_merge_counter_maps(
                self.positionality, other.positionality
            ),
            venue_topics=_merge_counter_maps(
                self.venue_topics, other.venue_topics
            ),
            sector_slots=_merge_counter_maps(
                self.sector_slots, other.sector_slots
            ),
            author_papers=self.author_papers + other.author_papers,
            citations=self.citations + other.citations,
        )

    @classmethod
    def merge_all(cls, parts: Iterable["CorpusAggregates"]) -> "CorpusAggregates":
        """Fold :meth:`merge` over ``parts`` (empty input -> empty summary)."""
        merged = cls()
        for part in parts:
            merged = merged.merge(part)
        return merged

    def to_records(self) -> list[dict]:
        """Serialize to artifact-cache records (JSON-safe, no pickle).

        Every map travels as a list of ``[key, value]`` pairs, so
        integer keys keep their type and iteration order survives the
        cache's sorted-key JSON dump.
        """
        records: list[dict] = [{
            "n_papers": self.n_papers,
            "venue_kinds": list(self.venue_kinds.items()),
        }]
        for name in _CELL_FIELDS:
            records.append({"field": name, "items": [
                [venue_id, year, list(cells.items())]
                for (venue_id, year), cells in getattr(self, name).items()
            ]})
        for name in _KEYED_FIELDS:
            records.append({"field": name, "items": [
                [key, list(counts.items())]
                for key, counts in getattr(self, name).items()
            ]})
        for name in _COUNTER_FIELDS:
            records.append(
                {"field": name, "items": list(getattr(self, name).items())}
            )
        return records

    @classmethod
    def from_records(cls, records: list[dict]) -> "CorpusAggregates":
        """Inverse of :meth:`to_records` (ValueError on an unknown layout)."""
        if not records or "n_papers" not in records[0]:
            raise ValueError("not an aggregates record stream: missing header")
        aggregates = cls(
            n_papers=int(records[0]["n_papers"]),
            venue_kinds=dict(records[0]["venue_kinds"]),
        )
        for record in records[1:]:
            name, items = record.get("field"), record.get("items", ())
            if name in _CELL_FIELDS:
                value = {
                    (venue_id, year): Counter(dict(cells))
                    for venue_id, year, cells in items
                }
            elif name in _KEYED_FIELDS:
                value = {key: Counter(dict(counts)) for key, counts in items}
            elif name in _COUNTER_FIELDS:
                value = Counter(dict(items))
            else:
                raise ValueError(f"unknown aggregates field {name!r}")
            setattr(aggregates, name, value)
        return aggregates


def _positionality_candidates(shard: ColumnarShard) -> np.ndarray:
    """Papers that *might* carry a positionality statement (boolean mask).

    :func:`has_positionality_statement` starts by hunting for one of a
    handful of marker phrases, and the overwhelming majority of papers
    carry none — so this prefilter finds every marker occurrence in the
    shard's concatenated text blobs at C speed and flags only the
    papers they land in.  A marker cannot contain the ``"\\n\\n"`` that
    joins a paper's full text, so a marker in the full text is a marker
    in one of the three columns: the mask is a superset of the true
    detections (a straddle across adjacent papers in a blob can
    over-flag, never under-flag), and the real detector has the final
    word on every flagged paper.
    """
    flags = np.zeros(shard.n_papers, dtype=bool)
    for column in (shard.title, shard.abstract, shard.body):
        blob = column.blob.lower()
        offsets = column.offsets
        for marker in STATEMENT_MARKERS:
            start = blob.find(marker)
            while start != -1:
                paper = int(np.searchsorted(offsets, start, side="right")) - 1
                if 0 <= paper < shard.n_papers:
                    flags[paper] = True
                start = blob.find(marker, start + 1)
    return flags


def scan_shard(
    shard: ColumnarShard,
    vocab: CorpusVocab,
    min_mentions: int = 1,
) -> CorpusAggregates:
    """Scan one shard's text and layout columns into an aggregate.

    Each paper's full text is assembled from the shard's string pools
    **once** and handed to the method classifier (plus, for the few
    marker-flagged papers, the positionality detector); everything the
    layout columns can answer — venue/year/topic rollups, sector slot
    mixes, per-author depth, citation counts — is folded with
    vectorized ``bincount`` passes, so the per-paper Python loop stays
    text-classification-bound.
    """
    aggregates = CorpusAggregates(n_papers=shard.n_papers)
    venue_ids = [venue.venue_id for venue in vocab.venues]
    for venue in vocab.venues:
        aggregates.venue_kinds[venue.venue_id] = venue.kind
    venue_year = aggregates.venue_year
    family_mentions = aggregates.family_mentions
    positionality = aggregates.positionality
    year_column = shard.year
    venue_column = shard.venue_idx
    truth_column = shard.positionality
    topics = vocab.topics
    candidates = _positionality_candidates(shard)
    for local in range(shard.n_papers):
        text = shard.full_text(local)
        counts = classify_text(text)
        human_total = 0
        for family, count in counts.items():
            family_mentions[family] += count
            if family in HUMAN_METHOD_FAMILIES:
                human_total += count
        key = (venue_ids[venue_column[local]], int(year_column[local]))
        bucket = venue_year.get(key)
        if bucket is None:
            bucket = venue_year[key] = Counter()
        bucket["papers"] += 1
        if human_total >= min_mentions:
            bucket["human"] += 1

        detected = bool(candidates[local]) and has_positionality_statement(text)
        actual = bool(truth_column[local])
        pos = positionality.get(key)
        if pos is None:
            pos = positionality[key] = Counter()
        pos["papers"] += 1
        pos["detected"] += int(detected)
        pos["truth"] += int(actual)
        if detected and actual:
            pos["tp"] += 1
        elif detected:
            pos["fp"] += 1
        elif actual:
            pos["fn"] += 1

    n_topics = max(1, len(topics))
    n_venues = max(1, len(venue_ids))
    n_sectors = max(1, len(vocab.sectors))

    flat = np.bincount(
        shard.venue_idx.astype(np.int64) * n_topics + shard.topic_idx,
        minlength=n_venues * n_topics,
    )
    for index in np.nonzero(flat)[0]:
        venue_id = venue_ids[int(index) // n_topics]
        topic = topics[int(index) % n_topics]
        count = int(flat[index])
        aggregates.topic_papers[topic] += count
        bucket = aggregates.venue_topics.get(venue_id)
        if bucket is None:
            bucket = aggregates.venue_topics[venue_id] = Counter()
        bucket[topic] += count

    if shard.author_values.size:
        slot_venue = np.repeat(
            shard.venue_idx.astype(np.int64), np.diff(shard.author_indptr)
        )
        slot_sector = vocab.author_sector_idx[shard.author_values]
        flat = np.bincount(
            slot_venue * n_sectors + slot_sector,
            minlength=n_venues * n_sectors,
        )
        for index in np.nonzero(flat)[0]:
            venue_id = venue_ids[int(index) // n_sectors]
            sector = vocab.sectors[int(index) % n_sectors]
            bucket = aggregates.sector_slots.get(venue_id)
            if bucket is None:
                bucket = aggregates.sector_slots[venue_id] = Counter()
            bucket[sector] += int(flat[index])

        depth = np.bincount(shard.author_values)
        for author_index in np.nonzero(depth)[0]:
            aggregates.author_papers[int(author_index)] += int(depth[author_index])

    if shard.ref_values.size:
        cited = np.bincount(shard.ref_values)
        for paper_index in np.nonzero(cited)[0]:
            aggregates.citations[int(paper_index)] += int(cited[paper_index])
    return aggregates


def scan_corpus(
    corpus: ColumnarCorpus,
    min_mentions: int = 1,
) -> CorpusAggregates:
    """Scan a whole columnar corpus, one shard resident at a time.

    Equivalent to classifying every materialized :class:`Paper` (the
    oracle tests pin this down), at columnar cost: the reduction is a
    fold of :meth:`CorpusAggregates.merge` over per-shard scans, so
    the result is independent of shard boundaries.
    """
    merged = CorpusAggregates()
    for shard in corpus.iter_shards():
        merged = merged.merge(scan_shard(shard, corpus.vocab, min_mentions))
    return merged
