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
streamed), and the classic dataclass pipeline remains in place as the
equivalence oracle — the tests assert that :func:`scan_corpus` + the
``*_from_counts`` helpers in :mod:`repro.bibliometrics.trends`
reproduce ``adoption_series`` / ``venue_adoption_table`` verbatim.

Text is classified a block of :data:`BLOCK_PAPERS` papers at a time.
The block's papers are joined into one string and matched in one call
to :meth:`~repro.bibliometrics.methods_detect.LexiconScanner.scan_block`
(a numpy token prefilter on an ASCII block, every ``\\w+`` token on any
other, then the scanner's one exact confirmation), and each hit is
mapped back to its paper.  Statement-marker anchors are found with
``str.find``, so only marked papers reach the positionality detector.
The detector confirms a marked paper from its "Positionality" section
when that section shows a facet cue, and runs the full extractor only
on the papers it cannot confirm (no section, a cue-free one, or an
inline statement).  The counts equal those of classifying each paper
alone.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.bibliometrics.columnar import ColumnarCorpus, ColumnarShard, CorpusVocab
from repro.bibliometrics.methods_detect import (
    DEFAULT_SCANNER,
    HUMAN_METHOD_FAMILIES,
    classify_text,  # unused here; benchmarks/e2e/test_e2e_bench.py wraps this import site
    fold_case,
)
from repro.core.positionality import MARKER_ANCHORS, has_positionality_statement

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


#: Papers per block of the block scan.  Large enough that the numpy
#: passes amortise; small enough that a block's transient arrays stay
#: around a megabyte whatever the shard size.
BLOCK_PAPERS = 512

#: Joins a block's papers.  It is neither ``\w`` nor ``\s`` and occurs in
#: no lexicon phrase or statement marker, so no pattern matches across
#: two papers and ``\b`` holds at each paper's edges exactly as at the
#: ends of a lone paper's text.
_SEPARATOR = "\x00"

#: Per family of the default scanner: is it a human-centered method.
_HUMAN = np.array([family in HUMAN_METHOD_FAMILIES for family in DEFAULT_SCANNER.families])


def _classify_block(
    texts: list[str],
) -> tuple[list[tuple[str, int]], np.ndarray, np.ndarray]:
    """Classify one block of paper texts.

    Returns ``(family_counts, human_mentions, detected)``: the block's
    per-family mention totals in the order per-paper classification
    would first meet each family, each paper's human-family mention
    count, and whether each paper carries a positionality statement.
    A paper without a marker anchor is rejected on that alone, and
    :func:`has_positionality_statement` decides a marked one from its
    "Positionality" section where it can; the full extractor runs on
    the rest.
    """
    n = len(texts)
    block = _SEPARATOR.join(texts)
    # Folding keeps offsets, so the paper starts hold for ``folded`` too.
    folded = fold_case(block)
    paper_starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(text) + 1 for text in texts], out=paper_starts[1:])
    hit_starts, hit_families = DEFAULT_SCANNER.scan_block(block, folded)

    families = DEFAULT_SCANNER.families
    hit_papers = np.searchsorted(paper_starts, hit_starts, side="right") - 1
    human = np.bincount(hit_papers[_HUMAN[hit_families]], minlength=n)
    totals = np.bincount(hit_families, minlength=len(families))
    first = np.full(len(families), len(block))
    np.minimum.at(first, hit_families, hit_starts)
    order = sorted(
        np.flatnonzero(totals).tolist(), key=lambda fid: (first[fid], families[fid])
    )
    family_counts = [(families[fid], int(totals[fid])) for fid in order]

    # A statement needs a marker first; only papers showing a marker's
    # anchor pay for the detector.  Every anchor the detector's lowered
    # text shows, ``folded`` shows too.  After a hit the anchor search
    # resumes at the next paper.
    detected = np.zeros(n, dtype=bool)
    bounds = paper_starts.tolist()
    marked = set()
    for anchor in MARKER_ANCHORS:
        at = folded.find(anchor)
        while at != -1:
            local = bisect.bisect_right(bounds, at) - 1
            marked.add(local)
            at = folded.find(anchor, bounds[local + 1])
    for local in marked:
        detected[local] = has_positionality_statement(texts[local])
    return family_counts, human, detected


def _fold_cells(
    aggregates: CorpusAggregates,
    shard: ColumnarShard,
    venue_ids: list[str],
    human: np.ndarray,
    detected: np.ndarray,
) -> None:
    """Fold per-paper flags into the ``venue_year``/``positionality`` cells.

    Cells and their counters are inserted in the order a paper-by-paper
    loop would first touch them, so the aggregate (and its records)
    match that loop key for key.
    """
    if not shard.n_papers:
        return
    years = shard.year.astype(np.int64)
    first_year = int(years.min())
    span = int(years.max()) - first_year + 1
    keys = shard.venue_idx.astype(np.int64) * span + (years - first_year)
    cells, first_paper, cell_of = np.unique(
        keys, return_index=True, return_inverse=True
    )
    cell_of = cell_of.ravel()
    n_cells = len(cells)
    truth = shard.positionality.astype(bool)
    flags = {
        "human": human,
        "detected": detected,
        "truth": truth,
        "tp": detected & truth,
        "fp": detected & ~truth,
        "fn": ~detected & truth,
    }
    counts = {"papers": np.bincount(cell_of, minlength=n_cells)}
    firsts = {}
    for name, flag in flags.items():
        counts[name] = np.bincount(cell_of[flag], minlength=n_cells)
        first = np.full(n_cells, shard.n_papers)
        np.minimum.at(first, cell_of[flag], np.flatnonzero(flag))
        firsts[name] = first
    for cell in np.argsort(first_paper, kind="stable").tolist():
        venue, year = divmod(int(cells[cell]), span)
        key = (venue_ids[venue], first_year + year)
        bucket = aggregates.venue_year[key] = Counter()
        bucket["papers"] = int(counts["papers"][cell])
        if counts["human"][cell]:
            bucket["human"] = int(counts["human"][cell])
        pos = aggregates.positionality[key] = Counter()
        for name in ("papers", "detected", "truth"):
            pos[name] = int(counts[name][cell])
        for name in sorted(("tp", "fp", "fn"), key=lambda name: firsts[name][cell]):
            if counts[name][cell]:
                pos[name] = int(counts[name][cell])


def scan_shard(
    shard: ColumnarShard,
    vocab: CorpusVocab,
    min_mentions: int = 1,
) -> CorpusAggregates:
    """Scan one shard's text and layout columns into an aggregate.

    The text is classified :data:`BLOCK_PAPERS` papers at a time by
    :func:`_classify_block`; everything else — the venue/year and
    positionality cells, topic rollups, sector slot mixes, per-author
    depth, citation counts — is folded from the layout columns with
    vectorized ``bincount`` passes.
    """
    aggregates = CorpusAggregates(n_papers=shard.n_papers)
    venue_ids = [venue.venue_id for venue in vocab.venues]
    for venue in vocab.venues:
        aggregates.venue_kinds[venue.venue_id] = venue.kind
    topics = vocab.topics
    human = np.zeros(shard.n_papers, dtype=np.int64)
    detected = np.zeros(shard.n_papers, dtype=bool)
    for lo in range(0, shard.n_papers, BLOCK_PAPERS):
        hi = min(lo + BLOCK_PAPERS, shard.n_papers)
        family_counts, human[lo:hi], detected[lo:hi] = _classify_block(
            [shard.full_text(local) for local in range(lo, hi)]
        )
        for family, count in family_counts:
            aggregates.family_mentions[family] += count
    _fold_cells(aggregates, shard, venue_ids, human >= min_mentions, detected)

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
