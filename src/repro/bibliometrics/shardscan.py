"""Per-shard corpus analytics with associative reducers.

The classic analytics (``methods_detect.classify_paper`` over every
paper, ``trends.adoption_series``, the ``metrics`` indices over Counter
values) run on the Paper-level :class:`~repro.bibliometrics.corpus.Corpus`,
which :meth:`ColumnarCorpus.to_corpus` materializes in full.  At 10⁶
papers that is exactly the ceiling the columnar layout removes — so
this module re-expresses them as a **per-shard scan** producing a small
associative summary, :class:`CorpusAggregates`, that merges like the
in-tree ``MetricsRegistry.merge`` pattern:

    ``scan(A ∪ B) == scan(A).merge(scan(B))``  (order-insensitive)

:func:`scan_corpus` scans one shard per task over the
:class:`~repro.runtime.supervisor.WorkerSupervisor` pool (forked, so
workers reach the corpus without pickling it) and folds the parts in
shard order; one shard is resident per process, so streaming corpora
stay streamed.  The classic per-paper classification over
``to_corpus()`` remains as the equivalence oracle: the tests assert
that the scan's counters equal it, and the trend builders in
:mod:`repro.bibliometrics.trends` take either set of counters.

The summary holds only cells, so its size does not grow with the
corpus; per-paper and per-author statistics (E12's count arrays, E3's
room report) read the corpus's integer columns instead.

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
import contextlib
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

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
    "FAULT_SITE",
    "CorpusAggregates",
    "scan_corpus",
    "scan_shard",
]

#: Artifact-cache kind for persisted :class:`CorpusAggregates`.
AGGREGATES_ARTIFACT_KIND = "corpus-aggregates"

#: Bump when the scan or the record layout changes meaning; older
#: entries become unreachable and the corpus is rescanned on demand.
#: v2 drops the per-author and per-paper count maps.
AGGREGATES_SCHEMA_VERSION = 2

#: Record-layout groups of the :class:`CorpusAggregates` fields: maps
#: keyed by ``(venue_id, year)``, maps keyed by one id, flat counters.
_CELL_FIELDS = ("venue_year", "positionality")
_KEYED_FIELDS = ("venue_topics", "sector_slots")
_COUNTER_FIELDS = ("family_mentions", "topic_papers")


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

    No map is keyed by a paper or an author (see the module docstring).
    """

    n_papers: int = 0
    venue_year: dict[tuple[str, int], Counter] = field(default_factory=dict)
    family_mentions: Counter = field(default_factory=Counter)
    topic_papers: Counter = field(default_factory=Counter)
    venue_kinds: dict[str, str] = field(default_factory=dict)
    positionality: dict[tuple[str, int], Counter] = field(default_factory=dict)
    venue_topics: dict[str, Counter] = field(default_factory=dict)
    sector_slots: dict[str, Counter] = field(default_factory=dict)

    def update(self, other: "CorpusAggregates") -> "CorpusAggregates":
        """Add ``other`` into this summary in place; returns ``self``.

        Every count is positive, so keys keep the order ``Counter``
        addition would give them: this summary's first, then the new
        ones of ``other`` in its order.  ``other`` is never aliased.
        """
        self.n_papers += other.n_papers
        for name in _CELL_FIELDS + _KEYED_FIELDS:
            ours = getattr(self, name)
            for key, counts in getattr(other, name).items():
                bucket = ours.get(key)
                if bucket is None:
                    ours[key] = Counter(counts)
                else:
                    bucket.update(counts)
        for name in _COUNTER_FIELDS:
            getattr(self, name).update(getattr(other, name))
        self.venue_kinds.update(other.venue_kinds)
        return self

    def merge(self, other: "CorpusAggregates") -> "CorpusAggregates":
        """The associative (and commutative) combination of two scans."""
        return CorpusAggregates().update(self).update(other)

    @classmethod
    def merge_all(cls, parts: Iterable["CorpusAggregates"]) -> "CorpusAggregates":
        """Fold :meth:`update` over ``parts`` (empty input -> empty summary)."""
        merged = cls()
        for part in parts:
            merged.update(part)
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
    positionality cells, topic rollups, sector slot mixes — is folded
    from the layout columns with vectorized ``bincount`` passes.
    """
    aggregates = CorpusAggregates(n_papers=shard.n_papers)
    venue_ids = [venue.venue_id for venue in vocab.venues]
    for venue in vocab.venues:
        aggregates.venue_kinds[venue.venue_id] = venue.kind
    human = np.zeros(shard.n_papers, dtype=np.int64)
    detected = np.zeros(shard.n_papers, dtype=bool)
    for lo in range(0, shard.n_papers, BLOCK_PAPERS):
        hi = min(lo + BLOCK_PAPERS, shard.n_papers)
        family_counts, human[lo:hi], detected[lo:hi] = _classify_block(
            shard.full_texts(lo, hi)
        )
        for family, count in family_counts:
            aggregates.family_mentions[family] += count
    _fold_cells(aggregates, shard, venue_ids, human >= min_mentions, detected)

    aggregates.venue_topics = _venue_counts(
        venue_ids, vocab.topics, shard.venue_idx, shard.topic_idx
    )
    for counts in aggregates.venue_topics.values():
        aggregates.topic_papers.update(counts)
    aggregates.sector_slots = _venue_counts(
        venue_ids,
        vocab.sectors,
        np.repeat(shard.venue_idx, np.diff(shard.author_indptr)),
        vocab.author_sector_idx[shard.author_values],
    )
    return aggregates


def _venue_counts(
    venue_ids: list[str], names: tuple[str, ...], venue: np.ndarray, key: np.ndarray
) -> dict[str, Counter]:
    """``venue_id -> Counter(name -> pairs)`` over ``(venue, key)`` index
    pairs, in venue index order and then name index order."""
    width = max(1, len(names))
    flat = np.bincount(
        venue.astype(np.int64) * width + key, minlength=max(1, len(venue_ids)) * width
    )
    counts: dict[str, Counter] = {}
    for index in np.flatnonzero(flat).tolist():
        venue_index, name = divmod(index, width)
        counts.setdefault(venue_ids[venue_index], Counter())[names[name]] = int(flat[index])
    return counts


#: Fault-injection site every shard scan consults (see :func:`scan_corpus`).
FAULT_SITE = "shardscan:shard"

#: ``(corpus, min_mentions)`` of the pool scan in progress, set around
#: its one supervisor run.  The pool's workers are forked there and
#: reach the corpus through this slot, so a task carries only a shard
#: index.  Only the main thread runs a pool, so one scan owns it.
_pool_scan: tuple[ColumnarCorpus, int] | None = None


def _scan_one(
    corpus: ColumnarCorpus, min_mentions: int, index: int, injector
) -> CorpusAggregates:
    """Scan shard ``index`` after consulting ``injector`` (a
    :class:`~repro.runtime.faultinject.FaultInjector` or None) at the
    ``shardscan:shard`` fault site."""
    if injector is not None:
        injector.check(FAULT_SITE)
    return scan_shard(corpus.shard(index), corpus.vocab, min_mentions)


def _scan_task(task: dict) -> CorpusAggregates:
    """Supervisor entry point, run in a forked pool worker: scan the
    task's shard of the pool scan's corpus.

    The worker's ambient injector is the parent's as forked; it is
    rebuilt with the task's prior worker crashes credited against
    ``kill`` budgets (as for ``shardgen:shard``), so "crash once, then
    succeed" survives the requeue.
    """
    from repro.runtime.faultinject import FaultInjector, current_fault_injector

    injector = current_fault_injector()
    if injector is not None:
        injector = FaultInjector.from_task(
            injector.to_task(), task.get("worker_crashes", 0)
        )
    corpus, min_mentions = _pool_scan
    return _scan_one(corpus, min_mentions, task["shard"], injector)


def _scan_width(corpus: ColumnarCorpus, workers: int | None) -> int:
    """Pool width for a scan: 1 wherever forking a pool is not safe.

    That is inside a pool worker (pools never nest), off the main
    thread (forking a threaded process can deadlock the child), and on
    a platform without ``fork``.
    """
    import multiprocessing
    import threading

    from repro.runtime.faultinject import in_worker_process

    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            workers = len(os.sched_getaffinity(0))
        else:  # pragma: no cover - platforms without CPU affinity
            workers = os.cpu_count() or 1
    if (
        in_worker_process()
        or threading.current_thread() is not threading.main_thread()
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return 1
    return max(1, min(workers, corpus.n_shards))


def _scanned_parts(
    corpus: ColumnarCorpus, min_mentions: int, width: int
) -> Iterator[tuple[int, CorpusAggregates]]:
    """``(shard index, part)`` of every shard, in the order they finish:
    in-process at width 1, else one task per shard under a
    :class:`~repro.runtime.supervisor.WorkerSupervisor`.  In-process
    scans consult the caller's ambient fault injector itself, so its
    budgets, random stream and stats carry across shards.  A shard whose
    task is quarantined is scanned in-process, where ``kill`` faults do
    not fire."""
    global _pool_scan
    from repro.runtime.faultinject import current_fault_injector

    injector = current_fault_injector()
    if width == 1:
        for index in range(corpus.n_shards):
            yield index, _scan_one(corpus, min_mentions, index, injector)
        return
    from repro.errors import WorkerCrashError
    from repro.runtime.supervisor import WorkerSupervisor

    _pool_scan = (corpus, min_mentions)
    try:
        outcomes = WorkerSupervisor(workers=width).run(
            _scan_task,
            [(index, {"shard": index}, {"shard": index}) for index in range(corpus.n_shards)],
        )
        with contextlib.closing(outcomes):
            for index, part, error in outcomes:
                if isinstance(error, WorkerCrashError):
                    part = _scan_one(corpus, min_mentions, index, injector)
                elif error is not None:
                    raise error
                yield index, part
    finally:
        _pool_scan = None


def scan_corpus(
    corpus: ColumnarCorpus,
    min_mentions: int = 1,
    *,
    workers: int | None = None,
) -> CorpusAggregates:
    """Scan a whole columnar corpus, one shard resident per process.

    Equivalent to classifying every materialized :class:`Paper` (the
    oracle tests pin this down), at columnar cost: the reduction is a
    fold of :meth:`CorpusAggregates.update` over per-shard scans in
    shard order, so the result is independent of shard boundaries and
    of ``workers``.

    Args:
        corpus: The corpus; a streamed one stays streamed (each pool
            worker loads its shards through the corpus loader).
        min_mentions: Human-family mentions that make a paper human.
        workers: Process-pool width, one shard per task; ``None`` is
            one worker per usable CPU.  The width is capped at the
            shard count, and the scan runs in-process at width 1,
            inside a pool worker, off the main thread, or without
            ``fork``.
    """
    merged = CorpusAggregates()
    # Parts fold in shard order whatever order they finish in; only a
    # part that finishes ahead of a slower shard waits.
    waiting: dict[int, CorpusAggregates] = {}
    folded = 0
    for index, part in _scanned_parts(corpus, min_mentions, _scan_width(corpus, workers)):
        waiting[index] = part
        while folded in waiting:
            merged.update(waiting.pop(folded))
            folded += 1
    return merged
