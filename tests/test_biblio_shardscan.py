"""Oracle tests: per-shard scan analytics vs the classic dataclass path."""

import json
import os
import sys
import threading
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bibliometrics.columnar import ColumnarCorpus, ColumnarShard, TextColumn
from repro.bibliometrics.metrics import gini, h_index
from repro.bibliometrics import shardscan
from repro.bibliometrics.methods_detect import (
    HUMAN_METHOD_FAMILIES,
    METHOD_FAMILIES,
    classify_paper,
    classify_text,
    uses_human_methods,
)
from repro.bibliometrics.shardgen import ShardedCorpusConfig, generate_columnar_corpus
from repro.bibliometrics.shardscan import CorpusAggregates, scan_corpus, scan_shard
from repro.core import positionality
from repro.core.positionality import has_positionality_statement
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.runtime import faultinject, supervisor
from repro.runtime.faultinject import FaultInjector, use_fault_injector
from repro.bibliometrics.trends import (
    adoption_series,
    adoption_series_from_counts,
    venue_adoption_table,
    venue_adoption_table_from_counts,
)
from tests.positionality_oracle import has_statement_oracle

CONFIG = ShardedCorpusConfig(
    start_year=2017, end_year=2025, seed=11, total_papers=1200, shard_size=350
)


@pytest.fixture(scope="module")
def corpus() -> ColumnarCorpus:
    return generate_columnar_corpus(CONFIG)


@pytest.fixture(scope="module")
def aggregates(corpus) -> CorpusAggregates:
    return scan_corpus(corpus)


@pytest.fixture(scope="module")
def legacy(corpus):
    return corpus.to_corpus()


class TestScanOracle:
    """scan_corpus must reproduce the classic per-Paper classification."""

    def test_paper_count(self, aggregates, corpus):
        assert aggregates.n_papers == len(corpus)
        assert sum(
            b["papers"] for b in aggregates.venue_year.values()
        ) == len(corpus)

    def test_family_mentions_match_classify_paper(self, aggregates, legacy):
        oracle = Counter()
        for paper in legacy:
            oracle.update(classify_paper(paper))
        assert aggregates.family_mentions == oracle

    def test_human_buckets_match_uses_human_methods(self, aggregates, legacy):
        oracle: dict[tuple[str, int], Counter] = {}
        for paper in legacy:
            bucket = oracle.setdefault((paper.venue_id, paper.year), Counter())
            bucket["papers"] += 1
            if uses_human_methods(paper):
                bucket["human"] += 1
        assert aggregates.venue_year == oracle

    def test_min_mentions_threshold(self, corpus, legacy):
        strict = scan_corpus(corpus, min_mentions=3)
        oracle_human = sum(
            1 for p in legacy if uses_human_methods(p, min_mentions=3)
        )
        assert sum(
            b["human"] for b in strict.venue_year.values()
        ) == oracle_human

    def test_topic_papers_match_topic_counts(self, aggregates, legacy):
        assert aggregates.topic_papers == legacy.topic_counts()

    def test_positionality_cells_match_unfiltered_detector(
        self, corpus, aggregates
    ):
        # Oracle = the real detector on every paper, WITHOUT the marker
        # prefilter the scan uses — so this also proves the prefilter
        # never drops a detection (it may only over-flag candidates).
        venue_ids = [venue.venue_id for venue in corpus.vocab.venues]
        oracle: dict[tuple[str, int], Counter] = {}
        for shard in corpus.iter_shards():
            for local in range(shard.n_papers):
                key = (
                    venue_ids[shard.venue_idx[local]],
                    int(shard.year[local]),
                )
                detected = has_positionality_statement(shard.full_text(local))
                actual = bool(shard.positionality[local])
                cells = oracle.setdefault(key, Counter())
                cells["papers"] += 1
                cells["detected"] += int(detected)
                cells["truth"] += int(actual)
                if detected and actual:
                    cells["tp"] += 1
                elif detected:
                    cells["fp"] += 1
                elif actual:
                    cells["fn"] += 1
        assert aggregates.positionality == oracle

    def test_venue_topics_match_per_venue_topic_counts(self, aggregates, legacy):
        oracle = {
            venue.venue_id: legacy.topic_counts(venue_id=venue.venue_id)
            for venue in legacy.venues()
        }
        observed = {
            venue_id: counts
            for venue_id, counts in aggregates.venue_topics.items()
            if counts
        }
        assert observed == {k: v for k, v in oracle.items() if v}

    def test_sector_slots_match_byline_walk(self, aggregates, legacy):
        oracle: dict[str, Counter] = {}
        for paper in legacy:
            bucket = oracle.setdefault(paper.venue_id, Counter())
            for author_id in paper.author_ids:
                bucket[legacy.author(author_id).sector] += 1
        assert aggregates.sector_slots == oracle


class TestTrendsOracle:
    """The from-counts builders must equal the classic builders verbatim."""

    def test_adoption_series_every_venue(self, aggregates, legacy):
        for venue in legacy.venues():
            classic = adoption_series(legacy, venue.venue_id)
            columnar = adoption_series_from_counts(
                aggregates.venue_year, venue.venue_id
            )
            assert columnar == classic

    def test_venue_adoption_table(self, aggregates, legacy):
        classic = venue_adoption_table(legacy)
        columnar = venue_adoption_table_from_counts(
            aggregates.venue_year, aggregates.venue_kinds
        )
        assert columnar == classic

    def test_empty_counts(self):
        assert adoption_series_from_counts({}, "anything") == []
        assert venue_adoption_table_from_counts({}, {"v": "networking"}) == []


class TestMetricsOracle:
    """Array-native metric inputs must agree with the Counter path."""

    def test_citation_arrays_match_counters(self, corpus, legacy):
        array, _ = corpus.count_arrays()
        counter = legacy.citation_counts()
        assert int(array.sum()) == sum(counter.values())
        assert h_index(array) == h_index(list(counter.values()))
        # The Counter only holds *cited* papers; the array also carries
        # the zero-citation ones, so compare on the positive support.
        assert gini(array[array > 0]) == pytest.approx(
            gini(list(counter.values()))
        )

    def test_author_arrays_match_counters(self, corpus, legacy):
        _, array = corpus.count_arrays()
        counter = legacy.papers_per_author()
        assert int(array.sum()) == sum(counter.values())
        assert gini(array[array > 0]) == pytest.approx(
            gini(list(counter.values()))
        )

    def test_h_index_ndarray_fast_path(self):
        for counts in ([0], [3, 0, 6, 1, 5], list(range(100)), [7] * 7):
            assert h_index(np.asarray(counts)) == h_index(list(counts))
        with pytest.raises(ValueError):
            h_index(np.asarray([2, -1]))


class TestMergeAlgebra:
    def test_merge_equals_whole_scan(self, corpus, aggregates):
        parts = [
            scan_shard(shard, corpus.vocab) for shard in corpus.iter_shards()
        ]
        assert CorpusAggregates.merge_all(parts) == aggregates

    def test_merge_is_associative_and_commutative(self, corpus):
        parts = [
            scan_shard(shard, corpus.vocab) for shard in corpus.iter_shards()
        ][:3]
        a, b, c = parts
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        swapped = c.merge(a).merge(b)
        assert left == right == swapped

    def test_merge_does_not_mutate_inputs(self, corpus):
        shards = corpus.iter_shards()
        a = scan_shard(next(shards), corpus.vocab)
        b = scan_shard(next(shards), corpus.vocab)
        before_a = {k: Counter(v) for k, v in a.venue_year.items()}
        a.merge(b)
        assert a.venue_year == before_a

    def test_empty_identity(self, aggregates):
        empty = CorpusAggregates()
        assert empty.merge(aggregates) == aggregates
        assert aggregates.merge(empty) == aggregates

    def test_merge_all_of_nothing_is_empty(self):
        assert CorpusAggregates.merge_all([]) == CorpusAggregates()

    def test_merge_covers_every_field(self, corpus):
        # A field added to CorpusAggregates but forgotten in merge()
        # would silently come back empty: catch it by checking every
        # non-count field is non-trivial after a merge of real parts.
        shards = corpus.iter_shards()
        merged = scan_shard(next(shards), corpus.vocab).merge(
            scan_shard(next(shards), corpus.vocab)
        )
        assert merged.n_papers > 0
        assert merged.venue_year and merged.family_mentions
        assert merged.topic_papers and merged.venue_kinds
        assert merged.positionality and merged.venue_topics
        assert merged.sector_slots


def _text_shard(titles, abstracts, bodies, venue_idx=None, years=None, truth=None):
    """A shard carrying exactly the given texts and no authors or refs."""
    n = len(titles)
    venue_idx = [0] * n if venue_idx is None else venue_idx
    years = [2024] * n if years is None else years
    truth = [0] * n if truth is None else truth
    int64 = np.zeros(0, dtype=np.int64)
    return ColumnarShard(
        index=0,
        paper_offset=0,
        year=np.asarray(years, dtype=np.int32),
        venue_idx=np.asarray(venue_idx, dtype=np.int16),
        topic_idx=np.zeros(n, dtype=np.int16),
        author_indptr=np.zeros(n + 1, dtype=np.int64),
        author_values=int64,
        ref_indptr=np.zeros(n + 1, dtype=np.int64),
        ref_values=int64,
        human_mask=np.zeros(n, dtype=np.uint16),
        positionality=np.asarray(truth, dtype=np.uint8),
        title=TextColumn.from_strings(titles),
        abstract=TextColumn.from_strings(abstracts),
        body=TextColumn.from_strings(bodies),
    )


def per_paper_fold(shard, vocab, min_mentions=1) -> CorpusAggregates:
    """The text fields of a scan, folded paper by paper from
    ``classify_text`` and the full-extractor positionality oracle."""
    venue_ids = [venue.venue_id for venue in vocab.venues]
    folded = CorpusAggregates(n_papers=shard.n_papers)
    for local in range(shard.n_papers):
        text = shard.full_text(local)
        counts = classify_text(text)
        folded.family_mentions.update(counts)
        human = sum(c for f, c in counts.items() if f in HUMAN_METHOD_FAMILIES)
        key = (venue_ids[shard.venue_idx[local]], int(shard.year[local]))
        bucket = folded.venue_year.setdefault(key, Counter())
        bucket["papers"] += 1
        if human >= min_mentions:
            bucket["human"] += 1
        detected = has_statement_oracle(text)
        actual = bool(shard.positionality[local])
        cells = folded.positionality.setdefault(key, Counter())
        cells["papers"] += 1
        cells["detected"] += int(detected)
        cells["truth"] += int(actual)
        if detected and actual:
            cells["tp"] += 1
        elif detected:
            cells["fp"] += 1
        elif actual:
            cells["fn"] += 1
    return folded


def text_fields(aggregates: CorpusAggregates) -> list:
    """The text-derived fields with their iteration order."""
    return [
        aggregates.n_papers,
        list(aggregates.family_mentions.items()),
        [(key, list(cells.items())) for key, cells in aggregates.venue_year.items()],
        [(key, list(cells.items())) for key, cells in aggregates.positionality.items()],
    ]


class TestDegenerateShards:
    def test_empty_shard_scans_to_neutral_element(self, corpus, aggregates):
        scanned = scan_shard(_text_shard([], [], []), corpus.vocab)
        assert scanned.n_papers == 0
        assert not scanned.venue_year
        assert not scanned.family_mentions
        assert not scanned.venue_topics and not scanned.sector_slots
        # venue_kinds is vocabulary, not observation — it is filled even
        # for an empty shard, and merging adds nothing but those kinds.
        assert scanned.venue_kinds == aggregates.venue_kinds
        assert scanned.merge(aggregates) == aggregates

    def test_single_paper_shards_merge_to_whole_scan(self):
        config = ShardedCorpusConfig(
            start_year=2024, end_year=2025, seed=3, total_papers=6,
            shard_size=1,
        )
        corpus = generate_columnar_corpus(config)
        parts = []
        for shard in corpus.iter_shards():
            assert shard.n_papers == 1
            parts.append(scan_shard(shard, corpus.vocab))
        assert CorpusAggregates.merge_all(parts) == scan_corpus(corpus)


class TestStreamedScan:
    def test_scan_keeps_one_shard_resident(self, tmp_path):
        streamed = generate_columnar_corpus(
            CONFIG, cache_dir=str(tmp_path), stream=True
        )
        result = scan_corpus(streamed)
        assert streamed.resident_shards() <= 1
        assert result.n_papers == CONFIG.total_papers

    def test_streamed_equals_materialized(self, tmp_path, aggregates):
        streamed = generate_columnar_corpus(
            CONFIG, cache_dir=str(tmp_path), stream=True
        )
        assert scan_corpus(streamed) == aggregates


def records_text(aggregates: CorpusAggregates) -> str:
    """The aggregate's records as JSON, key order included."""
    return json.dumps(aggregates.to_records())


@pytest.fixture
def supervisors(monkeypatch):
    """The ``workers`` of every WorkerSupervisor a scan builds."""
    widths = []
    real = supervisor.WorkerSupervisor

    def recording(**kwargs):
        widths.append(kwargs["workers"])
        return real(**kwargs)

    monkeypatch.setattr(supervisor, "WorkerSupervisor", recording)
    return widths


class TestParallelScan:
    """Shards fan out over the worker supervisor; results never change."""

    @pytest.mark.parametrize("stream", [False, True])
    def test_records_equal_at_every_width(self, tmp_path, aggregates, stream, supervisors):
        corpus = generate_columnar_corpus(
            CONFIG, cache_dir=str(tmp_path) if stream else None, stream=stream
        )
        supervisors.clear()  # the generator's
        expected = records_text(aggregates)
        for workers in (1, 2, None):
            scanned = scan_corpus(corpus, workers=workers)
            assert records_text(scanned) == expected, workers
        # A pool ran at 2 (so the equality is not vacuous) and at one
        # worker per usable CPU, capped at the 4 shards.
        default = min(len(os.sched_getaffinity(0)), corpus.n_shards)
        assert supervisors == [2] + [default] * (default > 1)
        if stream:
            assert corpus.resident_shards() <= 1

    def test_min_mentions_reaches_the_workers(self, corpus):
        assert records_text(scan_corpus(corpus, 3, workers=2)) == records_text(
            scan_corpus(corpus, 3, workers=1)
        )

    def test_worker_killed_once_gives_the_same_records(self, corpus, aggregates):
        injector = FaultInjector(seed=0)
        injector.register(shardscan.FAULT_SITE, mode="kill", probability=1.0, times=1)
        metrics = MetricsRegistry()
        with use_fault_injector(injector), use_metrics(metrics):
            scanned = scan_corpus(corpus, workers=2)
        assert records_text(scanned) == records_text(aggregates)
        counters = metrics.snapshot()["counters"]
        assert counters["runner.worker_crashes"] >= 1
        # The crash is credited to the requeued task, which then succeeds.
        assert "runner.quarantined" not in counters

    def test_quarantined_shards_scan_in_process(self, corpus, aggregates):
        injector = FaultInjector(seed=0)
        # Every worker attempt dies; ``kill`` does not fire in this process.
        injector.register(shardscan.FAULT_SITE, mode="kill", probability=1.0)
        metrics = MetricsRegistry()
        with use_fault_injector(injector), use_metrics(metrics):
            scanned = scan_corpus(corpus, workers=2)
        assert records_text(scanned) == records_text(aggregates)
        assert metrics.snapshot()["counters"]["runner.quarantined"] >= 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raise_fault_fires_at_any_width(self, corpus, workers):
        injector = FaultInjector(seed=0)
        injector.register(shardscan.FAULT_SITE, mode="raise", probability=1.0, times=1)
        with use_fault_injector(injector), pytest.raises(faultinject.InjectedFault):
            scan_corpus(corpus, workers=workers)

    def test_in_process_scan_spends_one_budget_across_shards(self, corpus):
        # The caller's own injector is consulted: a hang armed once
        # stalls one shard, and its stats see every shard's call.
        sleeps: list = []
        injector = FaultInjector(seed=0, sleep=sleeps.append)
        injector.register(shardscan.FAULT_SITE, mode="hang", times=1, hang_seconds=5.0)
        with use_fault_injector(injector):
            scan_corpus(corpus, workers=1)
        assert sleeps == [5.0]
        assert injector.stats()[shardscan.FAULT_SITE] == {
            "calls": corpus.n_shards, "fired": 1
        }

    def test_in_process_scan_continues_the_random_stream(self, corpus):
        site = shardscan.FAULT_SITE
        reference = FaultInjector(seed=1)
        reference.register(site, mode="hang", probability=0.5)
        expected = [reference.should_fire(site) for _ in range(corpus.n_shards)]
        assert len(set(expected)) == 2  # a restarted stream would repeat its first draw
        sleeps: list = []
        injector = FaultInjector(seed=1, sleep=sleeps.append)
        injector.register(site, mode="hang", probability=0.5, hang_seconds=1.0)
        with use_fault_injector(injector):
            scan_corpus(corpus, workers=1)
        assert len(sleeps) == sum(expected)

    def test_in_process_scan_raises_the_registered_exception(self, corpus):
        class ShardFault(Exception):
            pass

        injector = FaultInjector(seed=0)
        injector.register(shardscan.FAULT_SITE, exception=ShardFault, times=1)
        with use_fault_injector(injector), pytest.raises(ShardFault):
            scan_corpus(corpus, workers=1)

    def test_pool_worker_scans_in_process(self, corpus, aggregates, monkeypatch, supervisors):
        monkeypatch.setattr(faultinject, "_in_worker_process", True)
        assert records_text(scan_corpus(corpus, workers=2)) == records_text(aggregates)
        assert supervisors == []

    def test_thread_scans_in_process_and_keep_their_own_corpus(
        self, corpus, aggregates, supervisors
    ):
        other = generate_columnar_corpus(ShardedCorpusConfig(
            start_year=2020, end_year=2024, seed=3, total_papers=600, shard_size=200
        ))
        supervisors.clear()  # the generator's
        expected = {id(corpus): records_text(aggregates),
                    id(other): records_text(scan_corpus(other, workers=1))}
        targets = [corpus, other] * 3
        results: list = [None] * len(targets)

        def scan(slot: int) -> None:
            results[slot] = records_text(scan_corpus(targets[slot], workers=2))

        threads = [threading.Thread(target=scan, args=(slot,)) for slot in range(len(targets))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected[id(target)] for target in targets]
        assert supervisors == []

    def test_one_shard_corpus_scans_in_process(self, supervisors):
        config = ShardedCorpusConfig(
            start_year=2024, end_year=2024, seed=5, total_papers=200, shard_size=500
        )
        one = generate_columnar_corpus(config)
        assert one.n_shards == 1
        supervisors.clear()  # the generator's
        assert scan_corpus(one, workers=4).n_papers == 200
        assert supervisors == []


#: A marker plus facets: what the positionality detector accepts.
STATEMENT = "Positionality. We write as network engineers based in the Global South."

#: Repeats and near misses the first-word index must not trip over.
NEAR_MISSES = (
    "we we we", "participatory participatory action research",
    "community", "in", "our own", "case", "survey", "co", "ns", "we situate",
    "ethnograph", "position", "situate themselves",
)

#: Statements as the generator writes them (a header line, then the
#: body), and near misses the section confirmation must leave to the
#: extractor: cue-free, empty and second sections, header-like lines
#: the splitter rejects, and cues broken across lines.
SECTION_STATEMENTS = (
    "Positionality\nWe write as network engineers based in the Global South.",
    "Positionality Statement\nThe authors situate themselves as operators "
    "with ties to\nrural ISPs; this standpoint shaped which questions we asked.",
    "Positionality\r\nglobal   south",
    "# Positionality\n\nWe measure BGP tables.",
    "4 Positionality\n",
    "Positionality\nWe measure.\n\n2 Methods\nWe write as engineers.",
    "Positionality\nNothing.\n4.1 Our Positionality\nWe are operators.",
    "3 Positionality.\nWe write as operators.",
    "positionality\nWe are here.",
    "Our positionality\nWe situate ourselves as members of\nthe community.",
)

#: Characters whose case mapping or folding is not ASCII's.
NON_ASCII = (
    "\u0130", "\u212a", "\u017f", "\u0130nterviews", "\u212anowledge", "\u017furvey of",
)


@st.composite
def phrase_forms(draw):
    """One lexicon phrase in a surface form the matcher must handle."""
    family = draw(st.sampled_from(sorted(METHOD_FAMILIES)))
    words = draw(st.sampled_from(METHOD_FAMILIES[family])).split()
    words = [
        w[:-1] + draw(st.sampled_from(("", "s", "ic", "ies", "_x", "-y")))
        if w.endswith("*") else w
        for w in words
    ]
    gaps = [draw(st.sampled_from((" ", "  ", "\t", "\n", "\n\n", " \r\n ", "-")))
            for _ in words[1:]]
    text = words[0] + "".join(gap + word for gap, word in zip(gaps, words[1:]))
    case = draw(st.sampled_from((str, str.upper, str.title, str.swapcase)))
    return case(text)


pieces = st.one_of(
    phrase_forms(),
    st.sampled_from(NEAR_MISSES),
    st.sampled_from((STATEMENT, "we situate ourselves", "reflexivity statement")),
    st.sampled_from(
        ("the", "network", "latency", ".", ",", "(", ")", "\n\n", "x", "_", "9")
    ),
)

#: Two-word phrases to split across two adjacent papers.
TWO_WORD = sorted(
    phrase.replace("*", "")
    for phrases in METHOD_FAMILIES.values()
    for phrase in phrases
    if " " in phrase
) + ["positionality statement", "we situate ourselves"]


@st.composite
def text_parts(draw, max_pieces):
    """A title, abstract or body: pieces joined by varied separators."""
    parts = draw(st.lists(pieces, max_size=max_pieces))
    seps = [draw(st.sampled_from((" ", "", ". ", "\n", "\x1f"))) for _ in parts]
    return "".join(part + sep for part, sep in zip(parts, seps)).strip(" ")


@st.composite
def papers(draw):
    title = draw(text_parts(3))
    abstract = draw(text_parts(6))
    if draw(st.booleans()):
        # A phrase split across the title/abstract join.
        words = draw(phrase_forms()).split(" ", 1)
        if len(words) == 2:
            title, abstract = title + " " + words[0], words[1] + " " + abstract
    body = draw(text_parts(8))
    if draw(st.integers(0, 3)) == 0:
        body = draw(st.sampled_from(NON_ASCII)) + " " + body
    statement = draw(st.sampled_from(("",) * 3 + SECTION_STATEMENTS))
    if statement and draw(st.booleans()):
        # At the paper's start: the section runs on into the abstract.
        title = f"{statement}\n{title}".rstrip("\n")
    elif statement:
        # At the paper's end: the next paper's text follows the body.
        body = f"{body}\n{statement}".lstrip("\n")
    return title, abstract, body


class TestBlockMatcherEquivalence:
    """The block matcher must equal per-paper classification exactly."""

    @settings(max_examples=60, deadline=None)
    @given(
        shard_papers=st.lists(papers(), min_size=1, max_size=12),
        straddle=st.tuples(st.integers(0, 10), st.sampled_from(TWO_WORD)),
        block=st.sampled_from((1, 2, 4, 512)),
        min_mentions=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_generated_shards(
        self, corpus, shard_papers, straddle, block, min_mentions, seed
    ):
        rng = np.random.default_rng(seed)
        n = len(shard_papers)
        titles, abstracts, bodies = (list(column) for column in zip(*shard_papers))
        if n > 1:
            # A phrase that would match only across two papers' edges.
            local, phrase = straddle[0] % (n - 1), straddle[1]
            head, tail = phrase.split(" ", 1)
            bodies[local] = f"{bodies[local]} {head}".lstrip()
            titles[local + 1] = f"{tail} {titles[local + 1]}".rstrip()
        shard = _text_shard(
            titles, abstracts, bodies,
            venue_idx=rng.integers(0, 2, n), years=rng.integers(2020, 2022, n),
            truth=rng.integers(0, 2, n),
        )
        with mock.patch.object(shardscan, "BLOCK_PAPERS", block):
            scanned = scan_shard(shard, corpus.vocab, min_mentions)
        assert text_fields(scanned) == text_fields(
            per_paper_fold(shard, corpus.vocab, min_mentions)
        )

    def test_generated_corpus_shards(self, corpus):
        for shard in corpus.iter_shards():
            assert text_fields(scan_shard(shard, corpus.vocab)) == text_fields(
                per_paper_fold(shard, corpus.vocab)
            )

    def test_generated_statements_skip_the_extractor(self, corpus):
        # Every generated statement is a section with a facet cue, so the
        # section confirmation decides each marked paper on its own.
        with mock.patch.object(
            positionality, "extract_statements", wraps=positionality.extract_statements
        ) as extractor:
            scanned = [scan_shard(shard, corpus.vocab) for shard in corpus.iter_shards()]
        assert extractor.call_count == 0
        detected = sum(
            cells["detected"] for part in scanned for cells in part.positionality.values()
        )
        assert detected == sum(int(shard.positionality.sum()) for shard in corpus.iter_shards())

    @pytest.mark.parametrize("titles", [
        [STATEMENT, STATEMENT, "x " + STATEMENT],
        ["we interviewed", "focus group", "ethnography", "case study"],
        ["we", "interviewed participatory", "action research", ""],
    ])
    def test_sites_at_paper_edges(self, corpus, titles):
        shard = _text_shard(titles, [""] * len(titles), [""] * len(titles))
        assert text_fields(scan_shard(shard, corpus.vocab)) == text_fields(
            per_paper_fold(shard, corpus.vocab)
        )

    def test_statement_after_non_ascii_text_is_found(self, corpus):
        # "\u0130".lower() is two characters: offsets into a lowered blob
        # drift, and a marker hit once landed in the next paper.
        titles = ["\u0130" * 200, STATEMENT, "z" * 400]
        shard = _text_shard(titles, [""] * 3, [""] * 3)
        assert [has_positionality_statement(t) for t in titles] == [False, True, False]
        scanned = scan_shard(shard, corpus.vocab)
        oracle = per_paper_fold(shard, corpus.vocab)
        assert scanned.positionality == oracle.positionality
        assert sum(cells["detected"] for cells in scanned.positionality.values()) == 1


def per_paper_records(shard, vocab) -> list[dict]:
    """Every field of a shard's scan, folded paper by paper, as records.

    The text fields come from :func:`per_paper_fold`.  The keyed maps
    are counted per paper, then listed in the order the scan defines:
    venue index, then topic or sector index, for
    ``topic_papers``/``venue_topics``/``sector_slots``.
    """
    folded = per_paper_fold(shard, vocab)
    folded.venue_kinds = {venue.venue_id: venue.kind for venue in vocab.venues}
    venue_ids = list(folded.venue_kinds)
    venue_topics, sector_slots = Counter(), Counter()
    for local in range(shard.n_papers):
        venue = int(shard.venue_idx[local])
        venue_topics[venue, int(shard.topic_idx[local])] += 1
        for author in shard.authors_of(local).tolist():
            sector_slots[venue, int(vocab.author_sector_idx[author])] += 1
    for (venue, topic), count in sorted(venue_topics.items()):
        folded.topic_papers[vocab.topics[topic]] += count
        bucket = folded.venue_topics.setdefault(venue_ids[venue], Counter())
        bucket[vocab.topics[topic]] += count
    for (venue, sector), count in sorted(sector_slots.items()):
        bucket = folded.sector_slots.setdefault(venue_ids[venue], Counter())
        bucket[vocab.sectors[sector]] += count
    return folded.to_records()


class TestRecordOrder:
    """Scan records equal a paper-by-paper fold's as lists, so a kernel
    that reorders any map's keys fails here, not only in a digest."""

    def test_shard_records_equal_the_per_paper_fold(self, corpus):
        assert corpus.n_shards > 1
        for shard in corpus.iter_shards():
            assert scan_shard(shard, corpus.vocab).to_records() == per_paper_records(
                shard, corpus.vocab
            ), shard.index

    def test_corpus_records_equal_the_folded_parts(self, corpus, aggregates):
        parts = [
            CorpusAggregates.from_records(per_paper_records(shard, corpus.vocab))
            for shard in corpus.iter_shards()
        ]
        assert aggregates.to_records() == CorpusAggregates.merge_all(parts).to_records()
