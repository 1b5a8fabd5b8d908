"""Tests for repro.bibliometrics.columnar."""

import numpy as np
import pytest

from repro.bibliometrics.columnar import (
    HUMAN_FAMILY_ORDER,
    ColumnarCorpus,
    TextColumn,
    decode_shard,
    encode_shard,
    merge_fingerprints,
    paper_id_for,
)
from repro.bibliometrics.corpus import Paper
from repro.bibliometrics.shardgen import (
    ShardedCorpusConfig,
    generate_columnar_corpus,
    generate_shard,
)

CONFIG = ShardedCorpusConfig(
    start_year=2018, end_year=2025, seed=7, total_papers=1500, shard_size=400
)


@pytest.fixture(scope="module")
def corpus() -> ColumnarCorpus:
    return generate_columnar_corpus(CONFIG)


class TestTextColumn:
    def test_roundtrip(self):
        strings = ["alpha", "", "gamma delta", "é-accented"]
        column = TextColumn.from_strings(strings)
        assert len(column) == 4
        assert list(column) == strings
        assert column[2] == "gamma delta"

    def test_empty(self):
        column = TextColumn.from_strings([])
        assert len(column) == 0
        assert list(column) == []


class TestShardCodec:
    def test_encode_decode_identity(self, corpus):
        shard = corpus.shard(1)
        clone = decode_shard(encode_shard(shard))
        assert clone.index == shard.index
        assert clone.paper_offset == shard.paper_offset
        assert clone.n_papers == shard.n_papers
        np.testing.assert_array_equal(clone.year, shard.year)
        np.testing.assert_array_equal(clone.author_values, shard.author_values)
        np.testing.assert_array_equal(clone.ref_indptr, shard.ref_indptr)
        assert clone.title.blob == shard.title.blob
        assert clone.body.blob == shard.body.blob

    def test_decoded_shard_fingerprints_identically(self, corpus):
        # The cold/warm-cache invariance hinges on exactly this.
        shard = corpus.shard(2)
        assert decode_shard(encode_shard(shard)).fingerprint() == shard.fingerprint()

    def test_records_are_json_safe(self, corpus):
        import json

        records = encode_shard(corpus.shard(0))
        for record in records:
            json.dumps(record)

    def test_decode_rejects_missing_columns(self, corpus):
        records = encode_shard(corpus.shard(0))
        with pytest.raises(ValueError, match="missing columns"):
            decode_shard(records[:-1])

    def test_decode_rejects_headerless_stream(self):
        with pytest.raises(ValueError, match="missing header"):
            decode_shard([{"column": "year", "dtype": "int32", "data": ""}])


class TestFingerprints:
    def test_merge_is_order_sensitive_and_deterministic(self):
        a = merge_fingerprints(["aa", "bb"])
        assert a == merge_fingerprints(["aa", "bb"])
        assert a != merge_fingerprints(["bb", "aa"])

    def test_shard_fingerprint_changes_with_content(self, corpus):
        shard = corpus.shard(0)
        fingerprint = shard.fingerprint()
        original = shard.year[0]
        shard.year[0] = original + 1
        try:
            assert shard.fingerprint() != fingerprint
        finally:
            shard.year[0] = original

    def test_corpus_fingerprint_streams_when_unrecorded(self, corpus):
        rebuilt = ColumnarCorpus(
            corpus.vocab,
            corpus.shard_sizes(),
            lambda i: generate_shard(CONFIG, None, i),
        )
        assert rebuilt.fingerprint() == corpus.fingerprint()


@pytest.fixture(scope="module")
def legacy(corpus):
    """The classic Paper-level corpus bridged from the columnar one."""
    return corpus.to_corpus()


class TestCorpusAPI:
    """The Paper-level API reaches a columnar corpus through to_corpus()."""

    def test_len_and_iteration(self, corpus, legacy):
        assert len(corpus) == len(legacy) == CONFIG.total_papers
        papers = list(legacy)
        assert len(papers) == CONFIG.total_papers
        assert all(isinstance(p, Paper) for p in papers[:5])
        assert [p.paper_id for p in papers] == [
            paper_id_for(i) for i in range(CONFIG.total_papers)
        ]

    def test_paper_lookup(self, legacy):
        paper = legacy.paper(paper_id_for(7))
        assert paper.paper_id == "p00000007"
        assert CONFIG.start_year <= paper.year <= CONFIG.end_year
        with pytest.raises(KeyError):
            legacy.paper(paper_id_for(CONFIG.total_papers))
        with pytest.raises(KeyError):
            legacy.paper("bogus")

    def test_author_and_venue_lookup(self, corpus, legacy):
        vocab = corpus.vocab
        assert len(legacy.authors()) == vocab.n_authors
        author = legacy.authors()[0]
        assert legacy.author(author.author_id) == author
        assert legacy.author(vocab.author_id(5)) == vocab.author(5)
        with pytest.raises(KeyError):
            legacy.author("no-such-a999999")
        assert legacy.venues() == sorted(vocab.venues, key=lambda v: v.venue_id)
        venue = legacy.venues()[0]
        assert legacy.venue(venue.venue_id) == venue
        with pytest.raises(KeyError):
            legacy.venue("no-such-venue")

    def test_references_resolve_to_earlier_years(self, legacy):
        checked = 0
        for paper in legacy.papers(year=CONFIG.end_year):
            for ref in paper.references[:3]:
                cited = legacy.paper(ref)
                assert cited.year < paper.year
                checked += 1
            if checked > 30:
                break
        assert checked > 0

    def test_papers_filters_match_manual_scan(self, corpus, legacy):
        venue_idx = 0
        venue_id = corpus.vocab.venues[venue_idx].venue_id
        year = CONFIG.start_year + 1
        filtered = legacy.papers(venue_id=venue_id, year=year)
        manual = [
            paper_id_for(shard.paper_offset + local)
            for shard in corpus.iter_shards()
            for local in range(shard.n_papers)
            if shard.venue_idx[local] == venue_idx and shard.year[local] == year
        ]
        assert [p.paper_id for p in filtered] == manual
        assert legacy.papers(venue_id="nope") == []

    def test_predicate_filter(self, legacy):
        humans = legacy.papers(
            year=CONFIG.end_year, predicate=lambda p: bool(p.body)
        )
        assert all(p.body for p in humans)

    def test_years(self, legacy):
        years = legacy.years()
        assert years[0] == CONFIG.start_year
        assert years[-1] == CONFIG.end_year

    def test_full_text_matches_paper_property(self, corpus, legacy):
        shard = corpus.shard(1)
        for local in (0, shard.n_papers - 1):
            paper = legacy.paper(paper_id_for(shard.paper_offset + local))
            assert shard.full_text(local) == paper.full_text


class TestAggregates:
    def test_counters_match_dataclass_corpus(self, corpus, legacy):
        vocab = corpus.vocab
        cited, per_author = corpus.count_arrays()
        assert {
            vocab.author_id(int(i)): int(per_author[i])
            for i in np.nonzero(per_author)[0]
        } == dict(legacy.papers_per_author())
        assert {
            paper_id_for(int(i)): int(cited[i]) for i in np.nonzero(cited)[0]
        } == dict(legacy.citation_counts())

    def test_truth_masks_roundtrip(self, corpus):
        truth = corpus.truth()
        shard = corpus.shard(0)
        for local in range(shard.n_papers):
            families = shard.human_families(local)
            paper_id = paper_id_for(shard.paper_offset + local)
            if families:
                assert truth.human_methods[paper_id] == families
                assert families == tuple(sorted(families))
                assert set(families) <= set(HUMAN_FAMILY_ORDER)
            else:
                assert paper_id not in truth.human_methods


class TestResidency:
    def test_streaming_holds_at_most_one_shard(self, tmp_path):
        corpus = generate_columnar_corpus(
            CONFIG, cache_dir=str(tmp_path), stream=True
        )
        assert corpus.max_resident == 1
        for _ in corpus.iter_shards():
            assert corpus.resident_shards() <= 1
        # Random access across shard boundaries keeps the bound too,
        # and so does the one bridge to the Paper-level API.
        corpus.shard(corpus.n_shards - 1)
        corpus.shard(0)
        assert corpus.resident_shards() <= 1
        assert len(corpus.to_corpus()) == CONFIG.total_papers
        assert corpus.resident_shards() <= 1

    def test_materialized_keeps_shards(self):
        corpus = generate_columnar_corpus(CONFIG)
        list(corpus.iter_shards())
        assert corpus.resident_shards() == corpus.n_shards

    def test_loader_size_mismatch_rejected(self, corpus):
        bad = ColumnarCorpus(
            corpus.vocab,
            [1] * corpus.n_shards,
            lambda i: generate_shard(CONFIG, None, i),
        )
        with pytest.raises(ValueError, match="expected"):
            bad.shard(0)
