"""Tests for the sequential generator oracle (tests/synthgen_oracle.py)."""

import hashlib
import json
from collections import Counter

import pytest

from repro.bibliometrics.methods_detect import uses_human_methods
from repro.bibliometrics.metrics import gini, top_k_share
from repro.bibliometrics.synthgen import default_venue_profiles
from tests.synthgen_oracle import SyntheticCorpusConfig, generate_corpus

CONFIG = SyntheticCorpusConfig(
    start_year=2020, end_year=2022, seed=42, authors_per_venue_pool=30
)


@pytest.fixture(scope="module")
def generated():
    return generate_corpus(CONFIG)


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a, _ = generate_corpus(CONFIG)
        b, _ = generate_corpus(CONFIG)
        assert a.to_records() == b.to_records()

    def test_different_seed_differs(self):
        a, _ = generate_corpus(CONFIG)
        other = SyntheticCorpusConfig(
            start_year=2020, end_year=2022, seed=43,
            authors_per_venue_pool=30,
        )
        b, _ = generate_corpus(other)
        assert a.to_records() != b.to_records()


class TestStructure:
    def test_paper_volume_matches_profiles(self, generated):
        corpus, _ = generated
        profiles = {p.venue_id: p for p in default_venue_profiles()}
        years = 3
        for venue in corpus.venues():
            expected = profiles[venue.venue_id].papers_per_year * years
            assert len(corpus.papers(venue_id=venue.venue_id)) == expected

    def test_references_point_backwards(self, generated):
        corpus, _ = generated
        for paper in corpus:
            for ref in paper.references:
                assert corpus.paper(ref).year <= paper.year

    def test_authors_publish_at_their_venue_pool(self, generated):
        corpus, _ = generated
        for paper in corpus.papers(venue_id="chi-like")[:20]:
            assert all(a.startswith("chi-like-") for a in paper.author_ids)

    def test_bad_year_range_rejected(self):
        with pytest.raises(ValueError):
            generate_corpus(
                SyntheticCorpusConfig(start_year=2022, end_year=2020)
            )


class TestCalibration:
    def test_ground_truth_matches_detection_direction(self, generated):
        corpus, truth = generated
        # Every ground-truth human-methods paper is detectable (the
        # generator plants real lexicon phrases).
        for paper_id in list(truth.human_methods)[:50]:
            assert uses_human_methods(corpus.paper(paper_id))

    def test_networking_vs_hci_adoption_gap(self, generated):
        corpus, truth = generated
        def truth_share(venue_id):
            papers = corpus.papers(venue_id=venue_id)
            flagged = sum(1 for p in papers if p.paper_id in truth.human_methods)
            return flagged / len(papers)
        assert truth_share("cscw-like") > 5 * max(truth_share("sigcomm-like"), 0.001)

    def test_positionality_only_in_human_method_papers(self, generated):
        _, truth = generated
        assert truth.positionality <= set(truth.human_methods)

    def test_positionality_statements_in_body(self, generated):
        corpus, truth = generated
        for paper_id in list(truth.positionality)[:10]:
            assert "positionality" in corpus.paper(paper_id).body.lower()

    def test_networking_topics_skew_technical(self, generated):
        corpus, _ = generated
        topics = corpus.topic_counts(venue_id="sigcomm-like")
        technical = topics.get("datacenter", 0) + topics.get("transport", 0)
        community = topics.get("community-networks", 0)
        assert technical > 3 * max(community, 1)


def _marginals(corpus, truth) -> dict:
    """Per-kind truth shares, topic shares, citation concentration."""
    kinds = {venue.venue_id: venue.kind for venue in corpus.venues()}
    papers, human, positional, topics = Counter(), Counter(), Counter(), Counter()
    for paper in corpus:
        kind = kinds[paper.venue_id]
        papers[kind] += 1
        human[kind] += paper.paper_id in truth.human_methods
        positional[kind] += paper.paper_id in truth.positionality
        topics[paper.topic] += 1
    cited = corpus.citation_counts()
    counts = [cited.get(paper.paper_id, 0) for paper in corpus]
    return {
        "adoption": {kind: human[kind] / n for kind, n in papers.items()},
        "positionality": {kind: positional[kind] / n for kind, n in papers.items()},
        "topics": {topic: n / len(counts) for topic, n in topics.items()},
        "gini": gini(counts),
        "top5": top_k_share(counts, len(counts) // 20),
    }


class TestShardgenEquivalence:
    """The shard-parallel generator reproduces the oracle's marginals.

    Full preset, seed 0.  Per-kind adoption, positionality prevalence
    and topic shares agree within ±0.03 absolute.  Citation
    concentration differs by design: shardgen cites through a frozen
    preferential prior, the oracle reinforces citations as it goes
    (Gini ~0.68 vs ~0.92, top-5% share ~0.38 vs ~0.80), so both only
    have to clear E12's thresholds.
    """

    BAND = 0.03
    #: sha256 of the full-preset seed-0 oracle corpus and its truth.
    ORACLE_DIGEST = (
        "dead478418199d56dfbc0514df0b41b5e75ac12eb5ee1db8915d90754cd22e25"
    )

    @pytest.fixture(scope="class")
    def oracle(self):
        # The oracle's defaults are the full preset: 2000-2025, pools of 120.
        return generate_corpus(SyntheticCorpusConfig(seed=0))

    @pytest.fixture(scope="class")
    def marginals(self, oracle):
        from repro.bibliometrics.shardgen import generate_columnar_corpus
        from repro.experiments._corpus import corpus_config

        columnar = generate_columnar_corpus(corpus_config(seed=0, fast=False))
        return {
            "shardgen": _marginals(columnar.to_corpus(), columnar.truth()),
            "oracle": _marginals(*oracle),
        }

    def test_oracle_corpus_is_pinned(self, oracle):
        corpus, truth = oracle
        payload = {
            "papers": corpus.to_records(),
            "human_methods": sorted(
                [paper_id, list(families)]
                for paper_id, families in truth.human_methods.items()
            ),
            "positionality": sorted(truth.positionality),
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        assert hashlib.sha256(blob).hexdigest() == self.ORACLE_DIGEST

    @pytest.mark.parametrize("name", ["adoption", "positionality", "topics"])
    def test_marginals_within_band(self, marginals, name):
        ours, oracle = marginals["shardgen"][name], marginals["oracle"][name]
        for key in set(ours) | set(oracle):
            assert abs(ours.get(key, 0.0) - oracle.get(key, 0.0)) <= self.BAND, key

    def test_citations_concentrated_in_both(self, marginals):
        for side in marginals.values():
            assert side["gini"] > 0.6 and side["top5"] > 0.3
