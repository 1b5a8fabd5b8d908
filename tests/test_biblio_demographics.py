"""Tests for repro.bibliometrics.demographics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bibliometrics.columnar import (
    ColumnarCorpus,
    ColumnarShard,
    CorpusVocab,
    TextColumn,
)
from repro.bibliometrics.corpus import Author, Corpus, Paper, Venue
from repro.bibliometrics.demographics import (
    author_retention,
    gatekeeping_index,
    newcomer_share,
    region_mix,
    room_report,
    room_reports,
    sector_mix,
)
from repro.bibliometrics.shardgen import ShardedCorpusConfig, generate_columnar_corpus


@pytest.fixture
def corpus():
    c = Corpus()
    c.add_venue(Venue("v", "V"))
    c.add_author(Author("vet", "Veteran", sector="hyperscaler",
                        region="north-america"))
    c.add_author(Author("mid", "Mid", sector="university", region="europe"))
    c.add_author(Author("new1", "New1", sector="university",
                        region="latin-america"))
    c.add_author(Author("new2", "New2", sector="operator", region="africa"))
    # Veteran publishes every year; newcomers appear in 2021.
    c.add_paper(Paper("p0", "t", "a", "v", 2019, ("vet",)))
    c.add_paper(Paper("p1", "t", "a", "v", 2020, ("vet", "mid")))
    c.add_paper(Paper("p2", "t", "a", "v", 2021, ("vet", "new1")))
    c.add_paper(Paper("p3", "t", "a", "v", 2021, ("new2",)))
    c.add_paper(Paper("p4", "t", "a", "v", 2022, ("vet", "mid")))
    return c


class TestNewcomers:
    def test_first_year_skipped(self, corpus):
        shares = newcomer_share(corpus, "v")
        assert 2019 not in shares

    def test_shares(self, corpus):
        shares = newcomer_share(corpus, "v")
        assert shares[2020] == pytest.approx(0.5)   # mid is new, vet is not
        assert shares[2021] == pytest.approx(2 / 3)  # new1, new2 of 3 slots
        assert shares[2022] == 0.0


class TestRetention:
    def test_veteran_cohort_retained(self, corpus):
        # 2020 cohort = {vet, mid}; both publish again by 2022.
        assert author_retention(corpus, "v", 2020, horizon=2) == 1.0

    def test_oneshot_cohort_lost(self, corpus):
        # 2021 cohort includes new1/new2 who never return; vet returns.
        assert author_retention(corpus, "v", 2021, horizon=1) == pytest.approx(1 / 3)

    def test_empty_year(self, corpus):
        assert author_retention(corpus, "v", 1999) == 0.0

    def test_bad_horizon(self, corpus):
        with pytest.raises(ValueError):
            author_retention(corpus, "v", 2020, horizon=0)


class TestMixes:
    def test_sector_shares_sum_to_one(self, corpus):
        mix = sector_mix(corpus, "v")
        assert sum(mix["shares"].values()) == pytest.approx(1.0)
        assert mix["shares"]["hyperscaler"] == pytest.approx(4 / 8)

    def test_region_mix(self, corpus):
        mix = region_mix(corpus, "v")
        assert mix["shares"]["latin-america"] == pytest.approx(1 / 8)

    def test_empty_corpus(self):
        mix = sector_mix(Corpus())
        assert mix["shares"] == {}
        assert mix["n_slots"] == 0


class TestGatekeeping:
    def test_every_paper_has_veteran(self):
        c = Corpus()
        c.add_venue(Venue("v", "V"))
        c.add_author(Author("vet", "V"))
        for i in range(10):
            c.add_author(Author(f"a{i}", f"A{i}"))
            c.add_paper(Paper(f"p{i}", "t", "a", "v", 2020, ("vet", f"a{i}")))
        assert gatekeeping_index(c, "v") == 1.0

    def test_open_room_low_index(self):
        c = Corpus()
        c.add_venue(Venue("v", "V"))
        for i in range(20):
            c.add_author(Author(f"a{i}", f"A{i}"))
            c.add_paper(Paper(f"p{i}", "t", "a", "v", 2020, (f"a{i}",)))
        # Top decile = 2 authors -> 2 of 20 papers.
        assert gatekeeping_index(c, "v") == pytest.approx(0.1)

    def test_empty_venue(self, corpus):
        corpus.add_venue(Venue("empty", "E"))
        assert gatekeeping_index(corpus, "empty") == 0.0


class TestRoomReport:
    def test_keys_and_ranges(self, corpus):
        report = room_report(corpus, "v")
        assert set(report) == {
            "mean_newcomer_share", "sector_gini", "region_gini",
            "hyperscaler_slot_share", "global_south_slot_share",
            "gatekeeping_index",
        }
        for value in report.values():
            assert 0.0 <= value <= 1.0

    def test_synthetic_corpus_networking_room_narrower(self):
        from tests.synthgen_oracle import SyntheticCorpusConfig, generate_corpus

        corpus, _ = generate_corpus(
            SyntheticCorpusConfig(start_year=2019, end_year=2023, seed=0,
                                  authors_per_venue_pool=40)
        )
        networking = room_report(corpus, "sigcomm-like")
        hci = room_report(corpus, "ictd-like")
        assert (
            networking["hyperscaler_slot_share"]
            > hci["hyperscaler_slot_share"]
        )
        assert (
            networking["global_south_slot_share"]
            < hci["global_south_slot_share"]
        )


def hand_corpus(papers, authors) -> ColumnarCorpus:
    """A one-shard columnar corpus over venues ``v0``/``v1``.

    ``papers`` are ``(venue index, year, author indices)``; ``authors``
    are ``(sector, region)``, all in ``v0``'s pool.
    """
    sectors = tuple(sorted({sector for sector, _ in authors}))
    regions = tuple(sorted({region for _, region in authors}))
    zeros = np.zeros(len(authors), dtype=np.int64)
    vocab = CorpusVocab(
        venues=(Venue("v0", "V0"), Venue("v1", "V1")),
        topics=("t",),
        author_offsets=np.array([0, len(authors), len(authors)]),
        author_sector_idx=np.array([sectors.index(s) for s, _ in authors]),
        author_region_idx=np.array([regions.index(r) for _, r in authors]),
        author_given_idx=zeros,
        author_surname_idx=zeros,
        author_affil_num=zeros,
        sectors=sectors,
        regions=regions,
        given_names=("A",),
        surnames=("B",),
    )
    n = len(papers)
    lengths = [len(slots) for _, _, slots in papers]
    text = TextColumn.from_strings(["t"] * n)
    shard = ColumnarShard(
        index=0,
        paper_offset=0,
        year=np.array([year for _, year, _ in papers], dtype=np.int32),
        venue_idx=np.array([venue for venue, _, _ in papers], dtype=np.int16),
        topic_idx=np.zeros(n, dtype=np.int16),
        author_indptr=np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
        author_values=np.array(
            [a for _, _, slots in papers for a in slots], dtype=np.int64
        ),
        ref_indptr=np.zeros(n + 1, dtype=np.int64),
        ref_values=np.zeros(0, dtype=np.int64),
        human_mask=np.zeros(n, dtype=np.uint16),
        positionality=np.zeros(n, dtype=np.uint8),
        title=text,
        abstract=text,
        body=text,
    )
    return ColumnarCorpus(vocab, [n], lambda index: shard)


class TestAdaptersAgree:
    """The Corpus adapter and the column adapter run one implementation;
    these pin their inputs together."""

    def test_hand_built_ties_and_authorless_paper(self):
        a, b, c = 0, 1, 2
        columnar = hand_corpus(
            [
                (1, 2019, (c,)),    # the corpus's first year, at v1 only
                (0, 2020, (b, b)),  # b: two slots, one paper, first
                (0, 2020, (a,)),
                (0, 2021, (a,)),    # a ties b at two slots
                (0, 2021, ()),      # no authors, still a paper
            ],
            [("university", "europe"), ("hyperscaler", "africa"),
             ("operator", "latin-america")],
        )
        expected = {
            "v0": {
                # 2020 counts (the venue's first year is not skipped),
                # with both of b's slots new: 3/3; 2021: 0/1.
                "mean_newcomer_share": 0.5,
                "sector_gini": 0.0,
                "region_gini": 0.0,
                "hyperscaler_slot_share": 0.5,
                "global_south_slot_share": 0.5,
                # The tie goes to b (first slot), not a (lower index):
                # one of four papers.
                "gatekeeping_index": 0.25,
            },
            "v1": {
                "mean_newcomer_share": 0.0,
                "sector_gini": 0.0,
                "region_gini": 0.0,
                "hyperscaler_slot_share": 0.0,
                "global_south_slot_share": 1.0,
                "gatekeeping_index": 1.0,
            },
        }
        classic = columnar.to_corpus()
        assert room_reports(columnar, ["v0", "v1"]) == expected
        assert {v: room_report(classic, v) for v in expected} == expected

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        start_year=st.integers(2000, 2020),
        span=st.integers(0, 3),
        pool=st.integers(1, 30),
        papers=st.integers(1, 600),
        shard_size=st.integers(50, 400),
    )
    def test_column_path_equals_corpus_path(
        self, seed, start_year, span, pool, papers, shard_size
    ):
        columnar = generate_columnar_corpus(ShardedCorpusConfig(
            start_year=start_year, end_year=start_year + span, seed=seed,
            total_papers=papers, shard_size=shard_size,
            authors_per_venue_pool=pool,
        ))
        classic = columnar.to_corpus()
        venues = [venue.venue_id for venue in columnar.vocab.venues]
        assert room_reports(columnar, venues) == {
            venue_id: room_report(classic, venue_id) for venue_id in venues
        }
