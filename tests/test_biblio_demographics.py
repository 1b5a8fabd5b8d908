"""Tests for repro.bibliometrics.demographics."""

import pytest

from repro.bibliometrics.corpus import Author, Corpus, Paper, Venue
from repro.bibliometrics.demographics import (
    author_retention,
    gatekeeping_index,
    newcomer_share,
    region_mix,
    room_report,
    sector_mix,
)


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
