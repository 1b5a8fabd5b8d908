"""Tests for repro.bibliometrics.corpus."""

import pytest

from repro.bibliometrics.corpus import Author, Corpus, Paper, Venue


@pytest.fixture
def corpus():
    c = Corpus()
    c.add_venue(Venue("v1", "SIGCOMM-like", kind="networking"))
    c.add_venue(Venue("v2", "CHI-like", kind="hci"))
    c.add_author(Author("a1", "A One", sector="hyperscaler"))
    c.add_author(Author("a2", "A Two", sector="university"))
    c.add_paper(Paper("p1", "BGP at scale", "We measure.", "v1", 2020,
                      ("a1", "a2"), topic="routing"))
    c.add_paper(Paper("p2", "Mesh design", "We co-design.", "v2", 2021,
                      ("a2",), topic="community-networks",
                      references=("p1",)))
    return c


class TestValidation:
    def test_duplicate_paper_rejected(self, corpus):
        with pytest.raises(ValueError):
            corpus.add_paper(Paper("p1", "t", "a", "v1", 2020))

    def test_unknown_venue_rejected(self, corpus):
        with pytest.raises(ValueError):
            corpus.add_paper(Paper("p9", "t", "a", "ghost", 2020))

    def test_unknown_author_rejected(self, corpus):
        with pytest.raises(ValueError):
            corpus.add_paper(Paper("p9", "t", "a", "v1", 2020, ("ghost",)))

    def test_duplicate_author_rejected(self, corpus):
        with pytest.raises(ValueError):
            corpus.add_author(Author("a1", "X"))

    def test_duplicate_venue_rejected(self, corpus):
        with pytest.raises(ValueError):
            corpus.add_venue(Venue("v1", "X"))


class TestQueries:
    def test_filters(self, corpus):
        assert len(corpus.papers(venue_id="v1")) == 1
        assert len(corpus.papers(year=2021)) == 1
        assert len(corpus.papers(topic="routing")) == 1
        assert len(corpus.papers(predicate=lambda p: "BGP" in p.title)) == 1

    def test_years(self, corpus):
        assert corpus.years() == [2020, 2021]

    def test_full_text_combines_fields(self, corpus):
        paper = corpus.paper("p1")
        assert "BGP at scale" in paper.full_text
        assert "We measure." in paper.full_text

    def test_papers_per_author(self, corpus):
        counts = corpus.papers_per_author()
        assert counts["a2"] == 2
        assert counts["a1"] == 1

    def test_citation_counts(self, corpus):
        assert corpus.citation_counts() == {"p1": 1}

    def test_topic_counts(self, corpus):
        assert corpus.topic_counts()["routing"] == 1
        assert corpus.topic_counts(venue_id="v2") == {"community-networks": 1}

    def test_iteration_stays_in_id_order_across_additions(self, corpus):
        expected = ["p1", "p2"]
        before = iter(corpus)  # taken before the additions: keeps its snapshot
        for paper_id in ("p0", "p9", "p10"):
            assert [paper.paper_id for paper in corpus] == expected
            corpus.add_paper(Paper(paper_id, "t", "a", "v1", 2022))
            expected = sorted(expected + [paper_id])
        assert [paper.paper_id for paper in corpus] == ["p0", "p1", "p10", "p2", "p9"]
        assert [paper.paper_id for paper in corpus.papers(year=2022)] == ["p0", "p10", "p9"]
        assert [paper.paper_id for paper in before] == ["p1", "p2"]


class TestSerialization:
    def test_roundtrip(self, corpus):
        clone = Corpus.from_records(corpus.to_records())
        assert len(clone) == len(corpus)
        assert clone.paper("p2").references == ("p1",)
        assert clone.author("a1").sector == "hyperscaler"
        assert clone.venue("v2").kind == "hci"
