"""Bibliometric audit: where do human methods live? (Sections 1, 4, 6.4)

Generates the calibrated synthetic venue corpus (the offline stand-in
for a DBLP/Semantic-Scholar scrape — see DESIGN.md), then runs the three
bibliometric analyses:

1. human-method adoption share per venue and venue kind (E1),
2. positionality-statement prevalence plus extractor accuracy (E2),
3. agenda concentration: whose problems get studied (E3).

Run:  python examples/bibliometric_method_audit.py
"""

from repro.bibliometrics import (
    gini,
    room_report,
    top_k_share,
    venue_adoption_table,
)
from repro.bibliometrics.shardgen import (
    ShardedCorpusConfig,
    generate_columnar_corpus,
)
from repro.core.positionality import has_positionality_statement
from repro.experiments._corpus import stock_corpus_papers
from repro.io.tables import Table
from repro.textmine import collocations


def main() -> None:
    print("Generating synthetic corpus (12 venues, 2010-2025)...")
    corpus = generate_columnar_corpus(
        ShardedCorpusConfig(
            start_year=2010, end_year=2025, seed=0,
            total_papers=stock_corpus_papers(2010, 2025),
        )
    ).to_corpus()
    print(f"  {len(corpus)} papers, {len(corpus.authors())} authors\n")

    # 1. Method adoption.
    table = Table(
        ["venue", "kind", "papers", "human-method share"],
        title="Human-method adoption by venue (detector output)",
    )
    for record in venue_adoption_table(corpus):
        table.add_row(
            [
                record["venue_id"], record["kind"], record["n_papers"],
                record["human_share"],
            ]
        )
    print(table.render())

    # 2. Positionality prevalence.
    per_kind: dict[str, list[bool]] = {}
    for paper in corpus:
        kind = corpus.venue(paper.venue_id).kind
        per_kind.setdefault(kind, []).append(
            has_positionality_statement(paper.full_text)
        )
    prevalence = Table(
        ["venue kind", "positionality prevalence"],
        title="Positionality statements by venue kind",
    )
    for kind in sorted(per_kind):
        flags = per_kind[kind]
        prevalence.add_row([kind, sum(flags) / len(flags)])
    print()
    print(prevalence.render())

    # 3. Agenda concentration: citations and topics.
    cited = corpus.citation_counts()
    citation_counts = [cited.get(p.paper_id, 0) for p in corpus]
    print()
    print("Agenda / attention concentration:")
    print(f"  citation Gini:            {gini(citation_counts):.3f}")
    print(f"  top-1% papers' citations: {top_k_share(citation_counts, len(citation_counts) // 100):.1%}")
    networking_topics = {}
    for venue in corpus.venues():
        if venue.kind != "networking":
            continue
        for topic, count in corpus.topic_counts(venue_id=venue.venue_id).items():
            networking_topics[topic] = networking_topics.get(topic, 0) + count
    total = sum(networking_topics.values())
    hyper = sum(
        networking_topics.get(t, 0) for t in ("datacenter", "transport", "routing")
    )
    community = sum(
        networking_topics.get(t, 0)
        for t in ("community-networks", "accessibility", "policy")
    )
    print(f"  networking-venue hyperscaler-topic share: {hyper / total:.1%}")
    print(f"  networking-venue community-topic share:   {community / total:.1%}")

    # 4. Who is in the room, and what do the abstracts talk about.
    print("\nWho is in the room (flagship venues):")
    for venue_id in ("sigcomm-like", "chi-like"):
        room = room_report(corpus, venue_id)
        print(
            f"  {venue_id:14s} hyperscaler slots {room['hyperscaler_slot_share']:.1%}, "
            f"global-south slots {room['global_south_slot_share']:.1%}, "
            f"gatekeeping {room['gatekeeping_index']:.2f}"
        )
    networking_abstracts = [
        p.abstract
        for p in corpus.papers(venue_id="sigcomm-like")
    ]
    top = collocations(networking_abstracts, min_count=20, top_k=5)
    print("\nTop networking-abstract collocations (discounted PMI):")
    for collocation in top:
        print(f"  {collocation.text:30s} n={collocation.count}")
    print(
        "\nReading: the synthetic corpus is calibrated to the paper's "
        "qualitative claims — human methods a thin minority at networking "
        "venues, positionality near-absent, and the agenda mirroring "
        "dominant players. Every analysis above would run unchanged on a "
        "scraped corpus."
    )


if __name__ == "__main__":
    main()
