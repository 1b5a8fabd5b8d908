"""The sequential dataclass corpus generator, kept as a test oracle.

``repro.bibliometrics.shardgen`` is the only corpus producer in the
package.  This module keeps the earlier generator — one
``random.Random`` stream, one ``Paper`` object per paper, accumulating
preferential-attachment citations — so tests can check that the
shard-parallel generator reproduces its marginal statistics, and can
exercise the dataclass ``Corpus`` API on a corpus built without the
columnar layer.  It draws on the same venue profiles and text
templates as ``shardgen``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.bibliometrics.corpus import Author, Corpus, Paper, Venue
from repro.bibliometrics.synthgen import (
    _COMMUNITIES,
    _GIVEN,
    _HUMAN_METHOD_SENTENCES,
    _IDENTITIES,
    _PARTNERS,
    _POSITIONALITY_STATEMENTS,
    _QUANT_METHOD_SENTENCES,
    _SURNAMES,
    TOPICS,
    GroundTruth,
    VenueProfile,
    default_venue_profiles,
)


@dataclass(frozen=True, slots=True)
class SyntheticCorpusConfig:
    """Generator parameters.

    Attributes:
        start_year: First publication year (inclusive).
        end_year: Last publication year (inclusive).
        seed: RNG seed; equal configs generate identical corpora.
        authors_per_venue_pool: Size of each venue's recurring author pool.
        annual_pool_growth: Fraction of the initial pool size added as
            brand-new authors each year.
        mean_authors_per_paper: Average author-list length.
        mean_references: Average within-corpus citation count per paper.
        same_topic_citation_bias: Multiplier applied to same-topic papers
            during preferential-attachment citation sampling.
        venue_scale: Multiplier on every venue's ``papers_per_year``
            (rounded per venue).
    """

    start_year: int = 2000
    end_year: int = 2025
    seed: int = 0
    authors_per_venue_pool: int = 120
    annual_pool_growth: float = 0.04
    mean_authors_per_paper: float = 4.0
    mean_references: float = 8.0
    same_topic_citation_bias: float = 4.0
    venue_scale: float = 1.0


def _weighted_choice(rng: random.Random, weights: dict[str, float]) -> str:
    items = sorted(weights)
    return rng.choices(items, weights=[weights[i] for i in items], k=1)[0]


def _make_title(rng: random.Random, topic: str) -> str:
    spec = TOPICS[topic]
    verb = rng.choice(spec["verbs"])
    noun = rng.choice(spec["nouns"])
    suffix = rng.choice(
        ("at scale", "in the wild", "under constraints", "revisited",
         "for the next decade", "across regions")
    )
    return f"{verb.capitalize()} {noun} {suffix}"


def _fill(template: str, rng: random.Random) -> str:
    return template.format(
        partner=rng.choice(_PARTNERS),
        months=rng.randint(3, 24),
        n_participants=rng.randint(8, 60),
        n_sites=rng.randint(2, 12),
    )


def _make_abstract(
    rng: random.Random,
    topic: str,
    human_families: tuple[str, ...],
) -> str:
    spec = TOPICS[topic]
    noun = rng.choice(spec["nouns"])
    lead = (
        f"This paper studies {noun} and the practices surrounding it. "
        f"We present a system-level analysis and report lessons for the community."
    )
    sentences = [lead]
    quant_family = rng.choice(sorted(_QUANT_METHOD_SENTENCES))
    sentences.append(_fill(rng.choice(_QUANT_METHOD_SENTENCES[quant_family]), rng))
    for family in human_families:
        sentences.append(_fill(rng.choice(_HUMAN_METHOD_SENTENCES[family]), rng))
    sentences.append(
        "Results show consistent improvements and surface open questions "
        "for operators and researchers."
    )
    return " ".join(sentences)


def _sample_human_families(rng: random.Random, kind: str) -> tuple[str, ...]:
    """Which human-method families a human-methods paper uses."""
    primary_pool = {
        "networking": ("interviews", "surveys", "participatory", "ethnography"),
        "hci": ("interviews", "participatory", "diaries", "focus_groups",
                "surveys", "ethnography"),
        "sts": ("ethnography", "interviews", "participatory"),
    }[kind]
    n_families = 1 + (rng.random() < 0.45) + (rng.random() < 0.15)
    families = rng.sample(primary_pool, k=min(n_families, len(primary_pool)))
    return tuple(sorted(families))


def generate_corpus(
    config: SyntheticCorpusConfig | None = None,
    profiles: list[VenueProfile] | None = None,
) -> tuple[Corpus, GroundTruth]:
    """Generate a synthetic corpus and its ground-truth labels.

    Deterministic for a given ``(config, profiles)`` pair.  Citations
    are O(n²): each paper weighs every earlier paper, in numpy, with
    the weights accumulated once per paper (``random.choices`` with
    ``weights=`` would accumulate them once per draw; the draws are
    the same).
    """
    config = config or SyntheticCorpusConfig()
    profiles = profiles if profiles is not None else default_venue_profiles()
    if config.end_year < config.start_year:
        raise ValueError("end_year must be >= start_year")
    rng = random.Random(config.seed)
    corpus = Corpus()
    truth = GroundTruth()

    # Author pools per venue (researchers publish repeatedly at "their"
    # venue); pools grow by a newcomer influx each year.
    pools: dict[str, list[str]] = {}
    pool_counters: dict[str, int] = {}

    def grow_pool(profile: VenueProfile, n_new: int) -> None:
        pool = pools[profile.venue_id]
        for _ in range(n_new):
            index = pool_counters[profile.venue_id]
            pool_counters[profile.venue_id] += 1
            author_id = f"{profile.venue_id}-a{index:04d}"
            sector = _weighted_choice(rng, profile.sector_weights)
            region = _weighted_choice(rng, profile.region_weights)
            name = f"{rng.choice(_GIVEN)} {rng.choice(_SURNAMES)}"
            affiliation = f"{region}:{sector}-{rng.randint(1, 30):02d}"
            corpus.add_author(
                Author(author_id, name, affiliation, sector, region)
            )
            pool.append(author_id)

    for profile in profiles:
        corpus.add_venue(Venue(profile.venue_id, profile.name, profile.kind))
        pools[profile.venue_id] = []
        pool_counters[profile.venue_id] = 0
        grow_pool(profile, config.authors_per_venue_pool)

    # Papers, year by year, with preferential-attachment citations.
    published: list[Paper] = []
    total_papers = (config.end_year - config.start_year + 1) * sum(
        max(0, round(profile.papers_per_year * config.venue_scale))
        for profile in profiles
    )
    # Per published paper: 1 + its citation count, and its topic's code.
    base_weight = np.empty(total_papers, dtype=np.float64)
    topic_code = np.empty(total_papers, dtype=np.int64)
    codes: dict[str, int] = {}
    paper_counter = 0
    influx = max(
        0, round(config.annual_pool_growth * config.authors_per_venue_pool)
    )
    for year in range(config.start_year, config.end_year + 1):
        for profile in profiles:
            years_in = year - config.start_year
            if years_in > 0 and influx:
                grow_pool(profile, influx)
            rate = min(
                1.0,
                max(0.0, profile.human_method_rate
                    + profile.human_method_trend * years_in),
            )
            for _ in range(max(0, round(profile.papers_per_year * config.venue_scale))):
                paper_id = f"p{paper_counter:06d}"
                paper_counter += 1
                topic = _weighted_choice(rng, profile.topic_weights)
                uses_human = rng.random() < rate
                families = _sample_human_families(rng, profile.kind) if uses_human else ()
                title = _make_title(rng, topic)
                abstract = _make_abstract(rng, topic, families)
                body = ""
                has_positionality = (
                    uses_human and rng.random() < profile.positionality_rate
                )
                if has_positionality:
                    statement = rng.choice(_POSITIONALITY_STATEMENTS).format(
                        identity=rng.choice(_IDENTITIES),
                        community=rng.choice(_COMMUNITIES),
                    )
                    body = statement

                n_authors = max(1, round(rng.gauss(config.mean_authors_per_paper, 1.5)))
                pool = pools[profile.venue_id]
                author_ids = tuple(rng.sample(pool, k=min(n_authors, len(pool))))

                references: tuple[str, ...] = ()
                if published:
                    n_refs = min(
                        len(published),
                        max(0, round(rng.gauss(config.mean_references, 3.0))),
                    )
                    if n_refs > 0:
                        n = len(published)
                        same_topic = topic_code[:n] == codes.get(topic, -1)
                        weights = base_weight[:n] * np.where(
                            same_topic, config.same_topic_citation_bias, 1.0
                        )
                        picks = list(set(rng.choices(
                            range(n), cum_weights=np.cumsum(weights), k=n_refs
                        )))
                        references = tuple(
                            sorted(published[i].paper_id for i in picks)
                        )
                        base_weight[picks] += 1.0

                paper = Paper(
                    paper_id=paper_id,
                    title=title,
                    abstract=abstract,
                    body=body,
                    venue_id=profile.venue_id,
                    year=year,
                    author_ids=author_ids,
                    topic=topic,
                    references=references,
                )
                corpus.add_paper(paper)
                base_weight[len(published)] = 1.0
                topic_code[len(published)] = codes.setdefault(topic, len(codes))
                published.append(paper)
                if families:
                    truth.human_methods[paper_id] = families
                if has_positionality:
                    truth.positionality.add(paper_id)

    return corpus, truth
