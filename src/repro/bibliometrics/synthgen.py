"""Calibration of the synthetic corpus: venue profiles and text templates.

The paper's bibliometric claims would normally be tested against scraped
venue corpora; none are available offline, so
:mod:`repro.bibliometrics.shardgen` generates a synthetic corpus whose
*marginal statistics* are set by the explicit, documented parameters
here:

- per-venue human-method adoption rates (with a yearly trend),
- per-venue positionality-statement rates,
- venue-kind-specific topic mixes (networking venues skew toward
  datacenter/transport topics; HCI/STS venues toward community and
  accessibility topics),
- author pools with sector and region distributions.

Generated abstracts embed real method phrases from the
:mod:`repro.bibliometrics.methods_detect` lexicons (the sentence
templates below), so the detection pipeline runs on the generated text
exactly as it would on scraped text (it is *not* given the ground-truth
labels).  Ground truth travels as a :class:`GroundTruth` so detector
precision/recall can be evaluated too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# -- topic templates ---------------------------------------------------------

TOPICS: dict[str, dict] = {
    "datacenter": {
        "nouns": ("datacenter fabrics", "rack-scale networks", "RDMA transport",
                  "congestion signals", "load balancing"),
        "verbs": ("optimizing", "scaling", "accelerating", "re-architecting"),
    },
    "transport": {
        "nouns": ("congestion control", "QUIC deployments", "loss recovery",
                  "bandwidth estimation", "latency budgets"),
        "verbs": ("tuning", "modeling", "rethinking", "measuring"),
    },
    "routing": {
        "nouns": ("BGP convergence", "interdomain routing", "route leaks",
                  "peering policies", "IXP route servers"),
        "verbs": ("securing", "auditing", "stabilizing", "mapping"),
    },
    "measurement": {
        "nouns": ("Internet topology", "DNS resolution paths", "CDN footprints",
                  "outage detection", "address usage"),
        "verbs": ("mapping", "longitudinally tracking", "inferring", "sampling"),
    },
    "wireless": {
        "nouns": ("spectrum sharing", "LTE schedulers", "mesh backhaul",
                  "rural connectivity links", "mmWave beams"),
        "verbs": ("characterizing", "deploying", "adapting", "stress-testing"),
    },
    "security": {
        "nouns": ("DDoS defenses", "RPKI adoption", "traffic hijacks",
                  "censorship circumvention", "key transparency"),
        "verbs": ("detecting", "mitigating", "hardening", "evading"),
    },
    "community-networks": {
        "nouns": ("community cellular networks", "neighborhood mesh networks",
                  "locally operated ISPs", "volunteer-run infrastructure",
                  "shared backhaul cooperatives"),
        "verbs": ("sustaining", "growing", "maintaining", "governing"),
    },
    "accessibility": {
        "nouns": ("assistive interfaces", "low-literacy onboarding",
                  "affordable access programs", "offline-first applications",
                  "inclusive captioning pipelines"),
        "verbs": ("designing", "evaluating", "co-creating", "localizing"),
    },
    "policy": {
        "nouns": ("spectrum regulation", "interconnection mandates",
                  "universal service funds", "data governance regimes",
                  "platform accountability rules"),
        "verbs": ("analyzing", "comparing", "contesting", "reforming"),
    },
    "iot": {
        "nouns": ("sensor swarms", "smart-home gateways", "LoRa deployments",
                  "edge inference pipelines", "battery-free tags"),
        "verbs": ("orchestrating", "securing", "powering", "profiling"),
    },
}

# Human-method sentence templates keyed by detector family; every
# template contains a phrase the corresponding lexicon matches.
_HUMAN_METHOD_SENTENCES: dict[str, tuple[str, ...]] = {
    "participatory": (
        "We conducted participatory action research with {partner} over {months} months.",
        "The system was shaped through co-design workshops with {partner}.",
        "Our community partners guided problem selection throughout the project.",
    ),
    "ethnography": (
        "We complement the measurements with ethnographic fieldwork at {partner}.",
        "Twelve weeks of participant observation grounded the design.",
        "Field notes from site visits informed each iteration.",
    ),
    "positionality": (
        "We reflect on our positionality as researchers embedded in this community.",
        "A reflexivity statement accompanies the methods section.",
    ),
    "interviews": (
        "We conducted semi-structured interviews with {n_participants} operators.",
        "Findings draw on in-depth interviews with network engineers at {partner}.",
        "We interviewed participants across {n_sites} deployment sites.",
    ),
    "surveys": (
        "A survey of {n_participants} practitioners complements the traces.",
        "We surveyed operators using a validated survey instrument.",
    ),
    "focus_groups": (
        "Three focus groups with residents refined the requirements.",
    ),
    "diaries": (
        "A four-week diary study captured everyday connectivity practices.",
        "Technology probes recorded household usage patterns.",
    ),
}

_QUANT_METHOD_SENTENCES: dict[str, tuple[str, ...]] = {
    "measurement": (
        "We measure the system from {n_sites} vantage points.",
        "Our measurement study spans {months} months of packet traces.",
        "Analysis of BGP tables from public collectors reveals the effect.",
    ),
    "simulation": (
        "We simulate the design in a discrete-event simulation at scale.",
        "A custom simulator replays production workloads.",
    ),
    "testbed": (
        "A testbed deployment validates the design under real traffic.",
        "We deploy the prototype in a production deployment for {months} months.",
    ),
}

_POSITIONALITY_STATEMENTS = (
    "Positionality\nThe authors situate themselves as {identity} with ties to "
    "{community}; this standpoint shaped which questions we prioritized.",
    "Positionality Statement\nWe write as {identity}. Our situated knowledge "
    "of {community} informs both the methods and the framing of results.",
)

_IDENTITIES = (
    "network engineers from the Global North",
    "researchers who grew up in the regions studied",
    "practitioners embedded in community networks",
    "academics with prior industry affiliations",
)

_COMMUNITIES = (
    "rural cooperative ISPs",
    "municipal broadband initiatives",
    "tribal telecommunications programs",
    "regional IXP operator associations",
)

_PARTNERS = (
    "a rural ISP cooperative",
    "a municipal network operator",
    "a regional IXP association",
    "a community anchor institution",
    "a national research network",
)

_SECTORS = ("university", "hyperscaler", "operator", "ngo", "government")
_REGIONS = (
    "north-america",
    "europe",
    "latin-america",
    "africa",
    "asia",
    "oceania",
)

_GIVEN = (
    "Alex", "Bianca", "Chidi", "Dana", "Emeka", "Fatima", "Gabriel", "Hana",
    "Ivan", "Julia", "Kofi", "Lin", "Maya", "Nikolai", "Oluwaseun", "Priya",
    "Quentin", "Rosa", "Sofia", "Tariq", "Uma", "Valeria", "Wei", "Ximena",
    "Yusuf", "Zanele",
)
_SURNAMES = (
    "Abara", "Bauer", "Castro", "Dlamini", "Eriksen", "Fernandez", "Gupta",
    "Hernandez", "Ito", "Jensen", "Kimura", "Lopez", "Mbeki", "Nguyen",
    "Okafor", "Park", "Quispe", "Rahman", "Silva", "Tanaka", "Umar",
    "Vasquez", "Wang", "Xu", "Yilmaz", "Zhao",
)


@dataclass(frozen=True, slots=True)
class VenueProfile:
    """Generation parameters for one venue.

    Attributes:
        venue_id: Stable id.
        name: Display name.
        kind: "networking", "hci", or "sts".
        papers_per_year: Papers generated per year.
        human_method_rate: Base probability a paper uses human methods.
        human_method_trend: Additive rate change per year (adoption drift).
        positionality_rate: Probability a *human-methods* paper carries a
            positionality statement (non-human-method papers never do).
        topic_weights: Topic -> relative weight for this venue.
        sector_weights: Author sector -> relative weight.
        region_weights: Author region -> relative weight.
    """

    venue_id: str
    name: str
    kind: str
    papers_per_year: int
    human_method_rate: float
    human_method_trend: float
    positionality_rate: float
    topic_weights: dict[str, float]
    sector_weights: dict[str, float]
    region_weights: dict[str, float]


def default_venue_profiles() -> list[VenueProfile]:
    """The 12-venue default panel used by experiments E1–E3.

    Rates are calibrated to the paper's qualitative claims: human methods
    a small minority (slowly growing) at networking venues, mainstream at
    HCI venues, universal at STS venues; positionality near-absent in
    networking; networking topic mixes dominated by
    datacenter/transport/routing (the "hyperscaler agenda" of Section 1).
    """
    networking_topics = {
        "datacenter": 3.0,
        "transport": 2.5,
        "routing": 2.5,
        "measurement": 2.5,
        "security": 2.0,
        "wireless": 1.5,
        "iot": 1.0,
        "community-networks": 0.3,
        "policy": 0.2,
        "accessibility": 0.1,
    }
    hci_topics = {
        "accessibility": 3.0,
        "community-networks": 2.0,
        "iot": 1.5,
        "policy": 1.5,
        "wireless": 1.0,
        "measurement": 0.5,
        "security": 0.5,
        "transport": 0.2,
        "datacenter": 0.1,
        "routing": 0.1,
    }
    sts_topics = {
        "policy": 3.0,
        "community-networks": 2.5,
        "accessibility": 1.5,
        "routing": 1.0,
        "measurement": 0.8,
        "security": 0.5,
        "wireless": 0.5,
        "datacenter": 0.2,
        "transport": 0.1,
        "iot": 0.2,
    }
    networking_sectors = {
        "university": 5.0,
        "hyperscaler": 3.0,
        "operator": 1.0,
        "government": 0.5,
        "ngo": 0.2,
    }
    hci_sectors = {
        "university": 7.0,
        "hyperscaler": 1.0,
        "ngo": 1.0,
        "operator": 0.3,
        "government": 0.5,
    }
    north_heavy = {
        "north-america": 5.0,
        "europe": 3.0,
        "asia": 1.5,
        "latin-america": 0.3,
        "africa": 0.2,
        "oceania": 0.3,
    }
    broader = {
        "north-america": 3.5,
        "europe": 2.5,
        "asia": 2.0,
        "latin-america": 1.0,
        "africa": 0.8,
        "oceania": 0.4,
    }

    def networking(venue_id: str, name: str, papers: int, rate: float) -> VenueProfile:
        return VenueProfile(
            venue_id=venue_id,
            name=name,
            kind="networking",
            papers_per_year=papers,
            human_method_rate=rate,
            human_method_trend=0.002,
            positionality_rate=0.02,
            topic_weights=networking_topics,
            sector_weights=networking_sectors,
            region_weights=north_heavy,
        )

    def hci(venue_id: str, name: str, papers: int, rate: float) -> VenueProfile:
        return VenueProfile(
            venue_id=venue_id,
            name=name,
            kind="hci",
            papers_per_year=papers,
            human_method_rate=rate,
            human_method_trend=0.004,
            positionality_rate=0.35,
            topic_weights=hci_topics,
            sector_weights=hci_sectors,
            region_weights=broader,
        )

    def sts(venue_id: str, name: str, papers: int) -> VenueProfile:
        return VenueProfile(
            venue_id=venue_id,
            name=name,
            kind="sts",
            papers_per_year=papers,
            human_method_rate=0.95,
            human_method_trend=0.0,
            positionality_rate=0.6,
            topic_weights=sts_topics,
            sector_weights=hci_sectors,
            region_weights=broader,
        )

    return [
        networking("sigcomm-like", "SIGCOMM-like", 45, 0.05),
        networking("nsdi-like", "NSDI-like", 40, 0.06),
        networking("imc-like", "IMC-like", 35, 0.09),
        networking("conext-like", "CoNEXT-like", 30, 0.07),
        networking("hotnets-like", "HotNets-like", 25, 0.10),
        networking("infocom-like", "INFOCOM-like", 60, 0.03),
        networking("sosr-like", "SOSR-like", 20, 0.04),
        hci("chi-like", "CHI-like", 70, 0.75),
        hci("cscw-like", "CSCW-like", 50, 0.85),
        hci("ictd-like", "ICTD-like", 30, 0.80),
        sts("sts-journal-like", "STS-journal-like", 20),
        sts("policy-review-like", "PolicyReview-like", 15),
    ]


@dataclass
class GroundTruth:
    """Per-paper generation labels, for evaluating the detectors.

    Attributes:
        human_methods: paper_id -> tuple of human-method families planted.
        positionality: paper_ids that carry a positionality statement.
    """

    human_methods: dict[str, tuple[str, ...]] = field(default_factory=dict)
    positionality: set[str] = field(default_factory=set)
