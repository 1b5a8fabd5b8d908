"""The two interconnection case studies as executable scenarios.

Both builders are deterministic in their seed and return scenario
objects that bundle the graph, the IXPs, and the demand set, plus
``run_*`` functions that produce the result rows benchmarks E6 and E7
report.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from repro.netsim.bgp.asys import AS, ASGraph
from repro.netsim.bgp.ixp import IXP, connect_ixp_members
from repro.netsim.bgp.regulator import (
    PeeringMandate,
    apply_asn_split_evasion,
    compliance_report,
)
from repro.netsim.bgp.routing import propagate_routes
from repro.netsim.bgp.traffic import (
    TrafficDemand,
    gravity_demands,
    locality_report,
    resolve_flows,
)
from repro.netsim.topology import Location, distance_km

# -- Scenario 1: mandatory peering and the ASN-split evasion (Telmex) -------

TIER1_ASN = 100
INCUMBENT_ASN = 1
ALT_TRANSIT_ASN = 2
SHELL_ASN = 64500
FIRST_SMALL_ASN = 10
RESERVED_ASNS = frozenset({TIER1_ASN, INCUMBENT_ASN, ALT_TRANSIT_ASN, SHELL_ASN})


@dataclass
class MandatoryPeeringScenario:
    """A single-country interconnection market with an incumbent.

    Attributes:
        graph: The AS graph.
        ixp: The country's exchange.
        mandate: The regulator's rule.
        country: Country code.
        incumbent_org: Organization id of the incumbent.
        demands: Offered domestic traffic matrix.
    """

    graph: ASGraph
    ixp: IXP
    mandate: PeeringMandate
    country: str
    incumbent_org: str
    demands: list[TrafficDemand] = field(default_factory=list)


def build_mandatory_peering_scenario(
    n_small_isps: int = 30,
    incumbent_customer_share: float = 0.6,
    ixp_membership_rate: float = 0.7,
    seed: int = 0,
    country: str = "MX",
) -> MandatoryPeeringScenario:
    """Build the Telmex-like market.

    Topology: a foreign tier-1 (AS100, country "US"); a dominant domestic
    incumbent (AS1, most of the eyeball mass) and a smaller alternative
    transit provider (AS2), both tier-1 customers; ``n_small_isps`` small
    ISPs, each single-homed to the incumbent (with probability
    ``incumbent_customer_share``) or to the alternative transit; one
    domestic IXP that a fraction ``ixp_membership_rate`` of the small
    ISPs joins with open policies.  Without the incumbent at the IXP,
    traffic between the two transit trees can only meet at the foreign
    tier-1 — the tromboning the ethnography documented.

    The mandate obligates organizations with total size >= 10 (only the
    incumbent qualifies) to peer openly at the IXP.
    """
    if not 0.0 <= incumbent_customer_share <= 1.0:
        raise ValueError("incumbent_customer_share must be in [0, 1]")
    if not 0.0 <= ixp_membership_rate <= 1.0:
        raise ValueError("ixp_membership_rate must be in [0, 1]")
    rng = random.Random(seed)
    graph = ASGraph()
    home = Location(0.0, 0.0, region="latin-america", country=country)
    abroad = Location(3000.0, 3000.0, region="north-america", country="US")

    graph.add_as(AS(TIER1_ASN, "ForeignTier1", org="tier1-co",
                    kind="transit", location=abroad, size=5.0))
    graph.add_as(AS(INCUMBENT_ASN, "Incumbent", org="incumbent-co",
                    kind="incumbent", location=home, size=50.0))
    graph.add_as(AS(ALT_TRANSIT_ASN, "AltTransit", org="alt-transit-co",
                    kind="transit", location=home, size=5.0))
    graph.add_customer(provider=TIER1_ASN, customer=INCUMBENT_ASN)
    graph.add_customer(provider=TIER1_ASN, customer=ALT_TRANSIT_ASN)

    ixp = IXP("ix-home", name=f"IX-{country}", location=home)
    # Small ISPs count up from FIRST_SMALL_ASN past the reserved ASNs.
    small_asns = (a for a in itertools.count(FIRST_SMALL_ASN) if a not in RESERVED_ASNS)
    for i, asn in zip(range(n_small_isps), small_asns):
        jitter = Location(
            rng.uniform(-200, 200), rng.uniform(-200, 200),
            region="latin-america", country=country,
        )
        graph.add_as(AS(asn, f"SmallISP{i}", org=f"isp-{i}",
                        kind="stub", location=jitter,
                        size=rng.uniform(0.5, 3.0)))
        provider = (
            INCUMBENT_ASN
            if rng.random() < incumbent_customer_share
            else ALT_TRANSIT_ASN
        )
        graph.add_customer(provider=provider, customer=asn)
        if rng.random() < ixp_membership_rate:
            ixp.join(asn, open_policy=True)

    mandate = PeeringMandate(
        country=country, ixp_id=ixp.ixp_id, enforcement="asn", min_size=10.0
    )
    scenario = MandatoryPeeringScenario(
        graph=graph,
        ixp=ixp,
        mandate=mandate,
        country=country,
        incumbent_org="incumbent-co",
    )
    domestic_asns = [a.asn for a in graph.ases_in_country(country)]
    scenario.demands = gravity_demands(
        graph, sources=domestic_asns, destinations=domestic_asns,
        total_volume=1000.0, decay=0.0,
    )
    return scenario


def _run_variant(scenario: MandatoryPeeringScenario) -> dict:
    """Wire the IXP, route, resolve, and report one variant."""
    connect_ixp_members(scenario.graph, scenario.ixp)
    table = propagate_routes(scenario.graph)
    flows = resolve_flows(scenario.graph, table, scenario.demands)
    report = locality_report(
        flows, scenario.country,
        ixp_countries={scenario.ixp.ixp_id: scenario.ixp.country},
    )

    incumbent_asns = {
        a.asn for a in scenario.graph.ases_of_org(scenario.incumbent_org)
    }
    domestic = [
        f for f in flows
        if f.delivered and f.countries[0] == scenario.country
        and f.countries[-1] == scenario.country
    ]
    delivered_volume = sum(f.demand.volume for f in domestic)
    via_incumbent = sum(
        f.demand.volume
        for f in domestic
        if f.path is not None and any(
            asn in incumbent_asns for asn in f.path[1:-1]
        )
    )
    report["incumbent_transit_share"] = (
        via_incumbent / delivered_volume if delivered_volume else 0.0
    )
    compliance = compliance_report(scenario.graph, scenario.ixp, scenario.mandate)
    incumbent_row = compliance.get(scenario.incumbent_org, {})
    report["compliant_asn_level"] = bool(
        incumbent_row.get("compliant_asn_level", False)
    )
    report["compliant_org_level"] = bool(
        incumbent_row.get("compliant_org_level", False)
    )
    return report


def run_mandatory_peering_study(
    n_small_isps: int = 30,
    seed: int = 0,
) -> dict[str, dict]:
    """Run all four regulatory variants of experiment E6.

    Variants (each on a freshly built, identically seeded market):

    - ``no_regulation``: incumbent ignores the IXP.
    - ``honest_compliance``: incumbent's main AS peers openly.
    - ``asn_split_evasion``: a shell ASN peers instead (Telmex's move).
    - ``org_enforcement``: regulator enforces at organization level, so
      the main AS must peer openly (the shell may still exist).

    Returns:
        variant -> locality/compliance report (see
        :func:`repro.netsim.bgp.traffic.locality_report`, plus
        ``incumbent_transit_share`` and the two compliance booleans).
    """
    results: dict[str, dict] = {}

    scenario = build_mandatory_peering_scenario(n_small_isps=n_small_isps, seed=seed)
    results["no_regulation"] = _run_variant(scenario)

    scenario = build_mandatory_peering_scenario(n_small_isps=n_small_isps, seed=seed)
    scenario.ixp.join(INCUMBENT_ASN, open_policy=True)
    results["honest_compliance"] = _run_variant(scenario)

    scenario = build_mandatory_peering_scenario(n_small_isps=n_small_isps, seed=seed)
    apply_asn_split_evasion(
        scenario.graph, scenario.ixp, scenario.incumbent_org,
        main_asn=INCUMBENT_ASN, shell_asn=SHELL_ASN,
    )
    results["asn_split_evasion"] = _run_variant(scenario)

    scenario = build_mandatory_peering_scenario(n_small_isps=n_small_isps, seed=seed)
    scenario.mandate = PeeringMandate(
        country=scenario.country, ixp_id=scenario.ixp.ixp_id,
        enforcement="org", min_size=10.0,
    )
    apply_asn_split_evasion(
        scenario.graph, scenario.ixp, scenario.incumbent_org,
        main_asn=INCUMBENT_ASN, shell_asn=SHELL_ASN,
    )
    # Org-level enforcement catches the shell trick; the incumbent is
    # compelled to bring the main network to the exchange.
    scenario.ixp.join(INCUMBENT_ASN, open_policy=True)
    results["org_enforcement"] = _run_variant(scenario)

    return results


# -- Scenario 2: IXP gravity and tromboning (Brazil / DE-CIX) ----------------

EU_TIER1_ASN = 200
MEGA_IXP_ID = "mega-ix-eu"
FIRST_EYEBALL_ASN = 1000
FIRST_BR_TRANSIT_ASN = 500
FIRST_CONTENT_ASN = 2000


@dataclass
class GravityScenario:
    """A two-region interconnection world (South country vs Europe).

    Attributes:
        graph: The AS graph.
        local_ixps: The South country's local exchanges.
        mega_ixp: The European mega-exchange.
        country: The South country code.
        content_org: Organization id of the content provider.
        demands: Offered demand set (eyeball<->content + eyeball<->eyeball).
    """

    graph: ASGraph
    local_ixps: list[IXP]
    mega_ixp: IXP
    country: str
    content_org: str
    demands: list[TrafficDemand] = field(default_factory=list)


def build_gravity_scenario(
    n_eyeballs: int = 24,
    n_local_ixps: int = 3,
    n_transits: int = 3,
    content_pop_presence: float = 0.0,
    remote_mega_membership: float = 0.4,
    local_ixp_membership: float = 0.7,
    domestic_transit_peering: bool = False,
    seed: int = 0,
    country: str = "BR",
) -> GravityScenario:
    """Build the Brazil/DE-CIX-like two-region world.

    South country: ``n_eyeballs`` eyeball ISPs spread across
    ``n_transits`` domestic transit trees (transits do *not* peer with
    each other unless ``domestic_transit_peering``), and
    ``n_local_ixps`` local exchanges each joined by nearby eyeballs with
    probability ``local_ixp_membership``.

    Europe: a tier-1 (every domestic transit's provider) and a
    mega-exchange.  The content organization always has a European
    content AS peering openly at the mega-exchange; it additionally
    places a PoP (a separate content AS located in the South country) at
    each local exchange independently with probability
    ``content_pop_presence`` — the sweep variable of experiment E7.

    A fraction ``remote_mega_membership`` of eyeballs buys remote
    membership at the mega-exchange (the "Brazilian ISPs connect in
    Frankfurt" observation).

    Demand: 80% of volume eyeball->content, 20% eyeball<->eyeball.
    """
    for name, value in (
        ("content_pop_presence", content_pop_presence),
        ("remote_mega_membership", remote_mega_membership),
        ("local_ixp_membership", local_ixp_membership),
    ):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1]")
    rng = random.Random(seed)
    graph = ASGraph()
    europe = Location(9000.0, 500.0, region="europe", country="DE")
    graph.add_as(AS(EU_TIER1_ASN, "EuroTier1", org="eu-tier1-co",
                    kind="transit", location=europe, size=5.0))
    mega_ixp = IXP(MEGA_IXP_ID, name="MegaIX-EU", location=europe)

    # Domestic transit trees.
    transit_asns = []
    for t in range(n_transits):
        asn = FIRST_BR_TRANSIT_ASN + t
        location = Location(
            t * 400.0, 0.0, region="south-america", country=country
        )
        graph.add_as(AS(asn, f"Transit{t}", org=f"transit-{t}",
                        kind="transit", location=location, size=4.0))
        graph.add_customer(provider=EU_TIER1_ASN, customer=asn)
        transit_asns.append(asn)
    if domestic_transit_peering:
        for i, a in enumerate(transit_asns):
            for b in transit_asns[i + 1:]:
                graph.add_peering(a, b)

    # Local exchanges, one per cluster of the country.
    local_ixps = []
    for x in range(n_local_ixps):
        location = Location(
            x * 500.0, 100.0, region="south-america", country=country
        )
        local_ixps.append(
            IXP(f"ix-local-{x}", name=f"IX-{country}-{x}", location=location)
        )

    # Eyeball ISPs.
    eyeball_asns = []
    for i in range(n_eyeballs):
        asn = FIRST_EYEBALL_ASN + i
        cluster = i % n_local_ixps
        location = Location(
            cluster * 500.0 + rng.uniform(-150, 150),
            rng.uniform(-150, 150),
            region="south-america", country=country,
        )
        graph.add_as(AS(asn, f"Eyeball{i}", org=f"eyeball-{i}",
                        kind="stub", location=location,
                        size=rng.uniform(1.0, 4.0)))
        graph.add_customer(
            provider=transit_asns[i % n_transits], customer=asn
        )
        if rng.random() < local_ixp_membership:
            local_ixps[cluster].join(asn, open_policy=True)
        if rng.random() < remote_mega_membership:
            mega_ixp.join(asn, open_policy=True)
        eyeball_asns.append(asn)

    # Content provider: always in Europe; PoPs in the South per sweep.
    content_org = "bigtech"
    eu_content_asn = FIRST_CONTENT_ASN
    graph.add_as(AS(eu_content_asn, "ContentEU", org=content_org,
                    kind="content", location=europe, size=40.0))
    graph.add_customer(provider=EU_TIER1_ASN, customer=eu_content_asn)
    mega_ixp.join(eu_content_asn, open_policy=True)
    content_asns = [eu_content_asn]
    n_pops = round(content_pop_presence * len(local_ixps))
    for x, local_ixp in enumerate(local_ixps):
        if x < n_pops:
            pop_asn = FIRST_CONTENT_ASN + 1 + x
            graph.add_as(AS(pop_asn, f"ContentPoP{x}", org=content_org,
                            kind="content", location=local_ixp.location,
                            size=40.0))
            # PoPs still need upstream reachability for non-IXP paths.
            graph.add_customer(
                provider=transit_asns[x % n_transits], customer=pop_asn
            )
            local_ixp.join(pop_asn, open_policy=True)
            content_asns.append(pop_asn)

    scenario = GravityScenario(
        graph=graph,
        local_ixps=local_ixps,
        mega_ixp=mega_ixp,
        country=country,
        content_org=content_org,
    )

    # Demands: eyeball->content 80%, eyeball<->eyeball 20%.  Content is
    # served anycast-style: each eyeball's demand lands on the
    # organization's nearest replica (ties broken by lowest ASN), which
    # is how CDN request routing behaves.
    content_demands = []
    for eyeball in eyeball_asns:
        eyeball_location = graph.get(eyeball).location
        nearest = min(
            content_asns,
            key=lambda asn: (
                distance_km(eyeball_location, graph.get(asn).location),
                asn,
            ),
        )
        content_demands.append(
            TrafficDemand(eyeball, nearest, 800.0 / len(eyeball_asns))
        )
    eyeball_demands = gravity_demands(
        graph, sources=eyeball_asns, destinations=eyeball_asns,
        total_volume=200.0, decay=0.0,
    )
    scenario.demands = content_demands + eyeball_demands
    return scenario


def run_gravity_study(
    presence_levels: tuple[float, ...] = (0.0, 0.34, 0.67, 1.0),
    n_eyeballs: int = 24,
    seed: int = 0,
) -> list[dict]:
    """Sweep content-PoP presence and report locality/gravity (E7).

    Returns one record per presence level with:

    - ``content_pop_presence``: the sweep value.
    - ``content_served_domestically``: share of eyeball->content volume
      whose path never leaves the South country.
    - ``eyeball_tromboned_share``: share of delivered domestic
      eyeball<->eyeball volume transiting abroad.
    - ``mega_ixp_volume`` / ``local_ixp_volume``: traffic crossing the
      European mega-exchange vs all local exchanges combined.
    - ``mega_gravity_ratio``: mega / (mega + local); the "giant Internet
      node" effect of Rosa [39].
    - ``mean_path_length``: mean delivered domestic path length.
    """
    records = []
    for presence in presence_levels:
        scenario = build_gravity_scenario(
            n_eyeballs=n_eyeballs,
            content_pop_presence=presence,
            seed=seed,
        )
        for ixp in scenario.local_ixps + [scenario.mega_ixp]:
            connect_ixp_members(scenario.graph, ixp)
        table = propagate_routes(scenario.graph)
        flows = resolve_flows(scenario.graph, table, scenario.demands)
        ixp_countries = {
            ixp.ixp_id: ixp.country
            for ixp in scenario.local_ixps + [scenario.mega_ixp]
        }
        report = locality_report(flows, scenario.country, ixp_countries)

        content_asns = {
            a.asn for a in scenario.graph.ases_of_org(scenario.content_org)
        }
        content_flows = [
            f for f in flows if f.delivered and f.demand.dst in content_asns
        ]
        content_volume = sum(f.demand.volume for f in content_flows)
        domestic_content = sum(
            f.demand.volume
            for f in content_flows
            if all(c == scenario.country for c in f.countries)
        )
        mega_volume = report["ixp_volumes"].get(MEGA_IXP_ID, 0.0)
        local_volume = sum(
            v for k, v in report["ixp_volumes"].items() if k != MEGA_IXP_ID
        )
        denominator = mega_volume + local_volume
        records.append(
            {
                "content_pop_presence": presence,
                "content_served_domestically": (
                    domestic_content / content_volume if content_volume else 0.0
                ),
                "eyeball_tromboned_share": report["tromboned_share"],
                "mega_ixp_volume": mega_volume,
                "local_ixp_volume": local_volume,
                "mega_gravity_ratio": (
                    mega_volume / denominator if denominator else 0.0
                ),
                "mean_path_length": report["mean_path_length"],
            }
        )
    return records
