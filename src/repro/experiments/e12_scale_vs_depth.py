"""E12: scale vs depth.

Claim (paper §6.2.1): "while data from a small number of actors may not
seem to be 'at scale', it's clear that there are individuals with
enormous influence on the network and limited datasets from
interactions with these actors can have huge scaled implications."

Operationalization, in both of the library's worlds:

- *Interconnection*: in the mandatory-peering market, what share of
  delivered domestic traffic touches the top-k transit organizations?
  (Interviewing three organizations "covers" most of the traffic.)
- *Bibliometrics*: what share of within-corpus citations goes to the
  top 1% / 5% of papers, and what is the citation Gini?

Shape expected: top-3 ASes touch well over half the traffic; citations
are heavily concentrated (Gini > 0.6, top-5% share > 30%) — small-N
qualitative engagement with the right actors covers much of the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.bibliometrics.metrics import gini, top_k_share
from repro.experiments._corpus import (
    corpus_config_from_params,
    shared_columnar_corpus_from_config,
)
from repro.experiments.registry import ExperimentResult, make_result
from repro.experiments.spec import (
    CorpusParams,
    ExperimentSpec,
    resolve_spec,
    spec_field,
)
from repro.io.tables import Table
from repro.netsim.bgp.ixp import connect_ixp_members
from repro.netsim.bgp.routing import propagate_routes
from repro.netsim.bgp.scenarios import build_mandatory_peering_scenario
from repro.netsim.bgp.traffic import resolve_flows


@dataclass(frozen=True)
class E12Spec(ExperimentSpec):
    """Knobs for E12: the interconnection market and the corpus shape."""

    n_small_isps: int = spec_field(20, minimum=2, maximum=500, help="small ISPs in the synthetic market")
    corpus: CorpusParams = CorpusParams()

    EXPERIMENT_ID: ClassVar[str] = "E12"
    PRESETS: ClassVar[dict[str, dict]] = {
        "fast": {},
        "full": {
            "n_small_isps": 40,
            "corpus": CorpusParams(**CorpusParams.FULL),
        },
    }


def _traffic_concentration(seed: int, n_small_isps: int) -> list[tuple[int, float]]:
    """Share of delivered domestic volume touching the top-k ASes."""
    scenario = build_mandatory_peering_scenario(
        n_small_isps=n_small_isps, seed=seed
    )
    connect_ixp_members(scenario.graph, scenario.ixp)
    table = propagate_routes(scenario.graph)
    flows = resolve_flows(scenario.graph, table, scenario.demands)
    delivered = [f for f in flows if f.delivered]
    total = sum(f.demand.volume for f in delivered)
    volume_by_asn: dict[int, float] = {}
    for flow in delivered:
        assert flow.path is not None
        for asn in flow.path:
            volume_by_asn[asn] = volume_by_asn.get(asn, 0.0) + flow.demand.volume
    top = sorted(volume_by_asn.items(), key=lambda kv: (-kv[1], kv[0]))
    shares = []
    for k in (1, 3, 5):
        covered_flows = 0.0
        top_asns = {asn for asn, _ in top[:k]}
        for flow in delivered:
            assert flow.path is not None
            if any(asn in top_asns for asn in flow.path):
                covered_flows += flow.demand.volume
        shares.append((k, covered_flows / total if total else 0.0))
    return shares


def run(
    spec: E12Spec | None = None,
    fast: bool | None = None,
    seed: int | None = None,
) -> ExperimentResult:
    """Run E12; see module docstring for the expected shape."""
    spec = resolve_spec(E12Spec, spec, fast, seed)
    traffic_shares = _traffic_concentration(spec.seed, spec.n_small_isps)
    traffic_table = Table(
        ["top_k_ases", "traffic_touch_share"],
        title="E12a: domestic traffic touching the top-k ASes",
    )
    for k, share in traffic_shares:
        traffic_table.add_row([k, share])

    corpus = shared_columnar_corpus_from_config(
        corpus_config_from_params(spec.seed, spec.corpus)
    )
    counts, per_author = corpus.count_arrays()
    depth_counts = per_author[per_author > 0]
    n = len(counts)
    citation_table = Table(
        ["metric", "value"], title="E12b: citation concentration"
    )
    top1 = top_k_share(counts, max(1, n // 100))
    top5 = top_k_share(counts, max(1, n // 20))
    citation_gini = gini(counts)
    citation_table.add_row(["top_1pct_share", top1])
    citation_table.add_row(["top_5pct_share", top5])
    citation_table.add_row(["gini", citation_gini])

    # Per-author depth: the same small-N story on the author axis —
    # how concentrated is authorship among the people who publish at
    # all? (Authors with zero papers are outside this view.)
    n_authors = len(depth_counts)
    depth_table = Table(
        ["metric", "value"], title="E12c: per-author publication depth"
    )
    depth_table.add_row(["publishing_authors", n_authors])
    depth_table.add_row(
        ["top_10pct_author_share",
         top_k_share(depth_counts, max(1, n_authors // 10))]
    )
    depth_table.add_row(["papers_per_author_gini", gini(depth_counts)])

    result = make_result("E12")
    result.tables = [traffic_table, citation_table, depth_table]
    top3_share = dict(traffic_shares)[3]
    result.checks = {
        "top3_ases_touch_majority": top3_share > 0.5,
        "citations_concentrated_gini": citation_gini > 0.6,
        "top5pct_papers_over_30pct_citations": top5 > 0.3,
    }
    return result
