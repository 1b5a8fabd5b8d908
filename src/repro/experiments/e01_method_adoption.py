"""E1: human-method adoption by venue.

Claim (paper §1, §6.4): work that foregrounds human experience "is often
treated as peripheral" in networking venues, while HCI venues "accept
and encourage qualitative methods-based networking research".

Shape expected: HCI/STS venues' human-method share exceeds networking
venues' by roughly 5-10x; the networking share grows slowly over the
corpus years but stays a small minority.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.bibliometrics.statistics import (
    chi_squared_independence,
    proportion_confint,
    two_proportion_test,
)
from repro.bibliometrics.trends import venue_adoption_table_from_counts
from repro.experiments._corpus import (
    corpus_config_from_params,
    shared_aggregates_from_config,
)
from repro.experiments.registry import ExperimentResult, make_result
from repro.experiments.spec import CorpusParams, ExperimentSpec, resolve_spec
from repro.io.tables import Table


@dataclass(frozen=True)
class E1Spec(ExperimentSpec):
    """Knobs for E1: the shared corpus shape."""

    corpus: CorpusParams = CorpusParams()

    EXPERIMENT_ID: ClassVar[str] = "E1"
    PRESETS: ClassVar[dict[str, dict]] = {
        "fast": {},
        "full": {"corpus": CorpusParams(**CorpusParams.FULL)},
    }


def run(
    spec: E1Spec | None = None,
    fast: bool | None = None,
    seed: int | None = None,
) -> ExperimentResult:
    """Run E1; see module docstring for the expected shape."""
    spec = resolve_spec(E1Spec, spec, fast, seed)
    aggregates = shared_aggregates_from_config(
        corpus_config_from_params(spec.seed, spec.corpus)
    )
    records = venue_adoption_table_from_counts(
        aggregates.venue_year, aggregates.venue_kinds
    )

    per_venue = Table(
        ["venue", "kind", "papers", "human_share", "early", "late"],
        title="E1a: human-method share per venue (detector output)",
    )
    for record in records:
        per_venue.add_row(
            [
                record["venue_id"],
                record["kind"],
                record["n_papers"],
                record["human_share"],
                record["early_share"],
                record["late_share"],
            ]
        )

    by_kind: dict[str, list[dict]] = {}
    for record in records:
        by_kind.setdefault(record["kind"], []).append(record)
    kind_table = Table(
        ["venue_kind", "n_venues", "mean_human_share"],
        title="E1b: mean human-method share by venue kind",
    )
    kind_means = {}
    for kind in sorted(by_kind):
        rows = by_kind[kind]
        mean_share = sum(r["human_share"] for r in rows) / len(rows)
        kind_means[kind] = mean_share
        kind_table.add_row([kind, len(rows), mean_share])

    # Inference: is the kind/adoption association real, and how wide are
    # the per-kind intervals?
    contingency = []
    kind_totals = {}
    for kind in sorted(by_kind):
        rows = by_kind[kind]
        n_papers = sum(r["n_papers"] for r in rows)
        n_human = sum(round(r["human_share"] * r["n_papers"]) for r in rows)
        kind_totals[kind] = (n_human, n_papers)
        contingency.append([n_human, n_papers - n_human])
    chi = chi_squared_independence(contingency)
    net_human, net_total = kind_totals.get("networking", (0, 1))
    hci_human, hci_total = kind_totals.get("hci", (0, 1))
    gap = two_proportion_test(hci_human, hci_total, net_human, net_total)
    inference = Table(
        ["quantity", "value"], title="E1c: inference", precision=4
    )
    low, high = proportion_confint(net_human, net_total)
    inference.add_row(["networking share 95% CI low", low])
    inference.add_row(["networking share 95% CI high", high])
    inference.add_row(["kind-vs-adoption chi2 p-value", chi["p_value"]])
    inference.add_row(["kind-vs-adoption Cramer's V", chi["cramers_v"]])
    inference.add_row(["hci-vs-networking z", gap["z"]])
    inference.add_row(["hci-vs-networking p-value", gap["p_value"]])

    networking_rows = by_kind.get("networking", [])
    growing = sum(
        1 for r in networking_rows if r["late_share"] >= r["early_share"]
    )
    result = make_result("E1")
    result.tables = [per_venue, kind_table, inference]
    result.checks = {
        "kind_association_significant": chi["p_value"] < 0.01,
        "hci_gap_significant": gap["significant_at_01"],
        "hci_over_networking_5x": (
            kind_means.get("hci", 0.0)
            >= 5.0 * max(kind_means.get("networking", 0.0), 1e-9)
        ),
        "sts_over_networking_5x": (
            kind_means.get("sts", 0.0)
            >= 5.0 * max(kind_means.get("networking", 0.0), 1e-9)
        ),
        "networking_stays_minority": kind_means.get("networking", 0.0) < 0.5,
        "networking_mostly_nondecreasing": (
            not networking_rows or growing >= len(networking_rows) / 2
        ),
    }
    return result
