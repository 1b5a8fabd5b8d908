"""E2: positionality-statement prevalence by venue kind.

Claim (paper §4): positionality statements — authors situating their
identities, locations, beliefs, and community ties — are conventional
in feminist-STS-informed venues and essentially absent from networking
venues.

Shape expected: detected prevalence under 2% at networking venues and
double-digit percent at HCI/STS venues; the extractor's precision and
recall against the generator's ground truth both above 0.9 (it is a
rule-based extractor over rule-generated text — this check guards the
pipeline, not linguistics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.experiments._corpus import (
    corpus_config_from_params,
    shared_aggregates_from_config,
)
from repro.experiments.registry import ExperimentResult, make_result
from repro.experiments.spec import CorpusParams, ExperimentSpec, resolve_spec
from repro.io.tables import Table


@dataclass(frozen=True)
class E2Spec(ExperimentSpec):
    """Knobs for E2: the shared corpus shape."""

    corpus: CorpusParams = CorpusParams()

    EXPERIMENT_ID: ClassVar[str] = "E2"
    PRESETS: ClassVar[dict[str, dict]] = {
        "fast": {},
        "full": {"corpus": CorpusParams(**CorpusParams.FULL)},
    }


def run(
    spec: E2Spec | None = None,
    fast: bool | None = None,
    seed: int | None = None,
) -> ExperimentResult:
    """Run E2; see module docstring for the expected shape."""
    spec = resolve_spec(E2Spec, spec, fast, seed)
    aggregates = shared_aggregates_from_config(
        corpus_config_from_params(spec.seed, spec.corpus)
    )

    # Per-kind papers/detected/truth plus the global confusion totals,
    # folded from the per-(venue, year) integer cells.
    per_kind: dict[str, dict[str, int]] = {}
    true_positive = false_positive = false_negative = 0
    for (venue_id, _year), cells in aggregates.positionality.items():
        kind = aggregates.venue_kinds[venue_id]
        bucket = per_kind.setdefault(
            kind, {"papers": 0, "detected": 0, "truth": 0}
        )
        bucket["papers"] += cells["papers"]
        bucket["detected"] += cells["detected"]
        bucket["truth"] += cells["truth"]
        true_positive += cells["tp"]
        false_positive += cells["fp"]
        false_negative += cells["fn"]

    table = Table(
        ["venue_kind", "papers", "detected_share", "truth_share"],
        title="E2a: positionality prevalence by venue kind",
    )
    shares = {}
    for kind in sorted(per_kind):
        bucket = per_kind[kind]
        detected_share = bucket["detected"] / bucket["papers"]
        shares[kind] = detected_share
        table.add_row(
            [
                kind,
                bucket["papers"],
                detected_share,
                bucket["truth"] / bucket["papers"],
            ]
        )

    precision = (
        true_positive / (true_positive + false_positive)
        if (true_positive + false_positive)
        else 1.0
    )
    recall = (
        true_positive / (true_positive + false_negative)
        if (true_positive + false_negative)
        else 1.0
    )
    detector_table = Table(
        ["metric", "value"], title="E2b: extractor accuracy vs ground truth"
    )
    detector_table.add_row(["precision", precision])
    detector_table.add_row(["recall", recall])

    result = make_result("E2")
    result.tables = [table, detector_table]
    result.checks = {
        "networking_below_2pct": shares.get("networking", 0.0) < 0.02,
        "hci_double_digit": shares.get("hci", 0.0) >= 0.10,
        "sts_double_digit": shares.get("sts", 0.0) >= 0.10,
        "precision_above_0.9": precision > 0.9,
        "recall_above_0.9": recall > 0.9,
    }
    return result
