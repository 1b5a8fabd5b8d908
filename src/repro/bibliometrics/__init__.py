"""Bibliometric analysis of research communities.

The paper claims that human-centered methods are peripheral in
networking venues, that research agendas mirror the priorities of
dominant players, and that positionality statements are virtually absent
from networking papers (Sections 1, 4, 6.3, 6.4).  Testing such claims
requires a publication corpus; with no network access or scraped data
available in this environment, this package pairs a complete corpus
data model and analysis toolkit with a **calibrated synthetic corpus
generator** (see DESIGN.md, substitution table).  Every analysis code
path — detection, trends, concentration — is identical to what would run
over a scraped corpus.

Modules:

- :mod:`repro.bibliometrics.corpus` -- papers, authors, venues, and
  ``Corpus``, the one Paper-level corpus API.
- :mod:`repro.bibliometrics.columnar` -- sharded columnar storage;
  ``ColumnarCorpus.to_corpus()`` is its one bridge to ``Corpus``.
- :mod:`repro.bibliometrics.synthgen` -- synthetic corpus calibration.
- :mod:`repro.bibliometrics.shardgen` -- synthetic corpus generator.
- :mod:`repro.bibliometrics.shardscan` -- per-shard scan into
  associative aggregates.
- :mod:`repro.bibliometrics.methods_detect` -- method-mention detection.
- :mod:`repro.bibliometrics.networks` -- coauthorship/citation graphs.
- :mod:`repro.bibliometrics.metrics` -- concentration and diversity indices.
- :mod:`repro.bibliometrics.trends` -- adoption time series.
"""

from repro.bibliometrics.corpus import Author, Paper, Venue, Corpus
from repro.bibliometrics.synthgen import VenueProfile, default_venue_profiles
from repro.bibliometrics.methods_detect import (
    METHOD_FAMILIES,
    MethodMention,
    detect_methods,
    classify_paper,
    uses_human_methods,
)
from repro.bibliometrics.networks import (
    coauthorship_graph,
    citation_graph,
    collaboration_stats,
)
from repro.bibliometrics.metrics import (
    gini,
    lorenz_curve,
    hhi,
    shannon_diversity,
    top_k_share,
    h_index,
)
from repro.bibliometrics.trends import adoption_series, venue_adoption_table
from repro.bibliometrics.statistics import (
    proportion_confint,
    two_proportion_test,
    chi_squared_independence,
    bootstrap_mean_ci,
)
from repro.bibliometrics.demographics import (
    newcomer_share,
    author_retention,
    sector_mix,
    region_mix,
    gatekeeping_index,
    room_report,
)

__all__ = [
    "Author",
    "Paper",
    "Venue",
    "Corpus",
    "VenueProfile",
    "default_venue_profiles",
    "METHOD_FAMILIES",
    "MethodMention",
    "detect_methods",
    "classify_paper",
    "uses_human_methods",
    "coauthorship_graph",
    "citation_graph",
    "collaboration_stats",
    "gini",
    "lorenz_curve",
    "hhi",
    "shannon_diversity",
    "top_k_share",
    "h_index",
    "adoption_series",
    "venue_adoption_table",
    "proportion_confint",
    "two_proportion_test",
    "chi_squared_independence",
    "bootstrap_mean_ci",
    "newcomer_share",
    "author_retention",
    "sector_mix",
    "region_mix",
    "gatekeeping_index",
    "room_report",
]
