"""Micro-benchmarks for the library's hot primitives.

The end-to-end benchmark (``benchmarks/e2e/``) times whole studies;
these time the individual kernels they are built from, so a
performance regression can be localized.  The scanner and tf-idf kernels also
append a row to the bench ledger through the *same* fixed-workload
runners ``repro bench run`` uses, so `repro bench gate` sees them no
matter which entry point did the measuring.
"""

import random
import sys
from pathlib import Path

from _harness import LEDGER_PATH

from repro.bench.hotpaths import run_hot_path
from repro.bench.ledger import append_entries
from repro.bibliometrics.methods_detect import (
    METHOD_FAMILIES,
    LexiconScanner,
    detect_methods,
)
from repro.netsim.bgp.asys import AS, ASGraph
from repro.netsim.bgp.routing import propagate_routes
from repro.netsim.community.congestion import CprAllocator, allocate_maxmin
from repro.qualcoding.agreement import cohens_kappa, krippendorff_alpha
from repro.textmine.tfidf import TfidfVectorizer

# The multipass oracle lives with the tests; make the repo root importable
# however pytest was started.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.lexicon_oracle import detect_multipass  # noqa: E402

_RNG = random.Random(0)

_ABSTRACT = (
    "This paper studies peering policies and the practices surrounding "
    "them. We conducted semi-structured interviews with 24 operators and "
    "complement the findings with a measurement study spanning 12 months "
    "of packet traces collected from 9 vantage points. A testbed "
    "deployment validates the design. "
) * 4

_DOCS = [
    " ".join(
        _RNG.choice(
            ("mesh", "community", "network", "peering", "transit", "ixp",
             "backhaul", "datacenter", "latency", "operator")
        )
        for _ in range(120)
    )
    for _ in range(200)
]

_LABELS_A = [_RNG.choice("abc") for _ in range(5000)]
_LABELS_B = [
    label if _RNG.random() > 0.15 else _RNG.choice("abc")
    for label in _LABELS_A
]


def _transit_hierarchy(n_stubs=120):
    graph = ASGraph()
    graph.add_as(AS(1))
    graph.add_as(AS(2))
    graph.add_as(AS(3))
    graph.add_peering(1, 2)
    graph.add_customer(provider=1, customer=3)
    for i in range(n_stubs):
        asn = 100 + i
        graph.add_as(AS(asn))
        graph.add_customer(provider=(1, 2, 3)[i % 3], customer=asn)
    return graph


def test_method_detection_speed(benchmark):
    mentions = benchmark(detect_methods, _ABSTRACT)
    assert mentions


def test_method_detection_multipass_reference(benchmark):
    """Per-family ``finditer`` oracle the single-pass scanner replaced.

    Kept as a benchmark so the single-pass speedup stays measurable:
    ``test_method_detection_speed`` should run at least ~3x faster than
    this reference on the same text.
    """
    scanner = LexiconScanner(METHOD_FAMILIES)
    mentions = benchmark(detect_multipass, scanner, _ABSTRACT)
    assert mentions == detect_methods(_ABSTRACT)


def test_tfidf_fit_transform_speed(benchmark):
    matrix = benchmark(lambda: TfidfVectorizer().fit_transform(_DOCS))
    assert matrix.shape[0] == len(_DOCS)


def test_cohens_kappa_speed(benchmark):
    kappa = benchmark(cohens_kappa, _LABELS_A, _LABELS_B)
    assert 0.5 < kappa <= 1.0


def test_krippendorff_alpha_speed(benchmark):
    rows = list(zip(_LABELS_A, _LABELS_B))
    alpha = benchmark(krippendorff_alpha, rows)
    assert 0.5 < alpha <= 1.0


def test_route_propagation_speed(benchmark):
    graph = _transit_hierarchy()
    table = benchmark(propagate_routes, graph)
    assert table.full_path(100, 101) is not None


def test_maxmin_allocation_speed(benchmark):
    demands = [_RNG.uniform(0.1, 10.0) for _ in range(200)]
    result = benchmark(allocate_maxmin, demands, 300.0)
    assert result.utilization > 0


def test_cpr_allocation_speed(benchmark):
    demands = [_RNG.uniform(0.1, 10.0) for _ in range(200)]

    def run():
        allocator = CprAllocator()
        for _ in range(10):
            allocator.allocate(demands, 300.0)
        return allocator

    allocator = benchmark(run)
    assert allocator is not None


def test_hot_path_ledger_append():
    """Record the scanner and tf-idf hot paths in the bench ledger."""
    entries = run_hot_path("scanner") + run_hot_path("tfidf")
    assert append_entries(LEDGER_PATH, entries) == len(entries)
    for entry in entries:
        assert entry["value"] > 0
