"""Cross-module integration tests.

Each test exercises a realistic end-to-end workflow spanning several
packages, the way the examples do.
"""

import pytest

from repro.core.ethnography import FieldNote, FieldSite, FieldworkPlan
from repro.core.positionality import extract_statements
from repro.ethics.anonymize import Pseudonymizer, scrub_quasi_identifiers
from repro.ethics.consent import ConsentRegistry
from repro.qualcoding.agreement import compare_raters
from repro.qualcoding.codebook import Codebook
from repro.qualcoding.segments import CodingSession
from repro.qualcoding.themes import extract_themes


class TestFieldworkToCodingPipeline:
    """Field notes -> documents -> coding -> reliability -> themes."""

    @pytest.fixture
    def coded_study(self):
        plan = FieldworkPlan("community-study")
        plan.add_site(FieldSite("village", "the deployment site"))
        plan.schedule_visit("village", 0, 30)
        notes = [
            "The tower went down again; parts take a season to arrive and "
            "the cost of spares eats the budget.",
            "Maintenance volunteers are exhausted; the cost of travel to "
            "the tower is a burden.",
            "Residents trust the local operator; costs remain the worry.",
            "A storm took the backhaul; maintenance crews responded fast.",
        ]
        for i, text in enumerate(notes):
            plan.record_note(FieldNote(f"note-{i}", "village", i, text))

        book = Codebook("community")
        book.add("cost", "Money-related burdens")
        book.add("maintenance", "Repair and upkeep work")
        book.add("trust", "Trust in operators")
        session = CodingSession(book)
        for document in plan.documents():
            session.add_document(document)

        # Two raters code by simple keyword rules (deterministic).
        rules = {
            "cost": ("cost", "budget"),
            "maintenance": ("maintenance", "parts", "repair"),
            "trust": ("trust",),
        }
        for rater, fuzz in (("r1", ()), ("r2", ("trust",))):
            for document in plan.documents():
                lowered = document.text.lower()
                for code, keywords in rules.items():
                    if code in fuzz:
                        continue  # r2 never applies "trust" (disagreement)
                    if any(k in lowered for k in keywords):
                        session.code(document.doc_id, code, 0, 10, rater=rater)
        return session

    def test_reliability_battery_runs(self, coded_study):
        reports = {r.code: r for r in compare_raters(coded_study)}
        assert reports["cost"].kappa == pytest.approx(1.0)
        assert reports["maintenance"].kappa == pytest.approx(1.0)
        assert reports["trust"].percent < 1.0

    def test_themes_emerge_from_codes(self, coded_study):
        themes = extract_themes(coded_study, min_cooccurrence=2, rater="r1")
        assert themes
        assert "cost" in themes[0].codes


class TestConsentGatedQuoting:
    """Consent registry gates which quotes reach publication."""

    def test_withdrawn_participant_quotes_blocked(self):
        registry = ConsentRegistry()
        registry.grant("op-1", {"interview", "publication-quote"}, now=0)
        registry.grant("op-2", {"interview"}, now=0)

        quotes = {
            "op-1": "the network dies every harvest",
            "op-2": "we route around the incumbent",
        }
        publishable = {
            pid: quote
            for pid, quote in quotes.items()
            if registry.check(pid, "publication-quote", now=5)
        }
        assert list(publishable) == ["op-1"]

        registry.withdraw("op-1", now=6)
        still_publishable = [
            pid for pid in quotes
            if registry.check(pid, "publication-quote", now=7)
        ]
        assert still_publishable == []

    def test_anonymization_before_publication(self):
        pseudonymizer = Pseudonymizer("study-key")
        raw = (
            "Maria Lopez (maria@coop.example) of AS64500 said the uplink "
            "at 203.0.113.9 flaps."
        )
        text = pseudonymizer.apply(raw, ["Maria Lopez"])
        text = scrub_quasi_identifiers(text)
        assert "Maria" not in text
        assert "@" not in text
        assert "AS64500" not in text
        assert "203.0.113.9" not in text


class TestCorpusPositionalityPipeline:
    """Synthetic corpus -> extractor, cross-package consistency."""

    def test_generated_statements_are_extractable(self):
        from tests.synthgen_oracle import SyntheticCorpusConfig, generate_corpus

        corpus, truth = generate_corpus(
            SyntheticCorpusConfig(start_year=2022, end_year=2023, seed=9,
                                  authors_per_venue_pool=20)
        )
        hits = 0
        for paper_id in sorted(truth.positionality)[:20]:
            statements = extract_statements(corpus.paper(paper_id).full_text)
            if statements and statements[0].disclosed_facets():
                hits += 1
        checked = min(20, len(truth.positionality))
        assert checked > 0
        assert hits == checked


class TestInterconnectionRoundTrip:
    """Graph -> routes -> traffic -> report -> JSONL persistence."""

    def test_report_persists_and_reloads(self, tmp_path):
        from repro.io.jsonl import read_jsonl, write_jsonl
        from repro.netsim.bgp.scenarios import run_mandatory_peering_study

        results = run_mandatory_peering_study(n_small_isps=12, seed=2)
        records = [
            {"variant": variant, **{k: v for k, v in record.items()
                                    if k != "ixp_volumes"}}
            for variant, record in results.items()
        ]
        path = tmp_path / "e6.jsonl"
        write_jsonl(path, records)
        reloaded = list(read_jsonl(path))
        assert len(reloaded) == 4
        by_variant = {r["variant"]: r for r in reloaded}
        assert by_variant["asn_split_evasion"]["compliant_asn_level"] is True
