"""Tests for repro.netsim.bgp.scenarios."""

import pytest

from repro.netsim.bgp.scenarios import (
    INCUMBENT_ASN,
    MEGA_IXP_ID,
    build_gravity_scenario,
    build_mandatory_peering_scenario,
    run_gravity_study,
    run_mandatory_peering_study,
)


class TestMandatoryPeeringScenario:
    def test_deterministic(self):
        a = build_mandatory_peering_scenario(seed=7)
        b = build_mandatory_peering_scenario(seed=7)
        assert a.graph.asns() == b.graph.asns()
        assert a.ixp.members == b.ixp.members

    def test_hierarchy_valid(self):
        scenario = build_mandatory_peering_scenario(seed=1)
        assert scenario.graph.validate_hierarchy() == []

    def test_incumbent_dominates_cone(self):
        scenario = build_mandatory_peering_scenario(seed=1)
        incumbent_cone = scenario.graph.customer_cone(INCUMBENT_ASN)
        # Majority of small ISPs default to the incumbent.
        assert len(incumbent_cone) > 10

    def test_demands_are_domestic(self):
        scenario = build_mandatory_peering_scenario(seed=1)
        for demand in scenario.demands:
            assert scenario.graph.get(demand.src).country == "MX"
            assert scenario.graph.get(demand.dst).country == "MX"

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_mandatory_peering_scenario(incumbent_customer_share=1.5)
        with pytest.raises(ValueError):
            build_mandatory_peering_scenario(ixp_membership_rate=-0.1)

    def test_declared_small_isp_maximum_builds(self):
        # The 91st small ISP used to land on the tier-1's AS100.
        from dataclasses import fields

        from repro.experiments.registry import spec_class

        maxima = {
            f.metadata["repro.spec"]["maximum"]
            for experiment_id in ("E6", "E12")
            for f in fields(spec_class(experiment_id))
            if f.name == "n_small_isps"
        }
        assert maxima
        for n in sorted({91} | maxima):
            scenario = build_mandatory_peering_scenario(n_small_isps=n, seed=0)
            assert len(scenario.graph.asns()) == n + 3
            assert scenario.graph.validate_hierarchy() == []

    def test_small_isp_asns_unchanged_below_the_tier1(self):
        scenario = build_mandatory_peering_scenario(n_small_isps=91, seed=0)
        small = [a for a in scenario.graph.asns() if a not in (1, 2, 100)]
        assert small == list(range(10, 100)) + [101]


class TestMandatoryPeeringStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_mandatory_peering_study(n_small_isps=20, seed=0)

    def test_all_variants_present(self, study):
        assert set(study) == {
            "no_regulation", "honest_compliance",
            "asn_split_evasion", "org_enforcement",
        }

    def test_honesty_beats_no_regulation(self, study):
        assert (
            study["honest_compliance"]["local_share"]
            > study["no_regulation"]["local_share"]
        )

    def test_evasion_matches_no_regulation_traffic(self, study):
        assert study["asn_split_evasion"]["local_share"] == pytest.approx(
            study["no_regulation"]["local_share"], abs=1e-9
        )

    def test_evasion_compliance_gap(self, study):
        evasion = study["asn_split_evasion"]
        assert evasion["compliant_asn_level"]
        assert not evasion["compliant_org_level"]

    def test_org_enforcement_restores_honest_outcome(self, study):
        assert study["org_enforcement"]["local_share"] == pytest.approx(
            study["honest_compliance"]["local_share"], abs=1e-9
        )


class TestGravityScenario:
    def test_deterministic(self):
        a = build_gravity_scenario(seed=3)
        b = build_gravity_scenario(seed=3)
        assert a.graph.asns() == b.graph.asns()

    def test_pop_count_scales_with_presence(self):
        none = build_gravity_scenario(content_pop_presence=0.0, seed=0)
        full = build_gravity_scenario(content_pop_presence=1.0, seed=0)
        assert len(none.graph.ases_of_org("bigtech")) == 1
        assert len(full.graph.ases_of_org("bigtech")) == 1 + len(full.local_ixps)

    def test_hierarchy_valid(self):
        scenario = build_gravity_scenario(seed=0)
        assert scenario.graph.validate_hierarchy() == []

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_gravity_scenario(content_pop_presence=2.0)


class TestGravityStudy:
    @pytest.fixture(scope="class")
    def records(self):
        return run_gravity_study(n_eyeballs=15, seed=0)

    def test_domestic_content_monotone(self, records):
        series = [r["content_served_domestically"] for r in records]
        assert series[0] == 0.0
        assert all(a <= b + 1e-9 for a, b in zip(series, series[1:]))

    def test_mega_gravity_falls(self, records):
        assert records[0]["mega_gravity_ratio"] > records[-1]["mega_gravity_ratio"]

    def test_mega_dominates_without_pops(self, records):
        assert records[0]["mega_gravity_ratio"] > 0.5
