"""Tests for confidence intervals and result export."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.confidence import (
    ProportionEstimate,
    trials_for_ber_confidence,
    wilson_interval,
    zero_error_ber_bound,
)
from repro.sim.export import (
    campaign_from_dict,
    campaign_to_dict,
    load_campaign,
    save_campaign,
)
from repro.sim.results import BERPoint, CampaignResult


class TestWilson:
    def test_half_and_half(self):
        est = wilson_interval(50, 100)
        assert est.value == 0.5
        assert est.lower < 0.5 < est.upper
        assert est.width < 0.25

    def test_zero_successes_nonzero_upper(self):
        est = wilson_interval(0, 20)
        assert est.value == 0.0
        assert est.lower == 0.0
        assert 0.0 < est.upper < 0.3

    def test_all_successes_nonunit_lower(self):
        est = wilson_interval(20, 20)
        assert est.upper == 1.0
        assert 0.7 < est.lower < 1.0

    def test_more_trials_tighter(self):
        wide = wilson_interval(5, 10)
        narrow = wilson_interval(500, 1000)
        assert narrow.width < wide.width / 5

    def test_higher_confidence_wider(self):
        c90 = wilson_interval(10, 40, confidence=0.90)
        c99 = wilson_interval(10, 40, confidence=0.99)
        assert c99.width > c90.width

    def test_contains(self):
        est = wilson_interval(10, 100)
        assert est.contains(0.1)
        assert not est.contains(0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
        with pytest.raises(ValueError):
            wilson_interval(1, 10, confidence=1.0)

    @given(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=40)
    def test_interval_well_formed(self, k, n):
        if k > n:
            k = n
        est = wilson_interval(k, n)
        assert 0.0 <= est.lower <= est.value <= est.upper <= 1.0


class TestZeroErrorBound:
    def test_rule_of_three(self):
        assert zero_error_ber_bound(1000) == pytest.approx(3.0 / 1000, rel=0.01)

    def test_more_bits_tighter(self):
        assert zero_error_ber_bound(10_000) < zero_error_ber_bound(1_000)

    def test_validation(self):
        with pytest.raises(ValueError):
            zero_error_ber_bound(0)


class TestTrialPlanning:
    def test_ber_1e3_needs_thousands_of_bits(self):
        n = trials_for_ber_confidence(1e-3, relative_precision=0.5)
        assert 10_000 < n < 100_000

    def test_tighter_precision_needs_more(self):
        assert trials_for_ber_confidence(1e-3, 0.1) > trials_for_ber_confidence(
            1e-3, 0.5
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            trials_for_ber_confidence(0.0)


def sample_campaign():
    c = CampaignResult(label="roundtrip")
    c.add(BERPoint(50.0, 0.0, 10, 0.0, 1.0, 1.0, 28.5))
    c.add(BERPoint(400.0, 30.0, 10, 0.5, 0.0, 0.0, -math.inf))
    return c


class TestExport:
    def test_dict_roundtrip(self):
        original = sample_campaign()
        rebuilt = campaign_from_dict(campaign_to_dict(original))
        assert rebuilt.label == original.label
        assert rebuilt.points == original.points

    def test_file_roundtrip(self, tmp_path):
        original = sample_campaign()
        path = tmp_path / "campaign.json"
        save_campaign(original, path)
        rebuilt = load_campaign(path)
        assert rebuilt.points == original.points

    def test_infinities_survive_json(self, tmp_path):
        path = tmp_path / "inf.json"
        save_campaign(sample_campaign(), path)
        text = path.read_text()
        assert "Infinity" not in text  # valid strict JSON
        rebuilt = load_campaign(path)
        assert rebuilt.points[1].mean_snr_db == -math.inf

    def test_record_format_is_pinned(self):
        # Recorded before the records came from dataclasses.fields: the
        # results part of run ids must not move.
        c = CampaignResult(label="fixed")
        c.add(BERPoint(450.0, 30.0, 4, 0.387, 0.25, 0.5, -math.inf))
        assert json.dumps(campaign_to_dict(c)) == (
            '{"schema": 1, "label": "fixed", "points": [{"range_m": 450.0, '
            '"incidence_deg": 30.0, "trials": 4, "ber": 0.387, '
            '"frame_success_rate": 0.25, "detection_rate": 0.5, '
            '"mean_snr_db": null}]}'
        )

    def test_schema_guard(self):
        data = campaign_to_dict(sample_campaign())
        data["schema"] = 99
        with pytest.raises(ValueError):
            campaign_from_dict(data)
