"""Tests for scenarios and the analytic link budget."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.pab import pab_link_budget
from repro.core import Scenario, default_vab_budget
from repro.phy.ber import required_snr_db
from repro.sim.linkbudget import LinkBudget
from repro.sim.sweep import linear_angles, log_ranges, sweep_angles, sweep_range
from repro.vanatta.array import VanAttaArray


class TestScenario:
    def test_river_preset_fresh_and_calm(self):
        sc = Scenario.river()
        assert sc.water.salinity_ppt < 1.0
        assert sc.surface.rms_height_m == 0.0
        assert sc.name == "river"

    def test_ocean_preset_salty_and_wavy(self):
        sc = Scenario.ocean(sea_state=4)
        assert sc.water.salinity_ppt > 30.0
        assert sc.surface.rms_height_m > 0.1
        assert "ss4" in sc.name

    def test_range_property(self):
        assert Scenario.river(range_m=123.0).range_m == pytest.approx(123.0)

    def test_at_range_moves_node(self):
        sc = Scenario.river(range_m=50.0).at_range(200.0)
        assert sc.range_m == pytest.approx(200.0)
        with pytest.raises(ValueError):
            sc.at_range(0.0)

    def test_incidence_default_zero(self):
        assert Scenario.river().incidence_deg == pytest.approx(0.0, abs=1e-9)

    def test_with_node_rotation(self):
        sc = Scenario.river().with_node_rotation(30.0)
        assert sc.incidence_deg == pytest.approx(30.0, abs=1e-9)

    def test_fs_is_chip_rate_times_sps(self):
        sc = Scenario.river()
        assert sc.fs == sc.chip_rate * sc.samples_per_chip

    def test_channel_factory_uses_environment(self):
        sc = Scenario.ocean(sea_state=3)
        ch = sc.channel()
        assert ch.water is sc.water
        assert ch.surface is sc.surface
        # The ocean preset traces the direct path only: no surface tap.
        assert len(ch.between(sc.reader.position, sc.node.position).paths) == 1

    def test_wavelength(self):
        sc = Scenario.river()
        assert sc.carrier_wavelength() == pytest.approx(
            sc.water.sound_speed / sc.carrier_hz
        )


class TestSweeps:
    def test_sweep_range(self):
        scenarios = sweep_range(Scenario.river(), [10, 50, 100])
        assert [s.range_m for s in scenarios] == [10, 50, 100]

    def test_sweep_angles(self):
        scenarios = sweep_angles(Scenario.river(), [-30, 0, 30])
        angles = [s.incidence_deg for s in scenarios]
        assert angles == pytest.approx([30, 0, 30], abs=1e-9)

    def test_log_ranges(self):
        r = log_ranges(10.0, 1000.0, 3)
        assert r[0] == pytest.approx(10.0)
        assert r[1] == pytest.approx(100.0)
        assert r[2] == pytest.approx(1000.0)
        with pytest.raises(ValueError):
            log_ranges(10.0, 5.0, 3)

    def test_linear_angles_symmetric(self):
        a = linear_angles(60.0, 15.0)
        assert list(a) == [-60, -45, -30, -15, 0, 15, 30, 45, 60]


class TestLinkBudget:
    def test_snr_decreases_with_range(self):
        b = default_vab_budget(Scenario.river())
        assert b.snr_db(50.0) > b.snr_db(100.0) > b.snr_db(300.0)

    def test_ber_increases_with_range(self):
        b = default_vab_budget(Scenario.river())
        assert b.ber(100.0) < b.ber(400.0) <= 0.5 + 1e-9

    def test_max_range_consistent_with_snr(self):
        b = default_vab_budget(Scenario.river())
        r = b.max_range_m(1e-3)
        need = required_snr_db(1e-3, coherent=True)
        assert b.snr_db(r) == pytest.approx(need, abs=0.1)

    def test_headline_river_range(self):
        """The paper's headline: >300 m at BER 1e-3 in the river."""
        b = default_vab_budget(Scenario.river())
        assert b.max_range_m(1e-3) > 300.0

    def test_headline_15x_over_pab(self):
        """The paper's head-to-head: ~15x range over the prior SOTA."""
        sc = Scenario.river()
        vab = default_vab_budget(sc).max_range_m(1e-3)
        pab = pab_link_budget(sc).max_range_m(1e-3)
        assert 10.0 < vab / pab < 22.0

    def test_ocean_range_shorter_but_usable(self):
        river = default_vab_budget(Scenario.river()).max_range_m(1e-3)
        ocean = default_vab_budget(Scenario.ocean(sea_state=3)).max_range_m(1e-3)
        assert 100.0 < ocean < river

    def test_array_gain_drives_range(self):
        sc = Scenario.river()
        small = default_vab_budget(sc, num_elements=2).max_range_m(1e-3)
        large = default_vab_budget(sc, num_elements=8).max_range_m(1e-3)
        assert large > small

    def test_orientation_reduces_range_mildly(self):
        sc = Scenario.river()
        head_on = default_vab_budget(sc, theta_deg=0.0).max_range_m(1e-3)
        oblique = default_vab_budget(sc, theta_deg=45.0).max_range_m(1e-3)
        assert head_on * 0.5 < oblique < head_on

    def test_si_floor_caps_pab(self):
        sc = Scenario.river()
        pab = pab_link_budget(sc)
        assert pab.noise_level_in_band_db() > pab.ambient_noise_db() + 10.0

    def test_no_si_means_ambient_limited(self):
        b = default_vab_budget(Scenario.river()).with_(si_suppression_db=None)
        assert b.noise_level_in_band_db() == pytest.approx(b.ambient_noise_db())

    def test_reflection_gain_terms(self):
        b = LinkBudget(scenario=Scenario.river(), array_gain_db=12.0,
                       modulation_depth=1.0, node_loss_db=0.0)
        # depth 1 -> 20log10(0.5) = -6.02 on top of the array gain.
        assert b.reflection_gain_db() == pytest.approx(12.0 - 6.02, abs=0.01)

    def test_processing_gain_fm0(self):
        b = default_vab_budget(Scenario.river())
        assert b.processing_gain_db() == pytest.approx(10 * math.log10(2.0))

    def test_margin_sign(self):
        b = default_vab_budget(Scenario.river())
        r = b.max_range_m(1e-3)
        assert b.margin_db(r * 0.5) > 0.0
        assert b.margin_db(r * 2.0) < 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkBudget(scenario=Scenario.river(), modulation_depth=0.0)
        with pytest.raises(ValueError):
            LinkBudget(scenario=Scenario.river(), chips_per_bit=0)

    def test_for_array_matches_default(self):
        sc = Scenario.river()
        arr = VanAttaArray.uniform(
            4, frequency_hz=sc.carrier_hz, sound_speed=sc.water.sound_speed
        )
        a = LinkBudget.for_array(sc, arr)
        b = default_vab_budget(sc, num_elements=4)
        assert a.array_gain_db == pytest.approx(b.array_gain_db, abs=1e-9)

    @given(st.floats(min_value=5.0, max_value=2000.0))
    @settings(max_examples=25)
    def test_snr_finite_everywhere(self, r):
        b = default_vab_budget(Scenario.river())
        assert math.isfinite(b.snr_db(r))
