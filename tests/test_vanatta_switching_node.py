"""Tests for the modulation switch, reflection operator, node, and scaling."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.placement import Pose
from repro.geometry.vec3 import Vec3
from repro.vanatta.array import VanAttaArray
from repro.vanatta.node import VanAttaNode
from repro.vanatta.polarity import PairingScheme
from repro.vanatta.reflection import reflect_waveform
from repro.vanatta.retrodirective import monostatic_gain
from repro.vanatta.scaling import (
    aperture_m,
    gain_improvement_db,
    grating_lobe_free,
    peak_gain_db,
    recommended_spacing,
)
from repro.vanatta.switching import ModulationSwitch, chips_to_waveform

F = 18_500.0


class TestSwitch:
    def test_default_depth_high(self):
        assert ModulationSwitch().modulation_depth > 0.85

    def test_amplitudes_ordered(self):
        s = ModulationSwitch()
        assert 0.0 < s.off_amplitude < s.on_amplitude <= 1.0

    def test_more_isolation_more_depth(self):
        weak = ModulationSwitch(off_isolation_db=3.0)
        strong = ModulationSwitch(off_isolation_db=30.0)
        assert strong.modulation_depth > weak.modulation_depth

    def test_max_chip_rate(self):
        s = ModulationSwitch(transition_time_s=20e-6)
        assert s.max_chip_rate_hz(0.2) == pytest.approx(10_000.0)

    def test_instant_switch_unbounded_rate(self):
        assert ModulationSwitch(transition_time_s=0.0).max_chip_rate_hz() == math.inf

    def test_switching_power(self):
        s = ModulationSwitch(gate_energy_j=2e-9)
        assert s.switching_power_w(1000.0) == pytest.approx(2e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModulationSwitch(insertion_loss_db=-1.0)
        with pytest.raises(ValueError):
            ModulationSwitch().max_chip_rate_hz(settle_fraction=2.0)


class TestChipWaveform:
    def test_levels(self):
        s = ModulationSwitch()
        w = chips_to_waveform([1, 0, 1], samples_per_chip=4, switch=s)
        assert len(w) == 12
        np.testing.assert_allclose(w[:4], s.on_amplitude)
        np.testing.assert_allclose(w[4:8], s.off_amplitude)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            chips_to_waveform([0, 2], 4, ModulationSwitch())

    def test_rejects_bad_sps(self):
        with pytest.raises(ValueError):
            chips_to_waveform([1], 0, ModulationSwitch())

    def test_transition_shaping_smooths(self):
        s = ModulationSwitch(transition_time_s=1e-3)
        fs = 16_000.0
        sharp = chips_to_waveform([0, 1, 0], 16, s)
        smooth = chips_to_waveform([0, 1, 0], 16, s, fs=fs)
        # Shaped waveform has intermediate values at the transition.
        assert np.any((smooth > s.off_amplitude + 1e-6) & (smooth < s.on_amplitude - 1e-6))
        assert not np.any((sharp > s.off_amplitude + 1e-6) & (sharp < s.on_amplitude - 1e-6))

    def test_empty_chips(self):
        assert len(chips_to_waveform([], 8, ModulationSwitch())) == 0


class TestReflectWaveform:
    def test_applies_array_gain_and_modulation(self):
        arr = VanAttaArray.uniform(4, frequency_hz=F, sound_speed=1500.0)
        incident = np.ones(32, dtype=complex)
        modulation = np.concatenate([np.ones(16), np.zeros(16)])
        out = reflect_waveform(incident, modulation, arr, F, 0.0, 1500.0)
        g = monostatic_gain(arr, F, 0.0, 1500.0)
        np.testing.assert_allclose(out[:16], g)
        np.testing.assert_allclose(out[16:], 0.0)

    def test_gain_memo_keys_on_the_array_value(self):
        # The monostatic gain is memoized by value: an equal array shares
        # it, and a change to any field, or an in-place edit of the
        # positions, gets its own.
        base = VanAttaArray.uniform(4, frequency_hz=F)
        edited = dataclasses.replace(base, positions_m=base.positions_m.copy())
        variants = [
            base,
            VanAttaArray.uniform(4, frequency_hz=F),
            dataclasses.replace(base, line_loss_db=3.0),
            dataclasses.replace(base, line_phase_rad=0.4),
            dataclasses.replace(base, pairing=PairingScheme.DIRECT),
            edited,
        ]

        def reflected_gain(arr):
            out = reflect_waveform(
                np.ones(1, dtype=complex), np.ones(1), arr, F, 20.0
            )
            assert out[0] == monostatic_gain(arr, F, 20.0)
            return out[0]

        gains = [reflected_gain(arr) for arr in variants]
        edited.positions_m[0] += 0.01
        gains.append(reflected_gain(edited))
        assert len(set(gains)) == 5

    def test_short_modulation_padded_with_hold(self):
        arr = VanAttaArray.uniform(2, frequency_hz=F)
        incident = np.ones(10, dtype=complex)
        out = reflect_waveform(incident, np.array([0.5]), arr, F, 0.0)
        assert len(out) == 10
        assert np.allclose(np.abs(out), np.abs(out[0]))

    def test_long_modulation_truncated(self):
        arr = VanAttaArray.uniform(2, frequency_hz=F)
        incident = np.ones(4, dtype=complex)
        out = reflect_waveform(incident, np.ones(100), arr, F, 0.0)
        assert len(out) == 4


class TestNode:
    def test_defaults(self):
        node = VanAttaNode()
        assert node.array.num_elements == 4
        assert node.node_id == 1

    def test_modulation_waveform_delegates(self):
        node = VanAttaNode()
        w = node.modulation_waveform([1, 0], samples_per_chip=8)
        assert len(w) == 16

    def test_reflect_round_trip_scale(self):
        node = VanAttaNode()
        incident = np.ones(8, dtype=complex) * 2.0
        mod = np.ones(8)
        out = node.reflect(incident, mod, F, 0.0)
        expected = 2.0 * abs(monostatic_gain(node.array, F, 0.0))
        assert abs(out[0]) == pytest.approx(expected)

    def test_power_sustainability_monotone_in_level(self):
        node = VanAttaNode()
        assert node.is_power_sustainable(178.0, F)
        assert not node.is_power_sustainable(100.0, F)

    def test_average_power_includes_gate_drive(self):
        node = VanAttaNode()
        assert node.average_power_w(1000.0) > node.budget.average_power_w(1000.0)

    def test_pose_default_origin(self):
        assert VanAttaNode().pose.position == Vec3.zero()

    def test_custom_pose(self):
        node = VanAttaNode(pose=Pose(Vec3(10, 0, 3), 180.0))
        assert node.pose.position.x == 10


class TestScaling:
    def test_peak_gain_db(self):
        assert peak_gain_db(1) == 0.0
        assert peak_gain_db(2) == pytest.approx(6.02, abs=0.01)
        assert peak_gain_db(4) == pytest.approx(12.04, abs=0.01)

    def test_doubling_buys_6db(self):
        assert gain_improvement_db(2, 4) == pytest.approx(6.02, abs=0.01)

    def test_aperture(self):
        assert aperture_m(4, 0.04) == pytest.approx(0.12)

    def test_recommended_spacing_is_half_wavelength(self):
        assert recommended_spacing(18_500.0, 1480.0) == pytest.approx(0.04)

    def test_grating_lobe_condition(self):
        lam = 1500.0 / F
        assert grating_lobe_free(lam * 0.5, F)
        assert not grating_lobe_free(lam * 1.2, F)

    def test_validation(self):
        with pytest.raises(ValueError):
            peak_gain_db(0)
        with pytest.raises(ValueError):
            aperture_m(2, 0.0)
        with pytest.raises(ValueError):
            recommended_spacing(0.0)

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=20)
    def test_gain_monotonic_in_n(self, n):
        assert peak_gain_db(n + 1) > peak_gain_db(n)
