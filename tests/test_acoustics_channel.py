"""Tests for the time-domain channel application."""

import math

import numpy as np
import pytest

from repro.acoustics.channel import AcousticChannel, ChannelResponse
from repro.acoustics.constants import WaterProperties
from repro.acoustics.propagation import Path
from repro.acoustics.surface import SeaSurface
from repro.geometry.vec3 import Vec3

F = 18_500.0


def make_channel(**kwargs):
    return AcousticChannel(carrier_hz=F, water=WaterProperties.river(), **kwargs)


def single_tap_response(gain=0.5 + 0.0j, delay=0.01):
    path = Path(
        length_m=delay * 1476.0,
        delay_s=delay,
        gain=gain,
        surface_bounces=0,
        bottom_bounces=0,
        departure_deg=0.0,
        arrival_deg=0.0,
    )
    return ChannelResponse(paths=[path], carrier_hz=F)


class TestChannelResponse:
    def test_needs_at_least_one_path(self):
        with pytest.raises(ValueError):
            ChannelResponse(paths=[], carrier_hz=F)

    def test_total_gain_single_tap(self):
        h = single_tap_response(gain=0.25 + 0j)
        assert h.total_gain() == pytest.approx(0.25)
        assert h.total_gain_db() == pytest.approx(20 * math.log10(0.25))

    def test_delay_spread_zero_for_single_tap(self):
        assert single_tap_response().rms_delay_spread() == 0.0
        assert single_tap_response().coherence_bandwidth_hz() == math.inf

    def test_delay_spread_two_taps(self):
        p1 = Path(15.0, 0.01, 1.0 + 0j, 0, 0, 0.0, 0.0)
        p2 = Path(30.0, 0.02, 1.0 + 0j, 1, 0, 0.0, 0.0)
        h = ChannelResponse(paths=[p1, p2], carrier_hz=F)
        # Equal powers at +-5 ms around the mean: RMS spread is 5 ms.
        assert h.rms_delay_spread() == pytest.approx(5e-3)

    def test_apply_scales_signal(self):
        h = single_tap_response(gain=0.5 + 0j)
        x = np.ones(64, dtype=complex)
        y = h.apply(x, fs=8000.0)
        # Steady-state samples scaled by the tap gain.
        np.testing.assert_allclose(y[:64], 0.5 * x, rtol=1e-12)

    def test_apply_relative_delay_alignment(self):
        """With include_delay=False the direct tap lands at sample 0."""
        h = single_tap_response(gain=1.0 + 0j, delay=0.05)
        x = np.zeros(32, dtype=complex)
        x[0] = 1.0
        y = h.apply(x, fs=8000.0)
        assert abs(y[0]) == pytest.approx(1.0)

    def test_apply_absolute_delay(self):
        fs = 8000.0
        delay = 0.01  # exactly 80 samples
        h = single_tap_response(gain=1.0 + 0j, delay=delay)
        x = np.zeros(16, dtype=complex)
        x[0] = 1.0
        y = h.apply(x, fs, include_delay=True)
        assert abs(y[80]) == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(y[:80], 0.0)

    def test_fractional_delay_splits_energy(self):
        fs = 8000.0
        h = single_tap_response(gain=1.0 + 0j, delay=1.5 / fs)
        x = np.zeros(8, dtype=complex)
        x[0] = 1.0
        y = h.apply(x, fs, include_delay=True)
        assert abs(y[1]) == pytest.approx(0.5)
        assert abs(y[2]) == pytest.approx(0.5)

    def test_apply_adds_taps_onto_the_zero_fill_bit_for_bit(self):
        """Each tap product is added to the output's zero fill: a zero
        sample under a negative weight comes out +0.0, not -0.0."""
        fs = 8000.0
        gain = -0.5 - 0.5j
        h = single_tap_response(gain=gain, delay=1.25 / fs)
        x = np.array([0.0, 1.0 - 2.0j, 0.0, 3.0j, -1.0], dtype=complex)
        y = h.apply(x, fs, include_delay=True)
        delay = 1.25 / fs * fs
        frac = delay - math.floor(delay)
        expected = np.zeros_like(y)
        expected[1:6] += (1.0 - frac) * gain * x
        expected[2:7] += frac * gain * x
        assert y.tobytes() == expected.tobytes()
        assert not np.signbit(y[1].imag)

    def test_multipath_superposition(self):
        p1 = Path(15.0, 0.001, 0.5 + 0j, 0, 0, 0.0, 0.0)
        p2 = Path(30.0, 0.002, 0.25 + 0j, 1, 0, 0.0, 0.0)
        h = ChannelResponse(paths=[p1, p2], carrier_hz=F)
        x = np.ones(256, dtype=complex)
        y = h.apply(x, fs=8000.0)
        # Steady state: coherent sum of both taps.
        steady = y[16:250]
        assert np.allclose(steady, 0.75, atol=1e-9)


class TestSurfaceAnimation:
    def test_static_without_waves(self):
        h = single_tap_response()
        t1 = h.baseband_taps(0.0)
        t2 = h.baseband_taps(3.0)
        assert t1 == t2

    def test_surface_path_phase_moves(self):
        path = Path(100.0, 0.07, 0.5 + 0j, 1, 0, 5.0, -5.0)
        h = ChannelResponse(
            paths=[path],
            carrier_hz=F,
            surface=SeaSurface(rms_height_m=0.3, dominant_period_s=6.0),
        )
        g0 = h.baseband_taps(0.0)[0][1]
        g1 = h.baseband_taps(1.5)[0][1]
        assert abs(g0) == pytest.approx(abs(g1))  # magnitude preserved
        assert g0 != g1  # phase moved

    def test_animated_apply_preserves_energy_scale(self):
        path = Path(100.0, 0.07, 0.5 + 0j, 1, 0, 5.0, -5.0)
        h = ChannelResponse(
            paths=[path],
            carrier_hz=F,
            surface=SeaSurface(rms_height_m=0.2, dominant_period_s=4.0),
        )
        x = np.ones(4000, dtype=complex)
        y = h.apply(x, fs=8000.0, time_varying=True)
        steady = np.abs(y[10:4000])
        assert steady.mean() == pytest.approx(0.5, rel=0.05)


class TestAcousticChannel:
    def test_between_traces_paths(self):
        ch = make_channel()
        h = ch.between(Vec3(0, 0, 2), Vec3(60, 0, 2))
        assert len(h.paths) >= 3

    def test_direct_only_flag(self):
        ch = make_channel(direct_only=True)
        h = ch.between(Vec3(0, 0, 2), Vec3(60, 0, 2))
        assert len(h.paths) == 1

    def test_gain_decreases_with_range(self):
        ch = make_channel(direct_only=True)
        g_near = ch.one_way_gain_db(Vec3(0, 0, 2), Vec3(20, 0, 2))
        g_far = ch.one_way_gain_db(Vec3(0, 0, 2), Vec3(200, 0, 2))
        assert g_far < g_near

    def test_default_surface_calm(self):
        ch = make_channel()
        assert ch.surface.rms_height_m == 0.0
