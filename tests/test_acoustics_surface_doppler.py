"""Tests for sea-surface state and Doppler utilities."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.acoustics.doppler import apply_doppler, doppler_factor, doppler_shift_hz
from repro.acoustics.surface import SeaSurface

F = 18_500.0


class TestSeaSurface:
    def test_calm_is_perfect_mirror(self):
        s = SeaSurface.calm()
        r = s.reflection_coefficient(F, math.radians(10.0))
        assert r == pytest.approx(-1.0)

    def test_roughness_reduces_coherent_reflection(self):
        rough = SeaSurface(rms_height_m=0.5)
        r = rough.reflection_coefficient(F, math.radians(30.0))
        assert abs(r) < 1.0

    def test_rougher_is_weaker(self):
        grazing = math.radians(20.0)
        mags = [
            abs(SeaSurface(rms_height_m=h).reflection_coefficient(F, grazing))
            for h in (0.0, 0.1, 0.3, 0.6)
        ]
        assert mags == sorted(mags, reverse=True)

    def test_grazing_dependence(self):
        # Shallower grazing sees a smoother surface (smaller Rayleigh
        # parameter), hence stronger coherent reflection.
        s = SeaSurface(rms_height_m=0.3)
        shallow = abs(s.reflection_coefficient(F, math.radians(2.0)))
        steep = abs(s.reflection_coefficient(F, math.radians(60.0)))
        assert shallow > steep

    def test_from_wind_scales(self):
        calm = SeaSurface.from_wind(1.0)
        storm = SeaSurface.from_wind(15.0)
        assert storm.rms_height_m > calm.rms_height_m * 10

    def test_sea_state_presets_ordered(self):
        heights = [SeaSurface.from_sea_state(s).rms_height_m for s in range(7)]
        assert heights == sorted(heights)

    def test_displacement_zero_when_calm(self):
        assert SeaSurface.calm().displacement(1.234) == 0.0

    def test_displacement_bounded_by_amplitude(self):
        s = SeaSurface(rms_height_m=0.4, dominant_period_s=5.0)
        for t in np.linspace(0, 10, 100):
            assert abs(s.displacement(t)) <= s.amplitude_m + 1e-12

    def test_velocity_is_displacement_derivative(self):
        s = SeaSurface(rms_height_m=0.4, dominant_period_s=5.0)
        t, dt = 1.7, 1e-6
        numeric = (s.displacement(t + dt) - s.displacement(t - dt)) / (2 * dt)
        assert s.vertical_velocity(t) == pytest.approx(numeric, rel=1e-4)

    def test_doppler_shift_grows_with_sea_state(self):
        grazing = math.radians(10.0)
        shifts = [
            SeaSurface.from_sea_state(s).max_doppler_shift_hz(F, grazing)
            for s in range(7)
        ]
        assert shifts[0] == 0.0
        assert all(b >= a for a, b in zip(shifts, shifts[1:]))


class TestDoppler:
    def test_shift_sign(self):
        assert doppler_shift_hz(F, 1.0) > 0
        assert doppler_shift_hz(F, -1.0) < 0

    def test_shift_magnitude(self):
        # 1 m/s at 18.5 kHz in 1500 m/s water ~ 12.3 Hz.
        assert doppler_shift_hz(F, 1.0, 1500.0) == pytest.approx(12.33, abs=0.05)

    def test_factor_is_v_over_c(self):
        assert doppler_factor(15.0, 1500.0) == pytest.approx(0.01)

    def test_apply_zero_velocity_is_identity(self):
        x = np.exp(1j * np.linspace(0, 10, 256))
        y = apply_doppler(x, 8000.0, F, 0.0)
        np.testing.assert_array_equal(x, y)

    def test_apply_rotates_carrier(self):
        fs = 16_000.0
        n = 4096
        x = np.ones(n, dtype=complex)
        v = 0.5
        y = apply_doppler(x, fs, F, v)
        # Measure the dominant baseband frequency.
        spec = np.fft.fft(y)
        freqs = np.fft.fftfreq(n, 1 / fs)
        peak = freqs[np.argmax(np.abs(spec))]
        assert peak == pytest.approx(doppler_shift_hz(F, v), abs=fs / n * 2)

    def test_apply_preserves_length_and_energy(self):
        # Use a band-limited (smooth) signal: linear interpolation is
        # energy-preserving only below the Nyquist-ish band edge.
        n = np.arange(1000)
        x = np.exp(2j * np.pi * 50.0 * n / 16_000.0)
        y = apply_doppler(x, 16_000.0, F, 1.0)
        assert len(y) == len(x)
        assert np.mean(np.abs(y) ** 2) == pytest.approx(
            np.mean(np.abs(x) ** 2), rel=0.02
        )

    @pytest.mark.parametrize("v", [0.04, -0.04, 1.2, -1.2, 40.0, -40.0])
    def test_apply_matches_gather_form_bitwise(self, v):
        # Reference: the interpolate-then-rotate expression over an index
        # gather. Large |v| makes many index runs and clips the tail.
        fs, c = 16_000.0, 1480.0
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 530)) + 1j * rng.standard_normal((3, 530))
        x = x[:, :500]  # strided rows, as a block cut to length
        n = np.arange(500)
        src = np.clip(n / (1.0 + doppler_factor(v, c)), 0, 499)
        i0 = np.floor(src).astype(int)
        i1 = np.minimum(i0 + 1, 499)
        frac = src - i0
        rotation = np.exp(2j * np.pi * doppler_shift_hz(F, v, c) * n / fs)
        want = ((1.0 - frac) * x[..., i0] + frac * x[..., i1]) * rotation
        got = apply_doppler(x, fs, F, v, c)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()
        for row in range(3):
            assert np.array_equal(apply_doppler(x[row], fs, F, v, c), got[row])

    @pytest.mark.parametrize("v", [0.0, 0.5])
    def test_apply_returns_c_order_for_any_layout(self, v):
        x = np.exp(1j * np.linspace(0, 10, 4 * 256)).reshape(4, 256)
        for layout in (x, np.asfortranarray(x), x[:, ::-1], x.T):
            y = apply_doppler(layout, 16_000.0, F, v)
            assert y.flags.c_contiguous
            assert y.shape == layout.shape

    @given(st.floats(min_value=-3.0, max_value=3.0))
    def test_apply_finite(self, v):
        x = np.ones(128, dtype=complex)
        y = apply_doppler(x, 16_000.0, F, v)
        assert np.all(np.isfinite(y))
