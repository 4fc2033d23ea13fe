"""Tests for FIR design and the DC blocker."""

from importlib.metadata import version

import numpy as np
import pytest

from repro.dsp import filters
from repro.dsp.filters import (
    _dc_block_rows,
    bandpass_fir,
    dc_block,
    dc_block_fast,
    fir_filter,
    lowpass_fir,
    moving_average,
)


def tone(freq, fs, n=4096):
    t = np.arange(n) / fs
    return np.exp(2j * np.pi * freq * t)


def gain_at(taps, freq, fs):
    x = tone(freq, fs)
    y = fir_filter(x, taps)
    # Avoid edges where the filter is still filling.
    mid = slice(len(taps), len(x) - len(taps))
    return np.abs(y[mid]).mean()


class TestLowpass:
    def test_unit_dc_gain(self):
        taps = lowpass_fir(1000.0, 8000.0)
        assert taps.sum() == pytest.approx(1.0)

    def test_passband_and_stopband(self):
        fs = 8000.0
        taps = lowpass_fir(1000.0, fs, num_taps=101)
        assert gain_at(taps, 100.0, fs) == pytest.approx(1.0, abs=0.02)
        assert gain_at(taps, 3500.0, fs) < 0.01

    def test_even_taps_promoted_to_odd(self):
        taps = lowpass_fir(1000.0, 8000.0, num_taps=100)
        assert len(taps) % 2 == 1

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            lowpass_fir(5000.0, 8000.0)
        with pytest.raises(ValueError):
            lowpass_fir(0.0, 8000.0)

    def test_rejects_tiny_filter(self):
        with pytest.raises(ValueError):
            lowpass_fir(100.0, 8000.0, num_taps=2)


class TestBandpass:
    def test_band_shape(self):
        fs = 16_000.0
        taps = bandpass_fir(2000.0, 4000.0, fs, num_taps=201)
        assert gain_at(taps, 3000.0, fs) == pytest.approx(1.0, abs=0.05)
        assert gain_at(taps, 500.0, fs) < 0.02
        assert gain_at(taps, 7000.0, fs) < 0.02

    def test_rejects_inverted_band(self):
        with pytest.raises(ValueError):
            bandpass_fir(4000.0, 2000.0, 16_000.0)


class TestFirFilter:
    def test_group_delay_compensated(self):
        taps = lowpass_fir(1000.0, 8000.0, num_taps=31)
        x = np.zeros(64)
        x[32] = 1.0
        y = fir_filter(x, taps)
        assert int(np.argmax(np.abs(y))) == 32

    def test_same_length(self):
        taps = lowpass_fir(500.0, 8000.0)
        x = np.random.default_rng(0).standard_normal(200)
        assert len(fir_filter(x, taps)) == 200


class TestMovingAverage:
    def test_flat_input_unchanged(self):
        x = np.ones(50)
        y = moving_average(x, 5)
        assert np.allclose(y[5:45], 1.0)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            moving_average(np.ones(10), 0)


class TestDCBlock:
    def test_removes_constant(self):
        x = np.full(2000, 3.0 + 1.0j)
        y = dc_block(x, alpha=0.99)
        assert abs(y[-1]) < 1e-3

    def test_passes_fast_variation(self):
        fs = 8000.0
        x = tone(1000.0, fs, n=2000)
        y = dc_block(x, alpha=0.99)
        assert np.abs(y[500:]).mean() == pytest.approx(1.0, abs=0.05)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            dc_block(np.ones(4), alpha=1.5)

    def test_fast_matches_reference(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(300) + 1j * rng.standard_normal(300) + 2.0
        slow = dc_block(x, alpha=0.97)
        fast = dc_block_fast(x, alpha=0.97)
        np.testing.assert_allclose(fast, slow, rtol=1e-8, atol=1e-10)

    def test_fast_matches_reference_across_blocks(self):
        # Longer than the internal 4096-sample block to cover the carry.
        rng = np.random.default_rng(2)
        x = rng.standard_normal(9000) + 0.5
        slow = dc_block(x, alpha=0.995)
        fast = dc_block_fast(x, alpha=0.995)
        np.testing.assert_allclose(fast, slow, rtol=1e-6, atol=1e-8)

    def test_real_input_stays_real(self):
        x = np.ones(100)
        assert not np.iscomplexobj(dc_block(x))
        assert not np.iscomplexobj(dc_block_fast(x))

    def test_empty_input(self):
        assert len(dc_block_fast(np.zeros(0))) == 0


def _records(dtype, rows, samples):
    """A seeded ``(rows, samples)`` block of ``dtype``."""
    rng = np.random.default_rng(rows * 10_007 + samples)
    shape = (rows, samples)
    if np.issubdtype(dtype, np.integer):
        return rng.integers(-1000, 1000, size=shape).astype(dtype)
    x = 2.0 + rng.standard_normal(shape)
    if np.issubdtype(dtype, np.complexfloating):
        x = x + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


class TestIIRKernel:
    """The DC blocker calls SciPy's compiled IIR kernel directly; its
    output must be ``scipy.signal.lfilter``'s, bit for bit."""

    @pytest.mark.parametrize(
        "dtype",
        [np.complex128, np.float64, np.int64, np.int16, np.float32, np.complex64],
    )
    @pytest.mark.parametrize("rows", [0, 1, 32, 250])
    @pytest.mark.parametrize("samples", [0, 1, 2000, 4000])
    def test_rows_equal_lfilter_bit_for_bit(self, dtype, rows, samples):
        from scipy.signal import lfilter

        x = _records(dtype, rows, samples)
        for alpha in (0.95, 0.0, 1.5):
            want = lfilter([1.0, -1.0], [1.0, -alpha], x)
            got = _dc_block_rows(x, alpha)
            assert got.dtype == want.dtype
            # alpha = 1.5 is unstable: long rows overflow to inf and NaN.
            assert np.array_equal(got, want, equal_nan=True)

    def test_a_missing_kernel_names_scipy_and_the_kernel(self, monkeypatch):
        class NoKernel:
            def __init__(self, path, *loaders):
                pass

            def find_spec(self, fullname):
                return None

        monkeypatch.setattr(filters, "FileFinder", NoKernel)
        with pytest.raises(ImportError) as excinfo:
            filters._load_linear_filter()
        message = str(excinfo.value)
        assert f"SciPy {version('scipy')}" in message
        assert "_sigtools._linear_filter" in message
