"""Correlation helpers for preamble detection and matched filtering."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def correlate_full(signal: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Cross-correlation of ``signal`` with ``template`` (valid lags only).

    Output index ``k`` is the correlation of ``signal[k : k + len(template)]``
    with the template, so a peak at ``k`` means the template starts at
    sample ``k``.
    """
    signal = np.asarray(signal)
    template = np.asarray(template)
    if len(template) == 0 or len(signal) < len(template):
        return np.zeros(0, dtype=np.result_type(signal, template))
    return np.correlate(signal, template, mode="valid")


def normalized_correlation(signal: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Sliding normalised correlation in [0, 1] (magnitude).

    Normalises by the local signal energy and the template energy, making
    the detection threshold independent of receive level — the property
    the reader needs, since backscatter level swings ~60 dB across range.
    """
    signal = np.asarray(signal, dtype=np.complex128)
    template = np.asarray(template, dtype=np.complex128)
    if len(signal) < len(template):
        return np.zeros(0)
    # np.correlate conjugates its second argument, giving the proper
    # complex matched statistic.
    raw = np.correlate(signal, template, mode="valid")
    t_energy = float(np.sum(np.abs(template) ** 2))
    if t_energy <= 0:
        raise ValueError("template has zero energy")
    power = np.abs(signal) ** 2
    window = np.ones(len(template))
    local_energy = np.convolve(power, window, mode="valid")
    denom = np.sqrt(np.maximum(local_energy * t_energy, 1e-30))
    return np.abs(raw) / denom


@lru_cache(maxsize=16)
def _template_spectrum(template_bytes: bytes, n: int) -> np.ndarray:
    """Conjugate ``n``-point spectrum of a complex template, memoized by
    value: every tile of a campaign point correlates against the same
    preamble segment at the same record length."""
    template = np.frombuffer(template_bytes, dtype=np.complex128)
    spectrum = np.conj(np.fft.fft(template, n=n))
    spectrum.setflags(write=False)
    return spectrum


def normalized_correlation_batch(
    signals: np.ndarray, template: np.ndarray
) -> np.ndarray:
    """Sliding normalised correlation of many records at once.

    FFT-based batched counterpart of :func:`normalized_correlation`:
    ``signals`` is ``(trials, n)`` and the output is
    ``(trials, n - len(template) + 1)``, one correlation row per record.
    The circular FFT correlation is exact for the valid lags (the
    template is zero-padded to the record length, so no wrap-around
    reaches lag ``n - len(template)``), and the local-energy window is a
    cumulative-sum difference instead of a convolution.

    Rows are independent — the FFT transforms along the last axis — so
    the result for a record does not depend on its batch neighbours.
    Numerics differ from the time-domain :func:`normalized_correlation`
    at the 1e-12 level; batched receivers must use this function for
    *every* record (batch size one included) to stay self-consistent.
    """
    signals = np.asarray(signals, dtype=np.complex128)
    template = np.asarray(template, dtype=np.complex128)
    if signals.ndim != 2:
        raise ValueError("signals must be a (trials, n) array")
    trials, n = signals.shape
    m = len(template)
    if m == 0 or n < m:
        return np.zeros((trials, 0))
    t_energy = float(np.sum(np.abs(template) ** 2))
    if t_energy <= 0:
        raise ValueError("template has zero energy")
    spectrum_t = _template_spectrum(template.tobytes(), n)
    valid = n - m + 1
    spectrum = np.fft.fft(signals, n=n, axis=1)
    spectrum *= spectrum_t
    np.fft.ifft(spectrum, axis=1, out=spectrum)
    # Only the magnitude of the valid lags is kept, and the complex
    # block is released before the energy chain allocates.
    correlation = np.abs(spectrum[:, :valid])
    del spectrum
    # |z|^2 without the hypot of abs(): re^2 + im^2 (the scalar path's
    # abs()**2 differs only at the last ulp, within this function's
    # documented 1e-12 tolerance to the time-domain form). The energy
    # chain runs in place.
    cumulative = np.square(signals.real)
    cumulative += np.square(signals.imag)
    np.cumsum(cumulative, axis=1, out=cumulative)
    denom = np.empty((trials, valid))
    denom[:, 0] = cumulative[:, m - 1]
    np.subtract(cumulative[:, m:], cumulative[:, : n - m], out=denom[:, 1:])
    denom *= t_energy
    np.maximum(denom, 1e-30, out=denom)
    np.sqrt(denom, out=denom)
    correlation /= denom
    return correlation


def matched_filter(signal: np.ndarray, pulse: np.ndarray) -> np.ndarray:
    """Filter with the time-reversed conjugate pulse (max-SNR receiver).

    Output is aligned so sample ``k`` integrates the pulse that *starts*
    at ``k`` (same convention as :func:`correlate_full`), trimmed to the
    valid region.
    """
    return correlate_full(signal, pulse)


def peak_to_sidelobe(correlation: np.ndarray, guard: int = 2) -> float:
    """Ratio of the correlation peak to the largest sample outside a guard.

    A quality metric for preamble detections; > ~3 indicates a confident
    lock. Returns ``inf`` when everything outside the guard is zero.
    """
    corr = np.abs(np.asarray(correlation))
    if len(corr) == 0:
        raise ValueError("empty correlation")
    peak_idx = int(np.argmax(corr))
    peak = corr[peak_idx]
    mask = np.ones(len(corr), dtype=bool)
    lo = max(peak_idx - guard, 0)
    hi = min(peak_idx + guard + 1, len(corr))
    mask[lo:hi] = False
    if not mask.any():
        return float("inf")
    side = corr[mask].max()
    if side <= 0:
        return float("inf")
    return float(peak / side)
