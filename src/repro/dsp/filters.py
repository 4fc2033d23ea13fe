"""FIR filter design and application.

Only windowed-sinc designs are used: they are unconditionally stable,
linear-phase, and easy to reason about in tests. All application helpers
compensate the filter group delay so outputs stay aligned with inputs —
essential for the symbol-timing bookkeeping in the receiver.
"""

from __future__ import annotations

import numpy as np


def lowpass_fir(cutoff_hz: float, fs: float, num_taps: int = 101) -> np.ndarray:
    """Design a windowed-sinc (Hamming) low-pass FIR.

    Args:
        cutoff_hz: -6 dB cutoff frequency, Hz.
        fs: sample rate, Hz.
        num_taps: filter length (odd keeps integer group delay).

    Returns:
        Real tap array of length ``num_taps`` with unit DC gain.
    """
    if not 0 < cutoff_hz < fs / 2:
        raise ValueError(f"cutoff {cutoff_hz} Hz outside (0, fs/2)")
    if num_taps < 3:
        raise ValueError("need at least 3 taps")
    if num_taps % 2 == 0:
        num_taps += 1
    n = np.arange(num_taps) - (num_taps - 1) / 2
    fc = cutoff_hz / fs
    taps = 2.0 * fc * np.sinc(2.0 * fc * n)
    taps *= np.hamming(num_taps)
    taps /= taps.sum()
    return taps


def bandpass_fir(
    low_hz: float, high_hz: float, fs: float, num_taps: int = 201
) -> np.ndarray:
    """Design a windowed-sinc band-pass FIR (difference of two low-passes)."""
    if not 0 < low_hz < high_hz < fs / 2:
        raise ValueError("need 0 < low < high < fs/2")
    lp_high = lowpass_fir(high_hz, fs, num_taps)
    lp_low = lowpass_fir(low_hz, fs, num_taps)
    return lp_high - lp_low


def fir_filter(signal: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Filter and compensate group delay (same length as the input)."""
    signal = np.asarray(signal)
    full = np.convolve(signal, taps, mode="full")
    delay = (len(taps) - 1) // 2
    return full[delay : delay + len(signal)]


def moving_average(signal: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average (boxcar), same length as the input."""
    if window < 1:
        raise ValueError("window must be >= 1")
    taps = np.ones(window) / window
    return fir_filter(signal, taps)


def dc_block(signal: np.ndarray, alpha: float = 0.995) -> np.ndarray:
    """One-pole DC blocker ``y[n] = x[n] - x[n-1] + alpha * y[n-1]``.

    Used by the reader to strip the un-modulated carrier leakage (the
    self-interference term) before envelope processing: backscatter data
    lives in the sidebands, the static reflection is at DC in baseband.

    Args:
        signal: complex or real baseband samples.
        alpha: pole location in (0, 1); closer to 1 = narrower notch.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    x = np.asarray(signal, dtype=np.complex128)
    y = np.empty_like(x)
    prev_x = 0.0 + 0.0j
    prev_y = 0.0 + 0.0j
    for i in range(len(x)):
        prev_y = x[i] - prev_x + alpha * prev_y
        prev_x = x[i]
        y[i] = prev_y
    return y if np.iscomplexobj(signal) else y.real


def dc_block_fast(signal: np.ndarray, alpha: float = 0.995) -> np.ndarray:
    """Vectorised DC blocker, identical response to :func:`dc_block`.

    The recurrence ``y[n] = x[n] - x[n-1] + alpha y[n-1]`` is the IIR
    ``H(z) = (1 - z^-1) / (1 - alpha z^-1)``, run in C by
    ``scipy.signal.lfilter``. The previous block-convolution scheme was
    O(n * block) and dominated the receive chain on campaign profiles;
    this is O(n) and drops the DC blocker out of the top ten.
    """
    x = np.asarray(signal, dtype=np.complex128)
    if len(x) == 0:
        return x.copy()
    y = _dc_block_rows(x, alpha)
    return y if np.iscomplexobj(signal) else y.real


def _dc_block_rows(x: np.ndarray, alpha: float) -> np.ndarray:
    """The DC blocker's IIR along the last axis of ``x``, rows apart.

    The one definition of the filter: :func:`dc_block_fast` and the
    batched receiver's carrier suppression both run it.
    """
    from scipy.signal import lfilter

    return lfilter([1.0, -1.0], [1.0, -alpha], x)
