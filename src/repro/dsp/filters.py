"""FIR filter design and application, and the reader's DC blocker.

Only windowed-sinc designs are used: they are unconditionally stable,
linear-phase, and easy to reason about in tests. All application helpers
compensate the filter group delay so outputs stay aligned with inputs —
essential for the symbol-timing bookkeeping in the receiver. The DC
blocker is a one-pole IIR, run by SciPy's compiled filter kernel, which
this module loads on import without the ``scipy.signal`` package.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import Callable

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

    Runs :func:`_dc_block_rows` on the signal as complex128 and returns
    the real part for a real input. That is SciPy's compiled IIR kernel,
    O(n) in C.
    """
    x = np.asarray(signal, dtype=np.complex128)
    if len(x) == 0:
        return x.copy()
    y = _dc_block_rows(x, alpha)
    return y if np.iscomplexobj(signal) else y.real


def _load_linear_filter() -> Callable[..., np.ndarray]:
    """SciPy's compiled IIR kernel, ``scipy.signal._sigtools._linear_filter``.

    Loads the extension module straight from ``<scipy>/signal``, so the
    ``scipy.signal`` package (530 modules, ~0.7 s, ~66 MB) never runs.
    The module is registered in ``sys.modules`` as an import would, so a
    later ``import scipy.signal`` reuses it. Raises ImportError, naming
    the installed SciPy, when the kernel is not where SciPy >= 1.13
    keeps it.
    """
    scipy = importlib.util.find_spec("scipy")
    for location in (scipy and scipy.submodule_search_locations) or ():
        finder = FileFinder(
            os.path.join(location, "signal"),
            (ExtensionFileLoader, EXTENSION_SUFFIXES),
        )
        spec = finder.find_spec("scipy.signal._sigtools")
        if spec is None:
            continue
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        kernel = getattr(module, "_linear_filter", None)
        if kernel is not None:
            return kernel
    from importlib.metadata import PackageNotFoundError, version

    try:
        found = f"SciPy {version('scipy')} does not provide it"
    except PackageNotFoundError:
        found = "SciPy is not installed"
    raise ImportError(
        "repro.dsp.filters runs the DC blocker on SciPy's compiled kernel "
        f"scipy.signal._sigtools._linear_filter, but {found}; "
        "install scipy>=1.13"
    )


_linear_filter = _load_linear_filter()


def _dc_block_rows(x: np.ndarray, alpha: float) -> np.ndarray:
    """The DC blocker's IIR along the last axis of ``x``, rows apart.

    The one definition of the filter: :func:`dc_block_fast` and the
    batched receiver's carrier suppression both run it. It calls SciPy's
    compiled kernel with exactly the arguments that
    ``scipy.signal.lfilter([1, -1], [1, -alpha], x)`` hands it, so the
    output equals ``lfilter``'s bit for bit, dtype included.
    """
    return _linear_filter(
        np.atleast_1d([1.0, -1.0]),
        np.atleast_1d([1.0, -alpha]),
        np.asarray(x),
        -1,
    )
