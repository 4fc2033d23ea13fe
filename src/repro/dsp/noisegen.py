"""Noise synthesis with prescribed spectra.

The waveform simulator needs ambient noise whose in-band power matches the
Wenz level computed by :mod:`repro.acoustics.noise`, with approximately the
right spectral tilt across the receiver band. Noise is generated in the
frequency domain: complex white Gaussian bins shaped by the target PSD.

The PSD shaping amplitude depends only on ``(n, fs, carrier_hz, psd)`` —
it is identical for every trial of a Monte-Carlo point — so it is
memoized here (see :func:`clear_noise_cache`). Campaigns that used to
spend ~80% of each trial re-evaluating the Wenz curves per FFT bin now
pay for the shaping filter once per operating point.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dsp.rowblocks import for_row_blocks
from repro.rng import fallback_rng

_SHAPE_CACHE: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_SHAPE_CACHE_MAX = 64


def clear_noise_cache() -> None:
    """Explicitly invalidate the memoized PSD shaping filters."""
    _SHAPE_CACHE.clear()


def noise_cache_info() -> Tuple[int, int]:
    """(entries, capacity) of the shaping-filter cache."""
    return len(_SHAPE_CACHE), _SHAPE_CACHE_MAX


def white_noise(
    n: int, power: float, rng: Optional[np.random.Generator] = None, complex_: bool = True
) -> np.ndarray:
    """Complex (or real) white Gaussian noise with a given average power.

    Args:
        n: number of samples.
        power: target mean square value E[|x|^2].
        rng: random generator; thread one from campaign seeds, or the
            documented process-global fallback stream is used
            (:func:`repro.rng.fallback_rng`).
        complex_: circular complex noise if True, real if False.
    """
    if power < 0:
        raise ValueError("power must be non-negative")
    if rng is None:
        rng = fallback_rng()
    if complex_:
        scale = np.sqrt(power / 2.0)
        return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return np.sqrt(power) * rng.standard_normal(n)


def _psd_fn_cache_key(psd_db_fn: Callable[[float], float]):
    """A hashable identity for a PSD callable, or None when uncachable.

    Bound methods of value-type objects (e.g. ``NoiseConditions.psd_db``)
    compare by instance *identity*, which would defeat the cache across
    equal-but-distinct scenario objects — so key on ``(func, self)``
    where ``self`` hashes by value.
    """
    bound_self = getattr(psd_db_fn, "__self__", None)
    if bound_self is not None:
        try:
            hash(bound_self)
        except TypeError:
            return None
        return (getattr(psd_db_fn, "__func__", psd_db_fn), bound_self)
    try:
        hash(psd_db_fn)
    except TypeError:
        return None
    return psd_db_fn


def _evaluate_psd_db(
    psd_db_fn: Callable[[float], float], abs_freqs: np.ndarray
) -> np.ndarray:
    """PSD in dB at each frequency, vectorized when the callable allows.

    Callables exposing a vectorized form (``psd_db_array`` attribute on
    the bound object, e.g. :class:`repro.acoustics.noise.NoiseConditions`)
    or natively accepting arrays are evaluated in one shot; anything else
    falls back to the per-frequency loop.
    """
    clamped = np.maximum(abs_freqs, 1.0)
    bound_self = getattr(psd_db_fn, "__self__", None)
    array_fn = getattr(bound_self, "psd_db_array", None)
    if array_fn is not None:
        return np.asarray(array_fn(clamped), dtype=np.float64)
    try:
        out = np.asarray(psd_db_fn(clamped), dtype=np.float64)
        if out.shape == clamped.shape:
            return out
    except Exception:
        pass
    return np.array([psd_db_fn(float(f)) for f in clamped], dtype=np.float64)


def _shaping_amplitude(
    n: int, fs: float, psd_db_fn: Callable[[float], float], carrier_hz: float
) -> np.ndarray:
    """Per-bin amplitude scale sqrt(PSD * fs / 2), memoized when possible."""
    key = None
    fn_key = _psd_fn_cache_key(psd_db_fn)
    if fn_key is not None:
        key = (fn_key, n, float(fs), float(carrier_hz))
        cached = _SHAPE_CACHE.get(key)
        if cached is not None:
            _SHAPE_CACHE.move_to_end(key)
            return cached
    freqs = np.fft.fftfreq(n, d=1.0 / fs)
    psd_linear = 10.0 ** (_evaluate_psd_db(psd_db_fn, carrier_hz + freqs) / 10.0)
    amplitude = np.sqrt(psd_linear * fs / 2.0)
    amplitude.setflags(write=False)
    if key is not None:
        _SHAPE_CACHE[key] = amplitude
        if len(_SHAPE_CACHE) > _SHAPE_CACHE_MAX:
            _SHAPE_CACHE.popitem(last=False)
    return amplitude


def colored_noise(
    n: int,
    fs: float,
    psd_db_fn: Callable[[float], float],
    carrier_hz: float,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Complex baseband noise matching an absolute passband PSD.

    The returned samples represent passband noise around ``carrier_hz``
    translated to baseband: bin ``f`` of the output spectrum is shaped by
    ``psd_db_fn(carrier_hz + f)``. Mean-square value equals the PSD
    integrated across the simulated bandwidth ``fs``.

    Args:
        n: number of samples.
        fs: sample rate (simulated bandwidth), Hz.
        psd_db_fn: function mapping absolute frequency (Hz) to PSD in
            dB re 1 uPa^2/Hz (or any consistent unit).
        carrier_hz: centre frequency the baseband is referenced to.
        rng: random generator; thread one from campaign seeds, or the
            documented process-global fallback stream is used
            (:func:`repro.rng.fallback_rng`).

    Returns:
        Complex baseband noise samples of length ``n``.
    """
    if n <= 0:
        return np.zeros(0, dtype=np.complex128)
    if rng is None:
        rng = fallback_rng()
    # Bin amplitude: each FFT bin spans fs/n Hz of PSD; synthesise unit
    # white bins then scale so E[|x[t]|^2] = integral of PSD.
    bins = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    bins *= _shaping_amplitude(n, fs, psd_db_fn, carrier_hz)
    noise = np.fft.ifft(bins)
    noise *= np.sqrt(n)
    return noise


def _draw_complex_rows(
    rows: np.ndarray,
    scale: Union[float, np.ndarray],
    rngs: Sequence[np.random.Generator],
) -> None:
    """Fill ``rows[t]`` with ``scale * (N + 1j N)`` drawn from ``rngs[t]``.

    Each generator draws its row's real parts, then its imaginary parts
    — the request order of ``rng.standard_normal(n) + 1j *
    rng.standard_normal(n)`` — into one reused ``(2, n)`` buffer, and
    the scaled draws are written straight into the real and imaginary
    planes of ``rows``. Scaling a part by a real factor is the same
    float multiply the complex product would do, so the values are
    bitwise those of the expression form without its temporaries.

    Runs on row-block threads (:mod:`repro.dsp.rowblocks`): the buffer
    is per call, and each generator belongs to exactly one row.
    """
    draw = np.empty((2, rows.shape[1]))
    real, imag = rows.real, rows.imag
    for t, rng in enumerate(rngs):
        rng.standard_normal(out=draw)
        np.multiply(draw[0], scale, out=real[t])
        np.multiply(draw[1], scale, out=imag[t])


def white_noise_batch(
    n: int, power: float, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """One row of complex white noise per generator, shape ``(len(rngs), n)``.

    Row ``t`` is drawn from ``rngs[t]`` with the exact draw sequence of
    :func:`white_noise` — the batched campaign engine's bit-identity
    contract rests on each trial's stream seeing the same requests in the
    same order as the per-trial path.
    """
    if power < 0:
        raise ValueError("power must be non-negative")
    rows = np.empty((len(rngs), n), dtype=np.complex128)
    scale = np.sqrt(power / 2.0)

    def block(lo: int, hi: int) -> None:
        _draw_complex_rows(rows[lo:hi], scale, rngs[lo:hi])

    for_row_blocks(len(rngs), block)
    return rows


def colored_noise_batch(
    n: int,
    fs: float,
    psd_db_fn: Callable[[float], float],
    carrier_hz: float,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """One row of shaped noise per generator, shape ``(len(rngs), n)``.

    The Gaussian bins are drawn per generator (preserving each trial's
    stream order — see :func:`white_noise_batch`), but the PSD shaping
    and the inverse FFT run once over the whole ``(trials, n)`` block.
    Each row is bit-identical to :func:`colored_noise` called with the
    same generator: the shaping multiply is elementwise and a batched
    ``ifft`` along the last axis transforms rows independently — which
    is also what lets row blocks draw and transform on separate threads
    (:func:`repro.dsp.rowblocks.for_row_blocks`), in place.
    """
    if n <= 0:
        return np.zeros((len(rngs), 0), dtype=np.complex128)
    amplitude = _shaping_amplitude(n, fs, psd_db_fn, carrier_hz)
    noise = np.empty((len(rngs), n), dtype=np.complex128)
    gain = np.sqrt(n)

    def block(lo: int, hi: int) -> None:
        bins = noise[lo:hi]
        _draw_complex_rows(bins, amplitude, rngs[lo:hi])
        np.fft.ifft(bins, axis=1, out=bins)
        bins *= gain

    for_row_blocks(len(rngs), block)
    return noise
