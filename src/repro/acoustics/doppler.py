"""Doppler utilities for moving platforms.

Backscatter nodes are moored, but the reader in the paper's experiments
hangs off a boat or dock and drifts; the ocean deployment adds surface
motion. For narrowband signals the two useful operations are:

* :func:`doppler_shift_hz` — the carrier shift for a radial velocity, and
* :func:`apply_doppler` — resample a complex baseband signal for a given
  shift (time-scaling plus baseband rotation), which is exact for the
  narrowband signals VAB uses.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.rowblocks import for_row_blocks


def doppler_shift_hz(
    carrier_hz: float, radial_velocity_mps: float, sound_speed_mps: float = 1500.0
) -> float:
    """Carrier Doppler shift for a closing velocity (positive = closing)."""
    return carrier_hz * radial_velocity_mps / sound_speed_mps


def doppler_factor(
    radial_velocity_mps: float, sound_speed_mps: float = 1500.0
) -> float:
    """Time-compression factor ``a``: received time = (1 + a) * sent time."""
    return radial_velocity_mps / sound_speed_mps


def _runs(idx: np.ndarray) -> list:
    """``(dst_lo, dst_hi, src_lo)`` runs of consecutive indices in ``idx``.

    ``idx`` is a resampling map of slope near one, so it splits into a
    few runs, and each run is one slice copy — cheaper than an index
    gather, also from a strided view.
    """
    n = len(idx)
    cuts = (np.flatnonzero(np.diff(idx) != 1) + 1).tolist()
    starts = idx[[0, *cuts]].tolist()
    return list(zip([0, *cuts], [*cuts, n], starts))


def _gather_runs(signal: np.ndarray, runs: list, out: np.ndarray) -> None:
    """Write ``signal[..., idx]`` into ``out``, one slice per run of ``idx``."""
    for lo, hi, src in runs:
        out[..., lo:hi] = signal[..., src : src + hi - lo]


def apply_doppler(
    signal: np.ndarray,
    fs: float,
    carrier_hz: float,
    radial_velocity_mps: float,
    sound_speed_mps: float = 1500.0,
) -> np.ndarray:
    """Apply a constant-velocity Doppler to a complex baseband signal.

    Two effects are applied:

    1. carrier shift: multiply by ``exp(j 2 pi f_d t)``;
    2. time compression of the envelope by ``1 + v/c`` (resampled with
       linear interpolation — adequate at the < 1e-3 factors of interest).

    Args:
        signal: complex baseband samples.
        fs: sample rate, Hz.
        carrier_hz: carrier the baseband is centred on.
        radial_velocity_mps: closing velocity (positive shortens the path).
        sound_speed_mps: medium sound speed.

    Returns:
        Doppler-distorted complex baseband samples (same shape), as a
        new C-contiguous array.
    """
    signal = np.asarray(signal, dtype=np.complex128)
    n_samples = signal.shape[-1]
    if radial_velocity_mps == 0.0 or n_samples == 0:
        return signal.copy()
    a = doppler_factor(radial_velocity_mps, sound_speed_mps)
    n = np.arange(n_samples)
    # Envelope compression: sample the input at stretched positions.
    # Gathers index the last axis, so a (trials, samples) block is
    # warped row by row with identical arithmetic.
    src_pos = n / (1.0 + a)
    src_pos = np.clip(src_pos, 0, n_samples - 1)
    i0 = np.floor(src_pos).astype(int)
    i1 = np.minimum(i0 + 1, n_samples - 1)
    frac = src_pos - i0
    runs0, runs1 = _runs(i0), _runs(i1)
    weight0 = 1.0 - frac
    f_d = doppler_shift_hz(carrier_hz, radial_velocity_mps, sound_speed_mps)
    rotation = np.exp(2j * np.pi * f_d * n / fs)
    # The taps are gathered into C-ordered blocks (a ``signal[..., i0]``
    # gather of a 2-D block comes back in F order) and the weights and
    # the carrier shift are applied in place. A (trials, samples) block
    # is warped row by row with identical arithmetic, so row blocks run
    # on separate threads (:func:`repro.dsp.rowblocks.for_row_blocks`).
    warped = np.empty(signal.shape, dtype=np.complex128)
    rows = signal if signal.ndim > 1 else signal[None, :]
    out = warped if signal.ndim > 1 else warped[None, :]

    def block(lo: int, hi: int) -> None:
        source, dest = rows[lo:hi], out[lo:hi]
        _gather_runs(source, runs0, dest)
        dest *= weight0
        ahead = np.empty_like(dest)
        _gather_runs(source, runs1, ahead)
        ahead *= frac
        dest += ahead
        dest *= rotation

    for_row_blocks(len(rows), block)
    return warped
