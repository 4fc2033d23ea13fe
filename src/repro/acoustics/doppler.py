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

from functools import lru_cache
from typing import Optional

import numpy as np

from repro.dsp.buffers import output_block


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


def _runs(idx: np.ndarray) -> tuple:
    """``(dst_lo, dst_hi, src_lo)`` runs of consecutive indices in ``idx``.

    ``idx`` is a resampling map of slope near one, so it splits into a
    few runs, and each run is one slice copy — cheaper than an index
    gather, also from a strided view.
    """
    n = len(idx)
    cuts = (np.flatnonzero(np.diff(idx) != 1) + 1).tolist()
    starts = idx[[0, *cuts]].tolist()
    return tuple(zip([0, *cuts], [*cuts, n], starts))


def _gather_runs(signal: np.ndarray, runs: tuple, out: np.ndarray) -> None:
    """Write ``signal[..., idx]`` into ``out``, one slice per run of ``idx``."""
    for lo, hi, src in runs:
        out[..., lo:hi] = signal[..., src : src + hi - lo]


@lru_cache(maxsize=16)
def _resampling_plan(
    n_samples: int,
    fs: float,
    carrier_hz: float,
    radial_velocity_mps: float,
    sound_speed_mps: float,
) -> tuple:
    """The signal-independent half of :func:`apply_doppler`, memoized:
    ``(runs0, runs1, weight0, frac, rotation)`` for one record length and
    motion. Every tile of a campaign point warps with the same plan."""
    a = doppler_factor(radial_velocity_mps, sound_speed_mps)
    n = np.arange(n_samples)
    # Envelope compression: sample the input at stretched positions.
    src_pos = n / (1.0 + a)
    src_pos = np.clip(src_pos, 0, n_samples - 1)
    i0 = np.floor(src_pos).astype(int)
    i1 = np.minimum(i0 + 1, n_samples - 1)
    frac = src_pos - i0
    weight0 = 1.0 - frac
    f_d = doppler_shift_hz(carrier_hz, radial_velocity_mps, sound_speed_mps)
    rotation = np.exp(2j * np.pi * f_d * n / fs)
    for array in (weight0, frac, rotation):
        array.setflags(write=False)
    return _runs(i0), _runs(i1), weight0, frac, rotation


def apply_doppler(
    signal: np.ndarray,
    fs: float,
    carrier_hz: float,
    radial_velocity_mps: float,
    sound_speed_mps: float = 1500.0,
    out: Optional[np.ndarray] = None,
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
        out: a C-contiguous complex128 array of the signal's shape to
            write the result into (it must not overlap ``signal``).

    Returns:
        Doppler-distorted complex baseband samples (same shape), as a
        new C-contiguous array, or ``out``.
    """
    signal = np.asarray(signal, dtype=np.complex128)
    n_samples = signal.shape[-1]
    warped = output_block(out, signal.shape)
    if radial_velocity_mps == 0.0 or n_samples == 0:
        np.copyto(warped, signal)
        return warped
    runs0, runs1, weight0, frac, rotation = _resampling_plan(
        n_samples,
        float(fs),
        float(carrier_hz),
        float(radial_velocity_mps),
        float(sound_speed_mps),
    )
    # The taps are gathered into C-ordered blocks (a ``signal[..., i0]``
    # gather of a 2-D block comes back in F order) and the weights and
    # the carrier shift are applied in place. Gathers index the last
    # axis, so a (trials, samples) block is warped row by row with
    # identical arithmetic.
    _gather_runs(signal, runs0, warped)
    warped *= weight0
    ahead = np.empty_like(warped)
    _gather_runs(signal, runs1, ahead)
    ahead *= frac
    warped += ahead
    warped *= rotation
    return warped
