"""Far-field phasor response of a Van Atta array.

The narrowband model: a plane wave at angle ``theta_in`` (from broadside)
paints phase ``k x_i sin(theta_in)`` on element ``i``. Each pair re-radiates
the wave captured by one element from its mirror twin, so the field
launched toward ``theta_out`` is

``sum over pairs (a, b) of e^{jk(x_a u_in + x_b u_out)} + e^{jk(x_b u_in + x_a u_out)}``

with ``u = sin(theta)``. For mirror pairs ``x_b = -x_a`` every term hits
phase zero at ``theta_out = theta_in`` — the reflection is coherent back
toward the source at *any* incidence, which is the entire trick.

Normalisation: one ideally-reflecting element scores ``1.0`` monostatic.
An N-element Van Atta therefore scores ``N`` in field (``20 log10 N`` dB
in round-trip power), before line losses, polarity errors, and element
roll-off.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.contracts import DB, DEG, HZ, MPS
from repro.vanatta.array import VanAttaArray
from repro.vanatta.fastfield import ArrayFactorEngine


def response(
    array: VanAttaArray,
    frequency_hz: HZ,
    theta_in_deg: DEG,
    theta_out_deg: DEG,
    sound_speed: MPS = 1500.0,
) -> complex:
    """Bistatic complex response (normalised to one ideal element).

    Delegates to the batched array-factor kernel
    (:mod:`repro.vanatta.fastfield`) at batch size 1, so the scalar and
    batched paths share one implementation; the original per-pair loop
    survives as :func:`repro.vanatta.fastfield.reference_response` and
    the parity tests hold the two to ``<= 1e-9``.

    Args:
        array: the Van Atta array.
        frequency_hz: operating frequency.
        theta_in_deg: incidence angle from broadside, degrees.
        theta_out_deg: observation angle from broadside, degrees.
        sound_speed: medium sound speed.

    Returns:
        Complex field amplitude toward ``theta_out``.
    """
    engine = ArrayFactorEngine.from_linear(array)
    return complex(
        engine.response_batch(
            frequency_hz, theta_in_deg, theta_out_deg, sound_speed
        )
    )


def monostatic_gain(
    array: VanAttaArray,
    frequency_hz: HZ,
    theta_deg: DEG,
    sound_speed: MPS = 1500.0,
) -> complex:
    """Response back toward the source (the backscatter direction)."""
    return response(array, frequency_hz, theta_deg, theta_deg, sound_speed)


def monostatic_gain_db(
    array: VanAttaArray,
    frequency_hz: HZ,
    theta_deg: DEG,
    sound_speed: MPS = 1500.0,
) -> DB:
    """Monostatic field gain in dB re one ideal element."""
    mag = abs(monostatic_gain(array, frequency_hz, theta_deg, sound_speed))
    return 20.0 * math.log10(max(mag, 1e-15))


def pattern(
    array: VanAttaArray,
    frequency_hz: HZ,
    theta_in_deg: DEG,
    thetas_out_deg: Sequence[float],
    sound_speed: MPS = 1500.0,
) -> np.ndarray:
    """Bistatic pattern: complex response at each observation angle.

    One batched kernel call — the per-angle loop is gone.
    """
    engine = ArrayFactorEngine.from_linear(array)
    return engine.response_batch(
        frequency_hz,
        theta_in_deg,
        np.asarray(thetas_out_deg, dtype=np.float64),
        sound_speed,
    )


def monostatic_pattern_db(
    array: VanAttaArray,
    frequency_hz: HZ,
    thetas_deg: Sequence[float],
    sound_speed: MPS = 1500.0,
) -> np.ndarray:
    """Monostatic gain (dB) across incidence angles — the E1 curve.

    One batched kernel call — the per-angle loop is gone.
    """
    engine = ArrayFactorEngine.from_linear(array)
    return engine.monostatic_pattern_db(
        frequency_hz, np.asarray(thetas_deg, dtype=np.float64), sound_speed
    )
