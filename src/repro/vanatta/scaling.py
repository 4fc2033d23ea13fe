"""Aperture-scaling design rules (the E5 study).

The retrodirective field gain grows linearly with element count, so the
round-trip SNR grows as ``20 log10 N`` — every doubling of the array buys
6 dB. Because absorption makes underwater loss super-logarithmic in
range, those dB translate into large but *diminishing* range extensions;
:func:`repro.sim.linkbudget.max_range_m` inverts the budget numerically.

Spacing rules: at lambda/2 the pattern is clean; pushing the pitch past
one wavelength introduces grating lobes that leak reflected energy into
spurious directions (and therefore out of the monostatic return at some
angles).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.contracts import DB, DEG, HZ, METERS, MPS


def peak_gain_db(num_elements: int) -> DB:
    """Monostatic field gain of an ideal N-element Van Atta, dB.

    Relative to a single ideal element; field scales with N.
    """
    if num_elements < 1:
        raise ValueError("need at least one element")
    return 20.0 * math.log10(num_elements)


def aperture_m(num_elements: int, spacing_m: METERS) -> METERS:
    """End-to-end aperture of a uniform array, metres."""
    if num_elements < 1:
        raise ValueError("need at least one element")
    if spacing_m <= 0:
        raise ValueError("spacing must be positive")
    return (num_elements - 1) * spacing_m


def recommended_spacing(frequency_hz: HZ, sound_speed: MPS = 1500.0) -> METERS:
    """Half-wavelength pitch, metres."""
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    return sound_speed / frequency_hz / 2.0


def grating_lobe_free(spacing_m: METERS, frequency_hz: HZ, sound_speed: MPS = 1500.0) -> bool:
    """True when no grating lobe exists for any scan angle (d < lambda/2... lambda).

    For a retrodirective reflector illuminated from up to +-90 degrees the
    safe condition is pitch strictly below one wavelength; lambda/2 keeps
    margin for wideband operation.
    """
    lam = sound_speed / frequency_hz
    return spacing_m < lam


def gain_improvement_db(n_from: int, n_to: int) -> DB:
    """Gain delta when growing an array from ``n_from`` to ``n_to`` elements."""
    return peak_gain_db(n_to) - peak_gain_db(n_from)


def simulated_gain_curve_db(
    element_counts: Sequence[int],
    frequency_hz: HZ = 18_500.0,
    theta_deg: DEG = 0.0,
    sound_speed: MPS = 1500.0,
    line_loss_db: DB = 0.0,
) -> np.ndarray:
    """Field-simulated monostatic gain at each element count, dB.

    Where :func:`peak_gain_db` is the ideal ``20 log10 N`` rule, this
    builds the actual half-wavelength arrays and scores them through
    the batched array-factor engine — the E5/E21 scaling curve at
    thousands of elements, one kernel call per count. The two agree
    for ideal lossless arrays; line loss and element roll-off open the
    gap a designer budgets for.
    """
    from repro.piezo.transducer import Transducer
    from repro.vanatta.array import VanAttaArray
    from repro.vanatta.fastfield import ArrayFactorEngine

    gains = np.empty(len(element_counts), dtype=np.float64)
    omni = Transducer(elevation_rolloff_exponent=0.0)
    for i, n in enumerate(element_counts):
        array = VanAttaArray.uniform(
            int(n), frequency_hz=frequency_hz, sound_speed=sound_speed,
            element=omni,
        )
        array = VanAttaArray(
            positions_m=array.positions_m,
            pairs=array.pairs,
            element=array.element,
            pairing=array.pairing,
            line_loss_db=line_loss_db,
        )
        engine = ArrayFactorEngine.from_linear(array)
        gains[i] = float(
            engine.monostatic_pattern_db(frequency_hz, theta_deg, sound_speed)
        )
    return gains
