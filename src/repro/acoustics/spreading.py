"""Geometric spreading and one-way transmission loss.

Shallow coastal water sits between spherical spreading (k = 20, deep open
water) and cylindrical spreading (k = 10, ideal waveguide); the usual
engineering compromise is *practical spreading* k = 15. The spreading
exponent is exposed so scenarios can pick what matches their geometry —
the river preset, with its shallow depth relative to range, uses a lower
exponent than the short-range ocean tests.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.acoustics.absorption import absorption_db_per_km
from repro.acoustics.constants import REFERENCE_DISTANCE_M, WaterProperties
from repro.contracts import DB, HZ, LINEAR, METERS

SPHERICAL_EXPONENT = 20.0
PRACTICAL_EXPONENT = 15.0
CYLINDRICAL_EXPONENT = 10.0


def spreading_loss_db(distance_m: METERS, exponent: float = PRACTICAL_EXPONENT) -> DB:
    """Geometric spreading loss at ``distance_m``, dB.

    Args:
        distance_m: path length in metres (must be >= the 1 m reference).
        exponent: spreading exponent k in ``k * log10(d)``; 20 spherical,
            15 practical, 10 cylindrical.

    Returns:
        Loss in dB relative to the 1 m reference distance.
    """
    if distance_m < REFERENCE_DISTANCE_M:
        raise ValueError(
            f"distance {distance_m} m is inside the {REFERENCE_DISTANCE_M} m reference"
        )
    return exponent * math.log10(distance_m / REFERENCE_DISTANCE_M)


def transmission_loss_db(
    distance_m: METERS,
    frequency_hz: HZ,
    water: Optional[WaterProperties] = None,
    spreading_exponent: float = PRACTICAL_EXPONENT,
) -> DB:
    """One-way transmission loss: spreading plus absorption, dB.

    ``TL = k log10(d) + alpha(f) * d / 1000``

    Args:
        distance_m: path length, metres.
        frequency_hz: acoustic frequency, Hz.
        water: water properties for the absorption model (Thorp if None).
        spreading_exponent: geometric spreading exponent.

    Returns:
        One-way transmission loss in dB. A backscatter round trip pays
        this twice (minus whatever the node re-radiates coherently).
    """
    alpha = absorption_db_per_km(frequency_hz, water)
    return spreading_loss_db(distance_m, spreading_exponent) + alpha * distance_m / 1e3


def amplitude_gain(
    distance_m: METERS,
    frequency_hz: HZ,
    water: Optional[WaterProperties] = None,
    spreading_exponent: float = PRACTICAL_EXPONENT,
) -> LINEAR:
    """Linear pressure-amplitude gain (<1) over a one-way path."""
    tl_db = transmission_loss_db(distance_m, frequency_hz, water, spreading_exponent)
    return 10.0 ** (-tl_db / 20.0)
