"""Frequency-dependent acoustic absorption in water.

Two standard models are provided:

* **Thorp (1967)** — the classic sea-water fit, a function of frequency
  only. Cheap and accurate near 20 kHz where VAB operates.
* **Francois–Garrison (1982)** — the full model with boric-acid and
  magnesium-sulphate relaxation plus pure-water viscosity, parameterised by
  temperature, salinity, depth, and pH. This is what lets the simulator
  distinguish river (fresh) from ocean (salt) water: at 18.5 kHz fresh
  water absorbs roughly an order of magnitude less than sea water.

Both return absorption in **dB per kilometre**; one-way path absorption is
``alpha * distance_km`` and backscatter pays it twice.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.acoustics.constants import WaterProperties
from repro.contracts import DB_PER_KM, HZ


def absorption_thorp(frequency_hz: HZ) -> DB_PER_KM:
    """Thorp's absorption formula, dB/km.

    Valid for sea water, roughly 100 Hz – 1 MHz.

    Args:
        frequency_hz: acoustic frequency in Hz.

    Returns:
        Absorption coefficient in dB/km.
    """
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    f_khz = frequency_hz / 1e3
    f2 = f_khz * f_khz
    return (
        0.11 * f2 / (1.0 + f2)
        + 44.0 * f2 / (4100.0 + f2)
        + 2.75e-4 * f2
        + 0.003
    )


def absorption_francois_garrison(
    frequency_hz: HZ, water: WaterProperties
) -> DB_PER_KM:
    """Francois–Garrison (1982) absorption, dB/km.

    Accounts for boric-acid relaxation, magnesium-sulphate relaxation, and
    pure-water viscous absorption. Handles low salinity (rivers) where the
    ionic relaxation terms nearly vanish.

    Args:
        frequency_hz: acoustic frequency in Hz.
        water: bulk water properties at the site.

    Returns:
        Absorption coefficient in dB/km.
    """
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    f = frequency_hz / 1e3  # model works in kHz
    t = water.temperature_c
    s = max(water.salinity_ppt, 0.0)
    d = water.depth_m / 1e3  # km
    ph = water.ph
    c = 1412.0 + 3.21 * t + 1.19 * s + 0.0167 * water.depth_m

    theta = t + 273.0

    # Boric acid contribution (vanishes with salinity).
    if s > 0:
        a1 = (8.86 / c) * 10.0 ** (0.78 * ph - 5.0)
        p1 = 1.0
        f1 = 2.8 * math.sqrt(s / 35.0) * 10.0 ** (4.0 - 1245.0 / theta)
        boric = (a1 * p1 * f1 * f * f) / (f1 * f1 + f * f)
    else:
        boric = 0.0

    # Magnesium sulphate contribution (vanishes with salinity).
    if s > 0:
        a2 = 21.44 * (s / c) * (1.0 + 0.025 * t)
        p2 = 1.0 - 1.37e-4 * water.depth_m + 6.2e-9 * water.depth_m**2
        f2 = (8.17 * 10.0 ** (8.0 - 1990.0 / theta)) / (1.0 + 0.0018 * (s - 35.0))
        mgso4 = (a2 * p2 * f2 * f * f) / (f2 * f2 + f * f)
    else:
        mgso4 = 0.0

    # Pure water viscosity.
    if t <= 20.0:
        a3 = (
            4.937e-4
            - 2.59e-5 * t
            + 9.11e-7 * t**2
            - 1.50e-8 * t**3
        )
    else:
        a3 = (
            3.964e-4
            - 1.146e-5 * t
            + 1.45e-7 * t**2
            - 6.5e-10 * t**3
        )
    p3 = 1.0 - 3.83e-5 * water.depth_m + 4.9e-10 * water.depth_m**2
    viscous = a3 * p3 * f * f

    __ = d  # depth enters through the pressure corrections p2, p3
    return boric + mgso4 + viscous


def absorption_db_per_km(
    frequency_hz: HZ, water: Optional[WaterProperties] = None
) -> DB_PER_KM:
    """Absorption for a site, choosing the best available model.

    With no ``water`` given, falls back to Thorp (sea water). With water
    properties, uses Francois–Garrison so fresh and salt water differ.
    """
    if water is None:
        return absorption_thorp(frequency_hz)
    return absorption_francois_garrison(frequency_hz, water)
