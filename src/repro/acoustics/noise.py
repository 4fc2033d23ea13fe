"""Ambient noise in the underwater channel (Wenz curves).

The standard decomposition models four independent sources, each with an
empirical power spectral density in dB re 1 uPa^2/Hz:

* turbulence (dominates below ~10 Hz),
* distant shipping (10–100 Hz, scaled by a shipping-activity factor),
* wind-driven surface agitation (100 Hz – 100 kHz, scaled by wind speed),
* thermal noise (dominates above ~100 kHz).

At VAB's ~18.5 kHz carrier the wind term dominates, which is why sea state
is the knob that separates the river and ocean experiments.

PSDs combine in linear power. :func:`noise_level_db` integrates the PSD
over a receiver bandwidth to get the in-band noise level used by link
budgets, and :func:`repro.dsp.noisegen` synthesises time-domain noise with
this spectrum for the waveform simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.contracts import DB, HZ, MPS


def wenz_turbulence_psd_db(frequency_hz: HZ) -> DB:
    """Turbulence noise PSD, dB re 1 uPa^2/Hz."""
    f_khz = max(frequency_hz, 1e-3) / 1e3
    return 17.0 - 30.0 * math.log10(f_khz)


def wenz_shipping_psd_db(frequency_hz: HZ, shipping: float) -> DB:
    """Distant-shipping noise PSD, dB re 1 uPa^2/Hz.

    Args:
        frequency_hz: frequency in Hz.
        shipping: activity factor in [0, 1]; 0 remote, 1 busy harbour.
    """
    if not 0.0 <= shipping <= 1.0:
        raise ValueError("shipping factor must be in [0, 1]")
    f_khz = max(frequency_hz, 1e-3) / 1e3
    return (
        40.0
        + 20.0 * (shipping - 0.5)
        + 26.0 * math.log10(f_khz)
        - 60.0 * math.log10(f_khz + 0.03)
    )


def wenz_wind_psd_db(frequency_hz: HZ, wind_speed_mps: MPS) -> DB:
    """Wind/surface-agitation noise PSD, dB re 1 uPa^2/Hz.

    Args:
        frequency_hz: frequency in Hz.
        wind_speed_mps: wind speed at the surface, m/s.
    """
    if wind_speed_mps < 0:
        raise ValueError("wind speed must be non-negative")
    f_khz = max(frequency_hz, 1e-3) / 1e3
    return (
        50.0
        + 7.5 * math.sqrt(wind_speed_mps)
        + 20.0 * math.log10(f_khz)
        - 40.0 * math.log10(f_khz + 0.4)
    )


def wenz_thermal_psd_db(frequency_hz: HZ) -> DB:
    """Thermal noise PSD, dB re 1 uPa^2/Hz."""
    f_khz = max(frequency_hz, 1e-3) / 1e3
    return -15.0 + 20.0 * math.log10(f_khz)


@dataclass(frozen=True)
class NoiseConditions:
    """Environmental noise parameters at a site.

    Attributes:
        wind_speed_mps: surface wind speed, m/s (sea state proxy).
        shipping: shipping-activity factor in [0, 1].
    """

    wind_speed_mps: float = 5.0
    shipping: float = 0.5

    @staticmethod
    def quiet_river() -> "NoiseConditions":
        """Calm urban river: little wind fetch, moderate vessel activity."""
        return NoiseConditions(wind_speed_mps=2.0, shipping=0.4)

    @staticmethod
    def coastal_ocean(sea_state: int = 3) -> "NoiseConditions":
        """Coastal ocean parameterised by WMO sea state 0-6."""
        if not 0 <= sea_state <= 6:
            raise ValueError("sea state must be in 0..6")
        wind_by_state = [0.5, 2.0, 4.5, 7.0, 9.5, 12.5, 16.0]
        return NoiseConditions(wind_speed_mps=wind_by_state[sea_state], shipping=0.5)

    def psd_db(self, frequency_hz: float) -> float:
        """Total ambient-noise PSD at a frequency, dB re 1 uPa^2/Hz."""
        return total_noise_psd_db(frequency_hz, self)

    def psd_db_array(self, frequencies_hz: np.ndarray) -> np.ndarray:
        """Vectorized total PSD over an array of frequencies."""
        return total_noise_psd_db_array(frequencies_hz, self)


def total_noise_psd_db(frequency_hz: HZ, conditions: NoiseConditions) -> DB:
    """Sum the four Wenz components in linear power; return dB re 1 uPa^2/Hz."""
    components_db = (
        wenz_turbulence_psd_db(frequency_hz),
        wenz_shipping_psd_db(frequency_hz, conditions.shipping),
        wenz_wind_psd_db(frequency_hz, conditions.wind_speed_mps),
        wenz_thermal_psd_db(frequency_hz),
    )
    linear = sum(10.0 ** (c_db / 10.0) for c_db in components_db)
    return 10.0 * math.log10(linear)


def total_noise_psd_db_array(
    frequencies_hz: np.ndarray, conditions: NoiseConditions
) -> np.ndarray:
    """Vectorized :func:`total_noise_psd_db` over an array of frequencies.

    Evaluates the four Wenz components with array operations and sums
    them in linear power — the per-bin shaping of a 10k-sample noise
    record drops from tens of milliseconds to microseconds, which is the
    difference between waveform campaigns topping out at dozens of trials
    and the paper's >1,500.
    """
    if not 0.0 <= conditions.shipping <= 1.0:
        raise ValueError("shipping factor must be in [0, 1]")
    if conditions.wind_speed_mps < 0:
        raise ValueError("wind speed must be non-negative")
    f_khz = np.maximum(np.asarray(frequencies_hz, dtype=np.float64), 1e-3) / 1e3
    log_f = np.log10(f_khz)
    turbulence_db = 17.0 - 30.0 * log_f
    shipping_db = (
        40.0
        + 20.0 * (conditions.shipping - 0.5)
        + 26.0 * log_f
        - 60.0 * np.log10(f_khz + 0.03)
    )
    wind_db = (
        50.0
        + 7.5 * math.sqrt(conditions.wind_speed_mps)
        + 20.0 * log_f
        - 40.0 * np.log10(f_khz + 0.4)
    )
    thermal_db = -15.0 + 20.0 * log_f
    linear = (
        10.0 ** (turbulence_db / 10.0)
        + 10.0 ** (shipping_db / 10.0)
        + 10.0 ** (wind_db / 10.0)
        + 10.0 ** (thermal_db / 10.0)
    )
    return 10.0 * np.log10(linear)


def noise_level_db(
    center_frequency_hz: HZ,
    bandwidth_hz: HZ,
    conditions: NoiseConditions,
    points: int = 32,
) -> DB:
    """In-band ambient noise level, dB re 1 uPa.

    Integrates the total PSD across ``bandwidth_hz`` centred on
    ``center_frequency_hz`` (trapezoidal, in linear power).

    Args:
        center_frequency_hz: receiver centre frequency, Hz.
        bandwidth_hz: receiver noise bandwidth, Hz.
        conditions: site noise conditions.
        points: integration grid size.

    Returns:
        Total in-band noise level in dB re 1 uPa.
    """
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    lo = max(center_frequency_hz - bandwidth_hz / 2.0, 1.0)
    hi = center_frequency_hz + bandwidth_hz / 2.0
    freqs = np.linspace(lo, hi, points)
    psd_linear = np.array(
        [10.0 ** (total_noise_psd_db(float(f), conditions) / 10.0) for f in freqs]
    )
    power = float(np.trapezoid(psd_linear, freqs))
    return 10.0 * math.log10(power)
