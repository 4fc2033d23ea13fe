"""Time-domain reflection operator for the waveform simulator.

The end-to-end simulator propagates the reader's carrier to the node,
asks the node what comes back, and propagates that to the hydrophone.
This module implements the middle step under the narrowband assumption
(signal bandwidth ~1 kHz << carrier 18.5 kHz, array aperture ~0.1 ms of
travel time << chip duration ~1 ms):

``reflected(t) = incident(t) * m(t) * G_array(theta)``

where ``m(t)`` is the switch amplitude waveform and ``G_array`` the
monostatic phasor gain of the array toward the reader. The narrowband
assumption is exactly what makes Van Atta arrays practical at these
scales, and it keeps the simulator fast enough for 1,500-trial campaigns.
"""

from __future__ import annotations

import numpy as np

from repro.memo import memoize
from repro.vanatta.array import VanAttaArray
from repro.vanatta.retrodirective import monostatic_gain


def hold_to_length(modulation: np.ndarray, n: int) -> np.ndarray:
    """Fit a modulation waveform (or block of rows) to ``n`` samples.

    Shorter waveforms are padded with their last value (the node holds
    its final state; an empty one pads with zeros), longer ones are
    truncated, along the last axis.
    """
    modulation = np.asarray(modulation, dtype=np.float64)
    n_mod = modulation.shape[-1]
    if n_mod < n:
        if n_mod:
            pad_value = modulation[..., -1:]
            pad = np.broadcast_to(
                pad_value, modulation.shape[:-1] + (n - n_mod,)
            )
        else:
            pad = np.zeros(modulation.shape[:-1] + (n - n_mod,))
        modulation = np.concatenate([modulation, pad], axis=-1)
    return modulation[..., :n]


@memoize(16)
def _monostatic_gain(
    array: VanAttaArray, frequency_hz: float, theta_deg: float, sound_speed: float
) -> complex:
    """:func:`monostatic_gain` memoized by value: every tile of a
    campaign point reflects off the same array at the same angle."""
    return monostatic_gain(array, frequency_hz, theta_deg, sound_speed)


def reflect_waveform(
    incident: np.ndarray,
    modulation: np.ndarray,
    array: VanAttaArray,
    frequency_hz: float,
    theta_deg: float,
    sound_speed: float = 1500.0,
) -> np.ndarray:
    """Reflect an incident complex baseband waveform off a modulated array.

    Args:
        incident: complex baseband samples of the carrier at the node.
        modulation: real reflection-amplitude waveform (from
            :func:`repro.vanatta.switching.chips_to_waveform`), fitted
            to the incident length by :func:`hold_to_length`. A
            ``(trials, samples)`` block reflects each row off the same
            incident carrier, returning a matching block.
        array: the Van Atta array doing the reflecting.
        frequency_hz: carrier frequency.
        theta_deg: incidence angle from array broadside, degrees.
        sound_speed: medium sound speed.

    Returns:
        Complex baseband waveform re-radiated toward the reader.
    """
    incident = np.asarray(incident, dtype=np.complex128)
    modulation = hold_to_length(modulation, incident.shape[-1])
    gain = _monostatic_gain(
        array, float(frequency_hz), float(theta_deg), float(sound_speed)
    )
    reflected = incident * modulation
    reflected *= gain
    return reflected
