"""A conventional (non-Van-Atta) reflecting array.

Same elements, same aperture, same switch — but each element re-radiates
the signal *it* received instead of its mirror twin's. The incident phase
gradient is then doubled rather than conjugated on re-transmission, so the
reflection is coherent only at broadside and collapses as ``theta`` moves
off axis. This is the "flat reflector" curve in the paper's
retrodirectivity figure, and the null hypothesis the Van Atta design is
measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.vanatta.node import VanAttaNode
from repro.vanatta.reflection import hold_to_length


def conventional_monostatic_gain(
    positions_m: np.ndarray,
    frequency_hz: float,
    theta_deg: float,
    sound_speed: float = 1500.0,
    element_gain: float = 1.0,
    line_gain: float = 1.0,
) -> complex:
    """Monostatic response of a self-reflecting array.

    Element ``i`` contributes ``exp(j 2 k x_i sin(theta))`` — the incident
    phase is *repeated*, not conjugated, so off-broadside terms decohere.
    """
    if frequency_hz <= 0 or sound_speed <= 0:
        raise ValueError("frequency and sound speed must be positive")
    k = 2.0 * math.pi * frequency_hz / sound_speed
    u = math.sin(math.radians(theta_deg))
    phases = 2.0 * k * np.asarray(positions_m, dtype=np.float64) * u
    total = np.exp(1j * phases).sum()
    return complex(total * line_gain * element_gain**2)


def conventional_monostatic_gain_db(
    positions_m: np.ndarray,
    frequency_hz: float,
    theta_deg: float,
    sound_speed: float = 1500.0,
) -> float:
    """Monostatic gain of the self-reflecting array, dB re one element."""
    mag = abs(
        conventional_monostatic_gain(positions_m, frequency_hz, theta_deg, sound_speed)
    )
    return 20.0 * math.log10(max(mag, 1e-15))


@dataclass
class ConventionalNode(VanAttaNode):
    """A node whose array reflects conventionally (no pair wiring).

    Drop-in replacement for :class:`~repro.vanatta.node.VanAttaNode` in
    the waveform simulator; only the reflection physics differs.
    """

    def reflect(
        self,
        incident: np.ndarray,
        modulation: np.ndarray,
        frequency_hz: float,
        theta_deg: float,
        sound_speed: float = 1500.0,
    ) -> np.ndarray:
        """Re-radiate with the self-reflecting (non-retrodirective) gain."""
        incident = np.asarray(incident, dtype=np.complex128)
        modulation = hold_to_length(modulation, incident.shape[-1])
        g_elem = self.array.element.element_gain(theta_deg)
        gain = conventional_monostatic_gain(
            self.array.positions_m,
            frequency_hz,
            theta_deg,
            sound_speed,
            element_gain=g_elem,
            line_gain=self.array.line_gain(),
        )
        return incident * modulation * gain
