"""Butterworth–Van Dyke (BVD) equivalent circuit of a piezo transducer.

Near a single resonance a piezoelectric transducer is electrically
equivalent to a static capacitance ``C0`` in parallel with a *motional*
series branch ``Rm — Lm — Cm``:

::

        o────┬────[ Rm ─ Lm ─ Cm ]────┬────o
             │                        │
             └──────────[ C0 ]────────┘

``Lm``/``Cm`` set the (series) resonance where the motional branch looks
purely resistive and electrical power couples best into the water; ``Rm``
lumps the radiation resistance (useful output) with mechanical losses.
This is the model the paper's authors use to co-design the transducer and
the backscatter switch network, and everything the node does — reflection
modulation, harvesting, bandwidth — follows from this impedance curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.contracts import HZ, OHM


@dataclass(frozen=True)
class BVDModel:
    """BVD parameters of one transducer element.

    Attributes:
        c0_farad: static (clamped) capacitance.
        rm_ohm: motional resistance (radiation + loss).
        lm_henry: motional inductance.
        cm_farad: motional capacitance.
        radiation_fraction: fraction of ``rm_ohm`` that is radiation
            resistance (electro-acoustic efficiency at resonance).
    """

    c0_farad: float
    rm_ohm: float
    lm_henry: float
    cm_farad: float
    radiation_fraction: float = 0.7

    def __post_init__(self) -> None:
        for name in ("c0_farad", "rm_ohm", "lm_henry", "cm_farad"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.radiation_fraction <= 1.0:
            raise ValueError("radiation_fraction must be in (0, 1]")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_resonance(
        resonance_hz: HZ,
        q_factor: float = 7.0,
        c0_farad: float = 10e-9,
        capacitance_ratio: float = 12.0,
        radiation_fraction: float = 0.7,
    ) -> "BVDModel":
        """Build a BVD model from designer-facing quantities.

        Args:
            resonance_hz: series resonance frequency ``f_s``.
            q_factor: quality factor at resonance. In water the radiation
                load damps the ceramic heavily: Q ~ 5-10 is typical for a
                potted cylinder (vs tens in air), which is what buys the
                bandwidth the PHY chip rate needs.
            c0_farad: static capacitance.
            capacitance_ratio: ``C0 / Cm`` (stiffness ratio; ~10–30 for
                potted ceramic cylinders; lower = stronger coupling).
            radiation_fraction: efficiency split of ``Rm``.
        """
        if resonance_hz <= 0 or q_factor <= 0 or capacitance_ratio <= 0:
            raise ValueError("resonance, Q, and capacitance ratio must be positive")
        w_s = 2.0 * math.pi * resonance_hz
        cm = c0_farad / capacitance_ratio
        lm = 1.0 / (w_s * w_s * cm)
        rm = w_s * lm / q_factor
        return BVDModel(
            c0_farad=c0_farad,
            rm_ohm=rm,
            lm_henry=lm,
            cm_farad=cm,
            radiation_fraction=radiation_fraction,
        )

    @staticmethod
    def vab_element(resonance_hz: HZ = 18_500.0) -> "BVDModel":
        """The default element used throughout the reproduction.

        An 18.5 kHz potted cylinder with water-loaded Q ~ 7, matching the
        band and the ~2 kHz usable bandwidth the paper's transducers and
        bitrates imply.
        """
        return BVDModel.from_resonance(resonance_hz)

    # -- derived quantities ---------------------------------------------------

    @property
    def series_resonance_hz(self) -> HZ:
        """Series (motional) resonance ``f_s``."""
        return 1.0 / (2.0 * math.pi * math.sqrt(self.lm_henry * self.cm_farad))

    @property
    def parallel_resonance_hz(self) -> HZ:
        """Parallel (anti-) resonance ``f_p > f_s``."""
        c_eff = self.cm_farad * self.c0_farad / (self.cm_farad + self.c0_farad)
        return 1.0 / (2.0 * math.pi * math.sqrt(self.lm_henry * c_eff))

    @property
    def q_factor(self) -> float:
        """Mechanical quality factor at series resonance."""
        w_s = 2.0 * math.pi * self.series_resonance_hz
        return w_s * self.lm_henry / self.rm_ohm

    @property
    def coupling_coefficient(self) -> float:
        """Effective electro-mechanical coupling ``k_eff`` in (0, 1)."""
        fs = self.series_resonance_hz
        fp = self.parallel_resonance_hz
        return math.sqrt(1.0 - (fs / fp) ** 2)

    def bandwidth_hz(self) -> HZ:
        """-3 dB bandwidth of the motional branch, ``f_s / Q``."""
        return self.series_resonance_hz / self.q_factor

    # -- impedance -----------------------------------------------------------

    def motional_impedance(self, frequency_hz: HZ) -> complex:
        """Impedance of the series Rm–Lm–Cm branch."""
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        w = 2.0 * math.pi * frequency_hz
        return complex(
            self.rm_ohm, w * self.lm_henry - 1.0 / (w * self.cm_farad)
        )

    def impedance(self, frequency_hz: HZ) -> complex:
        """Terminal impedance: motional branch in parallel with ``C0``."""
        zm = self.motional_impedance(frequency_hz)
        w = 2.0 * math.pi * frequency_hz
        zc0 = 1.0 / complex(0.0, w * self.c0_farad)
        return zm * zc0 / (zm + zc0)

    def admittance(self, frequency_hz: HZ) -> complex:
        """Terminal admittance."""
        return 1.0 / self.impedance(frequency_hz)

    def radiation_resistance(self) -> OHM:
        """The radiating part of ``Rm``, ohms."""
        return self.rm_ohm * self.radiation_fraction

    def conjugate_match(self, frequency_hz: HZ) -> complex:
        """The load that absorbs maximum power at ``frequency_hz``."""
        return self.impedance(frequency_hz).conjugate()

    def __repr__(self) -> str:  # compact, designer-facing
        return (
            f"BVDModel(fs={self.series_resonance_hz:.0f} Hz, "
            f"Q={self.q_factor:.1f}, C0={self.c0_farad * 1e9:.1f} nF, "
            f"keff={self.coupling_coefficient:.2f})"
        )
