"""Analytic backscatter link budget (the sonar equation, round trip).

Signal chain, in dB:

::

    reader TX           SL
    -> one-way loss     - TL(d)
    -> node reflection  + G_array(theta) + 20 log10(depth / 2) - L_node
    -> one-way loss     - TL(d)
    = data level at the hydrophone (the *sideband* level: an OOK switch
      with amplitude contrast `depth` puts `depth/2` of the incident
      amplitude into the data component)

    SNR = data level - NL(B) + PG

where NL is the Wenz in-band noise and PG the processing gain of the
coherent chip matched filter accumulated over the chips of one bit.

The budget powers every fast sweep (E2, E4, E5, E8) and is validated
against the waveform simulator by the integration tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.acoustics.noise import noise_level_db
from repro.acoustics.spreading import transmission_loss_db
from repro.contracts import DB, METERS
from repro.phy.ber import ber_ook_coherent, ber_ook_noncoherent, required_snr_db
from repro.sim.scenario import Scenario
from repro.vanatta.array import VanAttaArray
from repro.vanatta.retrodirective import monostatic_gain


@dataclass(frozen=True)
class LinkBudget:
    """Analytic round-trip budget for one backscatter configuration.

    Attributes:
        scenario: environment and geometry defaults.
        array_gain_db: node monostatic field gain over one ideal element
            (``20 log10 N`` for an N-element Van Atta at broadside).
        modulation_depth: ON/OFF reflection amplitude contrast in (0, 1].
        node_loss_db: miscellaneous node losses (switch insertion, line,
            transducer conversion inefficiency), round trip.
        coherent: reader detection style (coherent matched filter vs
            envelope).
        chips_per_bit: line-code spreading (2 for FM0) — contributes
            ``10 log10`` of processing gain at fixed chip rate.
        si_suppression_db: how far below the source level the reader's
            residual self-interference sits after cancellation. Backscatter
            readers are classically limited by this floor, not by ambient
            noise; ``None`` models a perfect canceller.
        system_loss_db: receiver-side noise figure plus implementation
            loss (hydrophone preamp noise, imperfect sync/phase tracking).
    """

    scenario: Scenario
    array_gain_db: float = 12.0
    modulation_depth: float = 0.85
    node_loss_db: float = 3.0
    coherent: bool = True
    chips_per_bit: int = 2
    si_suppression_db: Optional[float] = 130.0
    system_loss_db: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 < self.modulation_depth <= 1.0:
            raise ValueError("modulation depth must be in (0, 1]")
        if self.chips_per_bit < 1:
            raise ValueError("chips_per_bit must be >= 1")

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def for_array(
        scenario: Scenario,
        array: VanAttaArray,
        theta_deg: float = 0.0,
        modulation_depth: float = 0.85,
        node_loss_db: float = 3.0,
        coherent: bool = True,
    ) -> "LinkBudget":
        """Budget with the array gain evaluated from a real array model."""
        gain = abs(
            monostatic_gain(
                array, scenario.carrier_hz, theta_deg, scenario.water.sound_speed
            )
        )
        return LinkBudget(
            scenario=scenario,
            array_gain_db=20.0 * math.log10(max(gain, 1e-12)),
            modulation_depth=modulation_depth,
            node_loss_db=node_loss_db,
            coherent=coherent,
        )

    # -- budget terms --------------------------------------------------------------

    def one_way_loss_db(self, range_m: METERS) -> DB:
        """One-way transmission loss at a range, dB."""
        return transmission_loss_db(
            range_m,
            self.scenario.carrier_hz,
            self.scenario.water,
            self.scenario.spreading_exponent,
        )

    def incident_level_db(self, range_m: METERS) -> DB:
        """Carrier level arriving at the node, dB re 1 uPa."""
        return self.scenario.source_level_db - self.one_way_loss_db(range_m)

    def reflection_gain_db(self) -> DB:
        """Node's conversion from incident carrier to data sideband, dB.

        ``20 log10(G_array * depth / 2) - L_node``.
        """
        return (
            self.array_gain_db
            + 20.0 * math.log10(self.modulation_depth / 2.0)
            - self.node_loss_db
        )

    def received_data_level_db(self, range_m: METERS) -> DB:
        """Data-sideband level back at the hydrophone, dB re 1 uPa."""
        return (
            self.scenario.source_level_db
            - 2.0 * self.one_way_loss_db(range_m)
            + self.reflection_gain_db()
        )

    def ambient_noise_db(self) -> DB:
        """Ambient noise in the chip-rate bandwidth, dB re 1 uPa."""
        return noise_level_db(
            self.scenario.carrier_hz, self.scenario.chip_rate, self.scenario.noise
        )

    def residual_si_db(self) -> Optional[float]:
        """Residual self-interference level after cancellation, dB re 1 uPa."""
        if self.si_suppression_db is None:
            return None
        return self.scenario.source_level_db - self.si_suppression_db

    def noise_level_in_band_db(self) -> DB:
        """Effective in-band noise: ambient plus residual SI (linear sum)."""
        ambient_db = self.ambient_noise_db()
        si_db = self.residual_si_db()
        if si_db is None:
            return ambient_db
        linear = 10.0 ** (ambient_db / 10.0) + 10.0 ** (si_db / 10.0)
        return 10.0 * math.log10(linear)

    def processing_gain_db(self) -> DB:
        """Coherent accumulation across the chips of one bit."""
        return 10.0 * math.log10(self.chips_per_bit)

    def snr_db(self, range_m: Optional[float] = None) -> DB:
        """Post-processing SNR at a range (scenario range if omitted)."""
        d = self.scenario.range_m if range_m is None else range_m
        return (
            self.received_data_level_db(d)
            - self.noise_level_in_band_db()
            + self.processing_gain_db()
            - self.system_loss_db
        )

    # -- link metrics -------------------------------------------------------------

    def ber(self, range_m: Optional[float] = None) -> float:
        """Predicted bit error rate at a range."""
        snr = self.snr_db(range_m)
        if self.coherent:
            return ber_ook_coherent(snr)
        return ber_ook_noncoherent(snr)

    def max_range_m(
        self,
        target_ber: float = 1e-3,
        lo: float = 1.5,
        hi: float = 20_000.0,
        tol: float = 0.1,
    ) -> float:
        """Largest range meeting a target BER (bisection on the budget).

        Returns ``lo`` if even the shortest range fails, and ``hi`` if the
        target holds everywhere in the bracket.
        """
        snr_needed = required_snr_db(target_ber, self.coherent)
        if self.snr_db(lo) < snr_needed:
            return lo
        if self.snr_db(hi) >= snr_needed:
            return hi
        a, b = lo, hi
        while b - a > tol:
            mid = 0.5 * (a + b)
            if self.snr_db(mid) >= snr_needed:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    def margin_db(self, range_m: METERS, target_ber: float = 1e-3) -> DB:
        """SNR margin above the target-BER requirement at a range."""
        return self.snr_db(range_m) - required_snr_db(target_ber, self.coherent)

    def with_(self, **kwargs) -> "LinkBudget":
        """Copy with selected fields replaced (sweep helper)."""
        return replace(self, **kwargs)
