"""The complete battery-free VAB node.

A node is the Van Atta array, the pair-line modulation switches, the
energy-harvesting chain, and an ultra-low-power sequencer. It exposes the
two behaviours the rest of the system needs:

* a *communication* face — turn PHY chips into a reflection waveform and
  apply it to an incident carrier (used by the waveform simulator), and
* an *energy* face — how much power it harvests at a given incident level
  and whether that sustains its duty cycle (used by the E8 budget study).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.placement import Pose
from repro.geometry.vec3 import Vec3
from repro.piezo.harvester import EnergyHarvester, PowerBudget
from repro.vanatta.array import VanAttaArray
from repro.vanatta.reflection import reflect_waveform
from repro.vanatta.switching import ModulationSwitch, chips_to_waveform_batch


@dataclass
class VanAttaNode:
    """A deployed Van Atta backscatter node.

    Attributes:
        array: the retrodirective transducer array.
        switch: modulation switch model.
        harvester: energy-harvesting chain.
        budget: consumption model.
        pose: where the node sits and which way it faces.
        node_id: identifier used by the link layer.
    """

    array: VanAttaArray = field(default_factory=VanAttaArray.uniform)
    switch: ModulationSwitch = field(default_factory=ModulationSwitch)
    harvester: EnergyHarvester = field(default_factory=EnergyHarvester)
    budget: PowerBudget = field(default_factory=PowerBudget)
    pose: Pose = field(default_factory=lambda: Pose(Vec3.zero()))
    node_id: int = 1

    # -- communication face ---------------------------------------------------

    def modulation_waveform(
        self, chips: np.ndarray, samples_per_chip: int, fs: float = None
    ) -> np.ndarray:
        """Reflection-amplitude waveforms for a ``(trials, chips)`` block.

        One row per trial (see
        :func:`repro.vanatta.switching.chips_to_waveform_batch`); a 1-D
        chip sequence gives its one waveform.
        """
        chips = np.asarray(chips)
        waves = chips_to_waveform_batch(
            np.atleast_2d(chips), samples_per_chip, self.switch, fs
        )
        return waves if chips.ndim == 2 else waves[0]

    def reflect(
        self,
        incident: np.ndarray,
        modulation: np.ndarray,
        frequency_hz: float,
        theta_deg: float,
        sound_speed: float = 1500.0,
    ) -> np.ndarray:
        """Re-radiate an incident baseband waveform (see reflection module).

        A ``(trials, samples)`` modulation block reflects each row off
        the same incident carrier.
        """
        return reflect_waveform(
            incident, modulation, self.array, frequency_hz, theta_deg, sound_speed
        )

    # -- energy face --------------------------------------------------------------

    def harvested_power_w(self, incident_level_db: float, frequency_hz: float) -> float:
        """DC power harvested from an incident carrier level, watts."""
        return self.harvester.harvested_power_w(incident_level_db, frequency_hz)

    def is_power_sustainable(
        self, incident_level_db: float, frequency_hz: float, bitrate_bps: float = 1000.0
    ) -> bool:
        """True when harvesting covers the node's average consumption."""
        harvested = self.harvested_power_w(incident_level_db, frequency_hz)
        return self.budget.is_sustainable(harvested, bitrate_bps)

    def average_power_w(self, bitrate_bps: float = 1000.0) -> float:
        """Node average consumption including switch gate drive, watts."""
        base = self.budget.average_power_w(bitrate_bps)
        gate = self.switch.switching_power_w(bitrate_bps) * self.budget.duty_cycle
        return base + gate
