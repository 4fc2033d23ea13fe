"""The modulation switch joining each Van Atta pair.

The node signals by opening and closing an analog switch placed in the
middle of every pair's transmission line:

* **closed** — the pair is connected: the array retrodirects the carrier
  (the "reflective" state);
* **open** — each element sees its termination instead: the captured
  energy is absorbed (and harvested), and almost nothing returns.

The switch is the only active component in the uplink path, so its
insertion loss and the OFF-state leakage bound the modulation depth, and
its transition time bounds the chip rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ModulationSwitch:
    """Electrical behaviour of the pair-line switch.

    Attributes:
        insertion_loss_db: loss through the closed switch (per pass).
        off_isolation_db: how far below the ON reflection the OFF-state
            residual sits (structural/static reflection leakage).
        transition_time_s: 10-90% settling time of a state change.
        gate_energy_j: energy to toggle the switch once.
    """

    insertion_loss_db: float = 0.4
    off_isolation_db: float = 25.0
    transition_time_s: float = 20e-6
    gate_energy_j: float = 1.5e-9

    def __post_init__(self) -> None:
        if self.insertion_loss_db < 0 or self.off_isolation_db <= 0:
            raise ValueError("losses must be non-negative / positive")
        if self.transition_time_s < 0:
            raise ValueError("transition time must be non-negative")

    @property
    def on_amplitude(self) -> float:
        """Linear reflection amplitude in the ON (connected) state."""
        return 10.0 ** (-self.insertion_loss_db / 20.0)

    @property
    def off_amplitude(self) -> float:
        """Residual reflection amplitude in the OFF (terminated) state."""
        return self.on_amplitude * 10.0 ** (-self.off_isolation_db / 20.0)

    @property
    def modulation_depth(self) -> float:
        """ON/OFF amplitude contrast in (0, 1]; 1 = ideal lossless keying."""
        return self.on_amplitude - self.off_amplitude

    def max_chip_rate_hz(self, settle_fraction: float = 0.2) -> float:
        """Highest chip rate keeping transitions under a chip fraction."""
        if self.transition_time_s == 0:
            return math.inf
        if not 0 < settle_fraction < 1:
            raise ValueError("settle fraction in (0, 1)")
        return settle_fraction / self.transition_time_s

    def switching_power_w(self, chip_rate_hz: float) -> float:
        """Average gate-drive power at a chip rate, watts."""
        if chip_rate_hz < 0:
            raise ValueError("chip rate must be non-negative")
        return self.gate_energy_j * chip_rate_hz


def chips_to_waveform_batch(
    chips: np.ndarray,
    samples_per_chip: int,
    switch: ModulationSwitch,
    fs: float = None,
) -> np.ndarray:
    """Expand a ``(trials, chips)`` block into reflection-amplitude waveforms.

    Chip value 1 maps to the ON amplitude, 0 to the OFF residual. When
    ``fs`` gives a transition ramp longer than one sample, state changes
    are smoothed with the switch transition time (a moving average
    shifted back by its group delay, holding the last value) instead of
    being instantaneous; campaigns at the default rates never hit it.

    Args:
        chips: binary chip rows (from the PHY line coder).
        samples_per_chip: waveform samples per chip.
        switch: switch model supplying the two amplitudes.
        fs: sample rate; enables transition shaping when provided.

    Returns:
        Real ``(trials, chips * samples_per_chip)`` amplitude waveforms.
    """
    if samples_per_chip < 1:
        raise ValueError("samples_per_chip must be >= 1")
    chips = np.asarray(chips, dtype=np.int64)
    if chips.ndim != 2:
        raise ValueError("chips must be a (trials, chips) array")
    if chips.size and not ((chips == 0) | (chips == 1)).all():
        raise ValueError("chips must be 0/1")
    levels = np.where(chips == 1, switch.on_amplitude, switch.off_amplitude)
    wave = np.repeat(levels, samples_per_chip, axis=1).astype(
        np.float64, copy=False
    )
    n = wave.shape[1]
    if fs is None or switch.transition_time_s == 0 or n == 0:
        return wave
    ramp = max(int(round(switch.transition_time_s * fs)), 1)
    if ramp <= 1:
        return wave
    kernel = np.ones(ramp) / ramp
    # The moving average delays by (ramp - 1) // 2 samples; shift back.
    shift = min((ramp - 1) // 2, n)
    for row in wave:
        smoothed = np.convolve(row, kernel, mode="full")[:n]
        row[: n - shift] = smoothed[shift:]
        row[n - shift :] = smoothed[-1]
    return wave


def chips_to_waveform(
    chips: Sequence[int],
    samples_per_chip: int,
    switch: ModulationSwitch,
    fs: float = None,
) -> np.ndarray:
    """Expand a chip sequence into the node's reflection-amplitude waveform.

    A 1-row call of :func:`chips_to_waveform_batch`.

    Returns:
        Real amplitude waveform of length ``len(chips) * samples_per_chip``.
    """
    return chips_to_waveform_batch(
        np.asarray(chips)[None], samples_per_chip, switch, fs
    )[0]
