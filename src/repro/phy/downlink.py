"""Downlink: pulse-interval encoding (PIE) of reader commands.

The node has no radio — its downlink receiver is a passive envelope
detector plus a comparator, so commands must be decodable from carrier
amplitude timing alone. PIE encodes each bit as a high interval followed
by a fixed low pulse; a ``1`` holds high longer than a ``0``. The scheme
is self-clocking (every bit ends with the same low pulse) and keeps the
carrier mostly ON so the node harvests through its own downlink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.phy.bits import as_bits


@dataclass(frozen=True)
class PIEConfig:
    """PIE timing parameters.

    Attributes:
        tari_s: reference interval ("Type A Reference Interval") — the
            high time of a data-0, seconds.
        one_ratio: data-1 high time as a multiple of tari (1.5–2 typical).
        low_s: the fixed OFF pulse ending every bit, seconds.
    """

    tari_s: float = 2e-3
    one_ratio: float = 2.0
    low_s: float = 1e-3

    def __post_init__(self) -> None:
        if self.tari_s <= 0 or self.low_s <= 0:
            raise ValueError("intervals must be positive")
        if self.one_ratio <= 1.0:
            raise ValueError("one_ratio must exceed 1")

    def bit_duration_s(self, bit: int) -> float:
        """Total duration of one encoded bit, seconds."""
        high = self.tari_s * (self.one_ratio if bit else 1.0)
        return high + self.low_s

    def average_bitrate_bps(self) -> float:
        """Bitrate assuming equiprobable bits."""
        avg = (self.bit_duration_s(0) + self.bit_duration_s(1)) / 2.0
        return 1.0 / avg


def pie_encode(
    bits: Sequence[int], fs: float, config: Optional[PIEConfig] = None
) -> np.ndarray:
    """Encode bits into a carrier amplitude envelope (0/1 values).

    Args:
        bits: command bits.
        fs: sample rate of the envelope, Hz.
        config: PIE timing.

    Returns:
        Real array of 0.0/1.0 amplitude values.
    """
    if config is None:
        config = PIEConfig()
    segments = []
    low_n = max(int(round(config.low_s * fs)), 1)
    for b in as_bits(bits).tolist():
        high_s = config.tari_s * (config.one_ratio if b else 1.0)
        high_n = max(int(round(high_s * fs)), 1)
        segments.append(np.ones(high_n))
        segments.append(np.zeros(low_n))
    if not segments:
        return np.zeros(0)
    return np.concatenate(segments)


def pie_decode(
    envelope: np.ndarray,
    fs: float,
    config: Optional[PIEConfig] = None,
    threshold: float = 0.5,
) -> np.ndarray:
    """Decode a PIE envelope back to bits (the node's comparator + timer).

    Measures the duration of each high interval between low pulses and
    thresholds at the midpoint between the 0 and 1 durations.

    Args:
        envelope: received amplitude envelope (any positive scale).
        fs: sample rate, Hz.
        config: PIE timing used by the encoder.
        threshold: comparator level as a fraction of the envelope maximum.

    Returns:
        Decoded bit array (possibly empty).
    """
    if config is None:
        config = PIEConfig()
    env = np.asarray(envelope, dtype=np.float64)
    if env.size == 0:
        return np.zeros(0, dtype=np.int64)
    peak = env.max()
    if peak <= 0:
        return np.zeros(0, dtype=np.int64)
    digital = env > threshold * peak

    # Run-length extract the high intervals.
    bits = []
    decision_s = config.tari_s * (1.0 + config.one_ratio) / 2.0
    run_start = None
    for i, level in enumerate(digital):
        if level and run_start is None:
            run_start = i
        elif not level and run_start is not None:
            duration = (i - run_start) / fs
            bits.append(1 if duration > decision_s else 0)
            run_start = None
    # A trailing high run with no terminating low pulse is not a complete
    # bit; PIE always ends bits with the low pulse, so it is discarded.
    return np.array(bits, dtype=np.int64)
