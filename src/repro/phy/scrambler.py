"""Payload scrambling (whitening).

Sensor payloads are pathological bit patterns: long runs of zeros
(idle registers), repeated bytes (stuck readings). FM0 bounds chip runs
regardless, but biased *bit* statistics still shape the spectrum and — in
long frames — starve the decision-directed loops of transitions on one
side of the eye. XOR-ing the payload with a fixed PN sequence whitens it
at zero hardware cost (the node's LFSR already exists for slot draws),
and descrambling is the same XOR.

Scrambling is self-synchronising here because frames are short and the
PN offset restarts at every frame.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.phy.bits import as_bits, pn_sequence

SCRAMBLER_TAPS = (7, 6)
SCRAMBLER_SEED = 0b1011011


def scramble(bits: Sequence[int]) -> np.ndarray:
    """XOR the last axis with the frame-aligned PN sequence.

    Every row of a ``(rows, n)`` matrix restarts the sequence.
    """
    bits = as_bits(bits)
    pn = pn_sequence(bits.shape[-1], taps=SCRAMBLER_TAPS, seed=SCRAMBLER_SEED)
    return bits ^ pn


def descramble(bits: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`scramble` (XOR is an involution)."""
    return scramble(bits)


def run_length_max(bits: Sequence[int]) -> int:
    """Longest run of identical bits (0 for an empty stream)."""
    bits = np.asarray(list(bits), dtype=np.int64)
    if bits.size == 0:
        return 0
    boundaries = np.flatnonzero(np.diff(bits) != 0)
    edges = np.concatenate([[-1], boundaries, [bits.size - 1]])
    return int(np.diff(edges).max())


def bias(bits: Sequence[int]) -> float:
    """How far the ones-density sits from 1/2 (0 = perfectly balanced)."""
    bits = np.asarray(list(bits), dtype=np.int64)
    if bits.size == 0:
        return 0.0
    return abs(float(bits.mean()) - 0.5)
