"""Bit-array utilities.

Bits are ``numpy`` int64 arrays of 0/1, most significant bit first within
each byte (network order).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.rng import fallback_rng


def bits_from_bytes(data: bytes) -> np.ndarray:
    """Unpack bytes into an MSB-first bit array."""
    if len(data) == 0:
        return np.zeros(0, dtype=np.int64)
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    return np.unpackbits(arr).astype(np.int64)


def as_bits(bits: Sequence[int], ndim: Optional[int] = None) -> np.ndarray:
    """``bits`` as an int64 array of 0/1: the PHY's one bit validator.

    The line codes, the FEC, the CRC and their batched kernels all
    convert through it, once per call; an int64 array passes through
    without a copy.

    Args:
        bits: a bit sequence, or an array of any shape.
        ndim: the number of axes required (None accepts any).

    Raises:
        ValueError: on a value other than 0/1, or on the wrong number
            of axes.
    """
    if isinstance(bits, np.ndarray):
        arr = bits if bits.dtype == np.int64 else bits.astype(np.int64)
    else:
        arr = np.asarray(list(bits), dtype=np.int64)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"bits must have {ndim} axes, got shape {arr.shape}")
    # 0 and 1 are the only int64 values with no bit set above bit 0.
    if np.count_nonzero(arr & -2):
        raise ValueError("bits must be 0/1")
    return arr


def bits_to_bytes(bits: Sequence[int]) -> bytes:
    """Pack an MSB-first bit array into bytes.

    Raises:
        ValueError: if the bit count is not a multiple of 8 or any value
            is not 0/1.
    """
    arr = as_bits(bits)
    if arr.size % 8 != 0:
        raise ValueError(f"bit count {arr.size} is not a multiple of 8")
    if arr.size == 0:
        return b""
    return np.packbits(arr.astype(np.uint8)).tobytes()


def random_bits(n: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Uniform random bits (deterministic when given a seeded generator).

    Args:
        n: number of bits.
        rng: random generator. Campaign code must thread one derived
            from its trial seeds; omitted, bits draw from the documented
            process-global stream (:func:`repro.rng.fallback_rng`).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if rng is None:
        rng = fallback_rng()
    return rng.integers(0, 2, size=n).astype(np.int64)


def pn_sequence(length: int, taps: Sequence[int] = (7, 6), seed: int = 0b1001011) -> np.ndarray:
    """Maximal-length LFSR (PN) sequence of 0/1 bits.

    Default taps [7, 6] give the m-sequence of period 127; longer requests
    repeat the sequence. Used for scrambling and test payloads with known
    spectral properties.

    Args:
        length: number of bits to emit.
        taps: LFSR feedback tap positions (1-indexed, descending).
        seed: non-zero initial register state.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if seed == 0:
        raise ValueError("LFSR seed must be non-zero")
    degree = max(taps)
    # Fibonacci LFSR: stages 1..degree, output taken from stage `degree`,
    # feedback = XOR of the tapped stages, inserted at stage 1.
    register = [(seed >> i) & 1 for i in range(degree)]
    if not any(register):
        register[0] = 1
    out = np.empty(length, dtype=np.int64)
    for i in range(length):
        out[i] = register[-1]
        feedback = 0
        for t in taps:
            feedback ^= register[t - 1]
        register = [feedback] + register[:-1]
    return out


def bits_to_levels(bits: Sequence[int]) -> np.ndarray:
    """Map 0/1 bits to -1/+1 levels (for correlation templates)."""
    bits = np.asarray(list(bits), dtype=np.int64)
    return 2.0 * bits - 1.0
