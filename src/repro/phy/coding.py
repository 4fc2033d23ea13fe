"""Line codes for the backscatter uplink.

The uplink rides on switched-reflection OOK, and the reader must suppress
the enormous un-modulated carrier reflection (self-interference) before it
can see data. That suppression is a notch at DC in baseband, so the line
code must be **DC-free**: FM0 (the paper's choice, and the classic
backscatter code), Manchester, and Miller are implemented; plain NRZ is
kept as the negative control the E7/E9 ablations need.

All coders map bit arrays to *chip* arrays of 0/1 (2 chips per bit for
FM0/Manchester/Miller) and are exact inverses of their decoders.
"""

from __future__ import annotations

import enum
from typing import Sequence, Tuple

import numpy as np

from repro.phy.bits import as_bits


class LineCode(enum.Enum):
    """Available uplink line codes."""

    FM0 = "fm0"
    MANCHESTER = "manchester"
    MILLER = "miller"
    NRZ = "nrz"


# --------------------------------------------------------------------------
# FM0 (bi-phase space)
# --------------------------------------------------------------------------


def fm0_encode_batch(bits: np.ndarray, start_level: int = 1) -> np.ndarray:
    """FM0-encode every row of a ``(rows, n)`` bit matrix (2 chips/bit).

    Rules: the level always inverts at a bit boundary; a ``0`` bit inverts
    again mid-bit, a ``1`` holds through the bit.

    Args:
        bits: data bits, one frame per row.
        start_level: line level before the first bit (0 or 1).

    Returns:
        A ``(rows, 2 * n)`` chip matrix.
    """
    bits = as_bits(bits, ndim=2)
    if start_level not in (0, 1):
        raise ValueError("start_level must be 0 or 1")
    rows, n = bits.shape
    chips = np.empty((rows, 2 * n), dtype=np.int64)
    if n == 0:
        return chips
    # The line level toggles over a bit exactly when the bit is 1 (one
    # boundary inversion for a 1, boundary + mid-bit for a 0), so the
    # level entering bit i is start_level XOR (parity of bits before i).
    level_before = np.empty((rows, n), dtype=np.int64)
    level_before[:, 0] = start_level
    level_before[:, 1:] = start_level ^ (np.cumsum(bits[:, :-1], axis=1) & 1)
    first = 1 - level_before  # invert at the boundary
    second = np.where(bits == 0, level_before, first)
    chips[:, 0::2] = first
    chips[:, 1::2] = second
    return chips


def fm0_decode_batch(chips: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Decode every row of a ``(rows, 2n)`` FM0 chip matrix.

    A bit is ``1`` when its two chips match, ``0`` when they differ. The
    boundary-inversion rule is also checked: each violation (consecutive
    bits whose adjacent chips fail to invert) is counted as a coding error,
    which gives the receiver a free integrity signal before the CRC.

    Returns:
        ``(bits, violations)`` — a ``(rows, n)`` bit matrix and a
        ``(rows,)`` vector of boundary-rule violations per row.
    """
    chips = as_bits(chips, ndim=2)
    rows, n_chips = chips.shape
    if n_chips % 2 != 0:
        raise ValueError("FM0 chip count must be even")
    pairs = chips.reshape(rows, n_chips // 2, 2)
    bits = (pairs[:, :, 0] == pairs[:, :, 1]).astype(np.int64)
    violations = (pairs[:, 1:, 0] == pairs[:, :-1, 1]).sum(axis=1)
    return bits, violations


def fm0_encode(bits: Sequence[int], start_level: int = 1) -> np.ndarray:
    """FM0-encode bits into chips (2 chips/bit).

    A 1-row call of :func:`fm0_encode_batch`, which states the rules.
    """
    return fm0_encode_batch(np.asarray(bits)[None], start_level)[0]


def fm0_decode(chips: Sequence[int]) -> Tuple[np.ndarray, int]:
    """Decode FM0 chips back to bits.

    A 1-row call of :func:`fm0_decode_batch`, which states the rules.

    Returns:
        ``(bits, violations)`` — decoded bits and the number of
        boundary-rule violations observed.
    """
    bits, violations = fm0_decode_batch(np.asarray(chips)[None])
    return bits[0], int(violations[0])


# --------------------------------------------------------------------------
# Manchester (IEEE convention: 1 -> high-low, 0 -> low-high)
# --------------------------------------------------------------------------


def manchester_encode(bits: Sequence[int]) -> np.ndarray:
    """Manchester-encode bits into chips (2 chips/bit)."""
    bits = as_bits(bits)
    chips = np.empty(2 * bits.size, dtype=np.int64)
    chips[0::2] = bits
    chips[1::2] = 1 - bits
    return chips


def manchester_decode(chips: Sequence[int]) -> np.ndarray:
    """Decode Manchester chips; raises on invalid (flat) symbols."""
    chips = as_bits(chips)
    if chips.size % 2 != 0:
        raise ValueError("Manchester chip count must be even")
    pairs = chips.reshape(-1, 2)
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise ValueError("invalid Manchester symbol (no mid-bit transition)")
    return pairs[:, 0].copy()


# --------------------------------------------------------------------------
# Miller (delay modulation)
# --------------------------------------------------------------------------


def miller_encode(bits: Sequence[int], start_level: int = 1) -> np.ndarray:
    """Miller-encode bits into chips (2 chips/bit).

    Rules: ``1`` transitions mid-bit; ``0`` holds, except a ``0`` that
    follows a ``0`` transitions at the bit boundary.
    """
    bits = as_bits(bits)
    if start_level not in (0, 1):
        raise ValueError("start_level must be 0 or 1")
    chips = np.empty(2 * bits.size, dtype=np.int64)
    level = start_level
    prev_bit = None
    for i, b in enumerate(bits):
        if b == 1:
            first = level
            second = 1 - level
        else:
            if prev_bit == 0:
                first = 1 - level
            else:
                first = level
            second = first
        chips[2 * i] = first
        chips[2 * i + 1] = second
        level = second
        prev_bit = int(b)
    return chips


def miller_decode(chips: Sequence[int]) -> np.ndarray:
    """Decode Miller chips: mid-bit transition = 1, none = 0."""
    chips = as_bits(chips)
    if chips.size % 2 != 0:
        raise ValueError("Miller chip count must be even")
    pairs = chips.reshape(-1, 2)
    return (pairs[:, 0] != pairs[:, 1]).astype(np.int64)


# --------------------------------------------------------------------------
# NRZ (negative control — not DC-free)
# --------------------------------------------------------------------------


def nrz_encode(bits: Sequence[int]) -> np.ndarray:
    """NRZ: one chip per bit, identity mapping."""
    return as_bits(bits).copy()


def nrz_decode(chips: Sequence[int]) -> np.ndarray:
    """NRZ decode: identity mapping."""
    return as_bits(chips).copy()


# --------------------------------------------------------------------------
# Dispatch helpers
# --------------------------------------------------------------------------


def encode(bits: Sequence[int], code: LineCode) -> np.ndarray:
    """Encode with a named line code."""
    if code is LineCode.FM0:
        return fm0_encode(bits)
    if code is LineCode.MANCHESTER:
        return manchester_encode(bits)
    if code is LineCode.MILLER:
        return miller_encode(bits)
    if code is LineCode.NRZ:
        return nrz_encode(bits)
    raise ValueError(f"unknown line code: {code}")


def decode(chips: Sequence[int], code: LineCode) -> np.ndarray:
    """Decode with a named line code (FM0 violations are discarded)."""
    if code is LineCode.FM0:
        bits, _ = fm0_decode(chips)
        return bits
    if code is LineCode.MANCHESTER:
        return manchester_decode(chips)
    if code is LineCode.MILLER:
        return miller_decode(chips)
    if code is LineCode.NRZ:
        return nrz_decode(chips)
    raise ValueError(f"unknown line code: {code}")


def chips_per_bit(code: LineCode) -> int:
    """Chips consumed per data bit for a line code."""
    return 1 if code is LineCode.NRZ else 2
