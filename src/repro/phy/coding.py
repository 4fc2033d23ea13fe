"""Line codes for the backscatter uplink.

The uplink rides on switched-reflection OOK, and the reader must suppress
the enormous un-modulated carrier reflection (self-interference) before it
can see data. That suppression is a notch at DC in baseband, so the line
code must be **DC-free**: FM0 (the paper's choice, and the classic
backscatter code), Manchester, and Miller are implemented; plain NRZ is
kept as the negative control the E7/E9 ablations need.

All coders map bit arrays to *chip* arrays of 0/1 (2 chips per bit for
FM0/Manchester/Miller) and are exact inverses of their decoders. Each
code has one implementation, its ``(rows, n)`` kernel behind
:func:`encode_batch` / :func:`decode_batch`; the per-code 1-D functions
are 1-row calls of it.
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


def chips_per_bit(code: LineCode) -> int:
    """Chips consumed per data bit for a line code."""
    return 1 if code is LineCode.NRZ else 2


def encode_batch(
    bits: np.ndarray, code: LineCode, start_level: int = 1
) -> np.ndarray:
    """Line-code every row of a ``(rows, n)`` bit matrix.

    Rules, per bit:

    * FM0 (bi-phase space): the level inverts at every bit boundary; a
      ``0`` inverts again mid-bit, a ``1`` holds through the bit.
    * Manchester (IEEE): ``1`` -> high-low, ``0`` -> low-high.
    * Miller (delay modulation): a ``1`` transitions mid-bit; a ``0``
      holds, except that a ``0`` following a ``0`` transitions at the
      bit boundary.
    * NRZ: one chip per bit, the identity.

    FM0 and Miller are differential: each chip is ``start_level`` (the
    line level before the first bit) XOR the parity of the transitions
    up to it, a cumulative sum over the transition pattern.

    Returns:
        A ``(rows, n * chips_per_bit(code))`` chip matrix.
    """
    bits = as_bits(bits, ndim=2)
    if code is LineCode.NRZ:
        return bits.copy()
    rows, n = bits.shape
    if code is LineCode.MANCHESTER:
        chips = np.empty((rows, 2 * n), dtype=np.int64)
        chips[:, 0::2] = bits
        chips[:, 1::2] = 1 - bits
        return chips
    if start_level not in (0, 1):
        raise ValueError("start_level must be 0 or 1")
    # toggles[:, 2i] marks a transition into bit i's first chip,
    # toggles[:, 2i + 1] one at its middle.
    toggles = np.empty((rows, 2 * n), dtype=np.int64)
    if code is LineCode.FM0:
        toggles[:, 0::2] = 1
        toggles[:, 1::2] = 1 - bits
    elif code is LineCode.MILLER:
        toggles[:, :1] = 0
        toggles[:, 2::2] = 1 - (bits[:, 1:] | bits[:, :-1])
        toggles[:, 1::2] = bits
    else:
        raise ValueError(f"unknown line code: {code}")
    return start_level ^ (np.cumsum(toggles, axis=1) & 1)


def decode_batch(
    chips: np.ndarray, code: LineCode
) -> Tuple[np.ndarray, np.ndarray]:
    """Decode every row of a ``(rows, m)`` chip matrix.

    FM0 reads a ``1`` where a bit's two chips match; Manchester reads a
    bit's first chip; Miller reads a ``1`` where they differ. Decoding
    never raises on 0/1 chips: a coding-rule breach is flagged instead,
    which gives the receiver a free integrity signal before the CRC.
    FM0 flags a bit whose first chip fails to invert from the previous
    bit's last; Manchester flags a flat symbol (no mid-bit transition).
    Miller and NRZ flag nothing.

    Returns:
        ``(bits, violations)`` — two ``(rows, m // chips_per_bit(code))``
        matrices: the bits, and a boolean flag per bit for a rule
        violation seen there (prefix sums give the count over any
        leading span).

    Raises:
        ValueError: if ``m`` is not a whole number of symbols.
    """
    chips = as_bits(chips, ndim=2)
    if code is LineCode.NRZ:
        return chips.copy(), np.zeros(chips.shape, dtype=bool)
    rows, m = chips.shape
    if m % 2:
        raise ValueError(f"{code.name} chip count must be even")
    # held[:, k]: chip k repeats chip k - 1 -- at odd k a bit's middle,
    # at even k > 0 a bit boundary.
    held = np.zeros((rows, m), dtype=bool)
    np.equal(chips[:, 1:], chips[:, :-1], out=held[:, 1:])
    flat = held[:, 1::2]
    if code is LineCode.FM0:
        return flat.astype(np.int64), held[:, 0::2]
    if code is LineCode.MANCHESTER:
        return chips[:, 0::2].copy(), flat
    if code is LineCode.MILLER:
        return (~flat).astype(np.int64), np.zeros_like(flat)
    raise ValueError(f"unknown line code: {code}")


def encode(bits: Sequence[int], code: LineCode) -> np.ndarray:
    """Encode with a named line code: a 1-row call of :func:`encode_batch`."""
    return encode_batch(np.asarray(bits)[None], code)[0]


def decode(chips: Sequence[int], code: LineCode) -> np.ndarray:
    """Decode with a named line code (violations are discarded).

    A 1-row call of :func:`decode_batch`, except that Manchester goes
    through the strict :func:`manchester_decode`.
    """
    if code is LineCode.MANCHESTER:
        return manchester_decode(chips)
    return decode_batch(np.asarray(chips)[None], code)[0][0]


# --------------------------------------------------------------------------
# Per-code entry points: calls of the two kernels above
# --------------------------------------------------------------------------


def fm0_encode_batch(bits: np.ndarray, start_level: int = 1) -> np.ndarray:
    """FM0-encode every row of a ``(rows, n)`` bit matrix (2 chips/bit)."""
    return encode_batch(bits, LineCode.FM0, start_level)


def fm0_decode_batch(chips: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Decode every row of a ``(rows, 2n)`` FM0 chip matrix.

    Returns:
        ``(bits, violations)`` — a ``(rows, n)`` bit matrix and a
        ``(rows,)`` vector of boundary-rule violations per row.
    """
    bits, violations = decode_batch(chips, LineCode.FM0)
    return bits, violations.sum(axis=1)


def fm0_encode(bits: Sequence[int], start_level: int = 1) -> np.ndarray:
    """FM0-encode bits into chips (2 chips/bit)."""
    return encode_batch(np.asarray(bits)[None], LineCode.FM0, start_level)[0]


def fm0_decode(chips: Sequence[int]) -> Tuple[np.ndarray, int]:
    """Decode FM0 chips back to bits.

    Returns:
        ``(bits, violations)`` — decoded bits and the number of
        boundary-rule violations observed.
    """
    bits, violations = decode_batch(np.asarray(chips)[None], LineCode.FM0)
    return bits[0], int(np.count_nonzero(violations))


def manchester_encode(bits: Sequence[int]) -> np.ndarray:
    """Manchester-encode bits into chips (2 chips/bit)."""
    return encode(bits, LineCode.MANCHESTER)


def manchester_decode(chips: Sequence[int]) -> np.ndarray:
    """Decode Manchester chips; raises on invalid (flat) symbols."""
    bits, flat = decode_batch(np.asarray(chips)[None], LineCode.MANCHESTER)
    if flat.any():
        raise ValueError("invalid Manchester symbol (no mid-bit transition)")
    return bits[0]


def miller_encode(bits: Sequence[int], start_level: int = 1) -> np.ndarray:
    """Miller-encode bits into chips (2 chips/bit)."""
    return encode_batch(np.asarray(bits)[None], LineCode.MILLER, start_level)[0]


def miller_decode(chips: Sequence[int]) -> np.ndarray:
    """Decode Miller chips: mid-bit transition = 1, none = 0."""
    return decode(chips, LineCode.MILLER)


def nrz_encode(bits: Sequence[int]) -> np.ndarray:
    """NRZ: one chip per bit, identity mapping."""
    return encode(bits, LineCode.NRZ)


def nrz_decode(chips: Sequence[int]) -> np.ndarray:
    """NRZ decode: identity mapping."""
    return decode(chips, LineCode.NRZ)
