"""CRC-16/CCITT-FALSE frame check sequence.

Polynomial 0x1021, initial value 0xFFFF, no reflection, no final XOR —
the variant used by most low-power telemetry framings. Implemented over
bit arrays because the PHY works in bits end to end.

The CRC is affine over GF(2): the register after ``n`` bits is the
register the initial value alone leaves, XOR the register each set bit
alone leaves from a zero start. So one cached ``(n, 16)`` impulse table
plus an init row turns every row's CRC into one matrix product and a
parity.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.memo import memoize
from repro.phy.bits import as_bits

_POLY = 0x1021
_INIT = 0xFFFF


def _step(register: int) -> int:
    """One zero-input step of the MSB-first bit loop."""
    if register & 0x8000:
        return ((register << 1) ^ _POLY) & 0xFFFF
    return (register << 1) & 0xFFFF


def _register_bits(register: int) -> list:
    """The 16 register bits, MSB first."""
    return [(register >> (15 - i)) & 1 for i in range(16)]


@memoize(256)
def _affine_tables(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(impulse, init)`` of the CRC over ``n`` bits.

    Row ``i`` of the float ``(n, 16)`` impulse table is the register
    bit ``i`` alone leaves from a zero start: ``0x8000`` shifted through
    the loop's remaining ``n - i`` steps. ``init`` is the register the
    initial value leaves after ``n`` zero bits. Float, so the row sums
    run as one BLAS product; they count at most ``n`` ones, exactly.
    """
    impulse, init = 0x8000, _INIT
    rows = []
    for _ in range(n):
        impulse, init = _step(impulse), _step(init)
        rows.append(_register_bits(impulse))
    table = np.array(rows[::-1], dtype=np.float64).reshape(n, 16)
    return table, np.array(_register_bits(init), dtype=np.int64)


def crc16_ccitt_batch(bits: np.ndarray) -> np.ndarray:
    """CRC-16/CCITT-FALSE of every row of a ``(rows, n)`` bit matrix.

    Returns a ``(rows, 16)`` bit matrix (MSB first): each row's parity of
    the impulse-table rows its set bits select, XOR the init row.
    """
    bits = as_bits(bits, ndim=2)
    table, init = _affine_tables(bits.shape[1])
    counts = (bits @ table).astype(np.int64)
    return (counts + init) & 1


def crc16_ccitt(bits: Sequence[int]) -> np.ndarray:
    """CRC-16/CCITT-FALSE of a bit sequence, returned as 16 bits (MSB first).

    A 1-row call of :func:`crc16_ccitt_batch`.
    """
    return crc16_ccitt_batch(np.asarray(bits)[None])[0]


def crc16_check(bits_with_fcs: Sequence[int]) -> bool:
    """Verify a bit sequence whose last 16 bits are its CRC."""
    bits = as_bits(bits_with_fcs)
    if bits.size < 16:
        return False
    return bool(np.array_equal(crc16_ccitt(bits[:-16]), bits[-16:]))
