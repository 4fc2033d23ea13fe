"""Forward error correction for the backscatter uplink.

Long-range backscatter lives at single-digit SNR where a few corrected
bits decide whether a frame survives; the encoder must also cost the node
essentially nothing. Two codes that an FSM/MCU node can afford:

* **Hamming(7,4)** — corrects one error per 7-chip block; the classic
  low-power choice. ~1.8 dB of coding gain at BER 1e-3 for a rate-4/7
  cost.
* **Repetition-3** — majority vote; simplest possible decoder, rate 1/3.

Plus a **block interleaver**: underwater errors burst (surface-motion
fades span many chips), and an interleaver converts bursts into the
scattered single errors Hamming can fix.

All functions operate on 0/1 bit arrays and compose with the line codes
in :mod:`repro.phy.coding` (FEC first, then FM0). Each scheme has one
implementation, its ``(rows, n)`` kernel behind :func:`fec_encode_batch`
/ :func:`fec_decode_batch`; the per-scheme 1-D functions are 1-row calls
of it, and the interleaver works over the last axis of any array.
"""

from __future__ import annotations

import enum
from typing import Sequence, Tuple

import numpy as np

from repro.phy.bits import as_bits

# Generator matrix for systematic Hamming(7,4): codeword = [d1..d4 p1..p3].
_G = np.array(
    [
        [1, 0, 0, 0, 1, 1, 0],
        [0, 1, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1, 1],
    ],
    dtype=np.int64,
)

# Parity-check matrix consistent with _G.
_H = np.array(
    [
        [1, 1, 0, 1, 1, 0, 0],
        [1, 0, 1, 1, 0, 1, 0],
        [0, 1, 1, 1, 0, 0, 1],
    ],
    dtype=np.int64,
)

# Syndrome (as the integer s0 s1 s2) -> the single-bit error pattern that
# produces it: Hamming(7,4) is perfect, so each nonzero syndrome is one
# column of _H and row 0 (no error) stays zero.
_SYNDROME_ERROR = np.zeros((8, 7), dtype=np.int64)
_SYNDROME_ERROR[_H.T @ (4, 2, 1), np.arange(7)] = 1


class FECScheme(enum.Enum):
    """Available FEC schemes."""

    NONE = "none"
    HAMMING74 = "hamming74"
    REPETITION3 = "repetition3"


def coded_length(n_bits: int, scheme: FECScheme) -> int:
    """Coded bits for ``n_bits`` of data (Hamming pads to 4-bit blocks)."""
    if scheme is FECScheme.HAMMING74:
        return -(-n_bits // 4) * 7
    if scheme is FECScheme.REPETITION3:
        return 3 * n_bits
    return n_bits


def fec_encode_batch(bits: np.ndarray, scheme: FECScheme) -> np.ndarray:
    """Encode every row of a ``(rows, n)`` bit matrix with a named scheme.

    * NONE: the identity.
    * HAMMING74: systematic codewords ``[d1..d4 p1..p3]``; each row is
      zero-padded to a multiple of 4 bits (framing carries a length
      field, so the PHY simply rounds payloads up).
    * REPETITION3: each bit three times.
    """
    bits = as_bits(bits, ndim=2)
    rows, n = bits.shape
    if scheme is FECScheme.NONE:
        return bits.copy()
    if scheme is FECScheme.REPETITION3:
        return np.repeat(bits, 3, axis=1)
    if scheme is FECScheme.HAMMING74:
        n_blocks = -(-n // 4)
        padded = np.zeros((rows, 4 * n_blocks), dtype=np.int64)
        padded[:, :n] = bits
        blocks = padded.reshape(rows, n_blocks, 4)
        return ((blocks @ _G) % 2).reshape(rows, 7 * n_blocks)
    raise ValueError(f"unknown FEC scheme: {scheme}")


def fec_decode_batch(
    coded: np.ndarray, scheme: FECScheme
) -> Tuple[np.ndarray, np.ndarray]:
    """Decode every row of a ``(rows, n)`` coded matrix.

    HAMMING74 corrects one error per 7-bit block by its syndrome;
    REPETITION3 takes the majority of each triple.

    Returns:
        ``(bits, corrections)`` — the decoded bit matrix and, per row,
        the blocks corrected (Hamming) or the non-unanimous triples
        (repetition-3): an SNR telemetry signal for the reader.

    Raises:
        ValueError: if ``n`` is not a whole number of blocks.
    """
    coded = as_bits(coded, ndim=2)
    rows, n = coded.shape
    if scheme is FECScheme.NONE:
        return coded.copy(), np.zeros(rows, dtype=np.int64)
    if scheme is FECScheme.REPETITION3:
        if n % 3:
            raise ValueError("repetition-3 stream length must be a multiple of 3")
        sums = coded.reshape(rows, n // 3, 3).sum(axis=2)
        unanimous = (sums == 0) | (sums == 3)
        return (sums >= 2).astype(np.int64), np.count_nonzero(~unanimous, axis=1)
    if scheme is FECScheme.HAMMING74:
        if n % 7:
            raise ValueError("Hamming(7,4) stream length must be a multiple of 7")
        blocks = coded.reshape(rows, n // 7, 7)
        syndromes = ((blocks @ _H.T) % 2) @ (4, 2, 1)
        data = blocks[:, :, :4] ^ _SYNDROME_ERROR[syndromes, :4]
        corrections = np.count_nonzero(syndromes, axis=1)
        return data.reshape(rows, 4 * (n // 7)), corrections
    raise ValueError(f"unknown FEC scheme: {scheme}")


def fec_encode(bits: Sequence[int], scheme: FECScheme) -> np.ndarray:
    """Encode with a named scheme: a 1-row call of :func:`fec_encode_batch`."""
    return fec_encode_batch(np.asarray(bits)[None], scheme)[0]


def fec_decode(coded: Sequence[int], scheme: FECScheme) -> Tuple[np.ndarray, int]:
    """Decode with a named scheme; returns (bits, corrections).

    A 1-row call of :func:`fec_decode_batch`.
    """
    bits, corrections = fec_decode_batch(np.asarray(coded)[None], scheme)
    return bits[0], int(corrections[0])


def hamming74_encode(bits: Sequence[int]) -> np.ndarray:
    """Encode bits with Hamming(7,4); pads to a multiple of 4 with zeros."""
    return fec_encode(bits, FECScheme.HAMMING74)


def hamming74_decode(coded: Sequence[int]) -> Tuple[np.ndarray, int]:
    """Decode Hamming(7,4), correcting one error per block.

    Returns:
        ``(bits, corrections)`` — decoded data bits and how many blocks
        had an error corrected.
    """
    return fec_decode(coded, FECScheme.HAMMING74)


def repetition3_encode(bits: Sequence[int]) -> np.ndarray:
    """Repeat each bit three times."""
    return fec_encode(bits, FECScheme.REPETITION3)


def repetition3_decode(coded: Sequence[int]) -> Tuple[np.ndarray, int]:
    """Majority-vote decode; returns (bits, non-unanimous triples)."""
    return fec_decode(coded, FECScheme.REPETITION3)


# --------------------------------------------------------------------------
# Interleaving
# --------------------------------------------------------------------------


def interleave(bits: Sequence[int], depth: int) -> np.ndarray:
    """Block-interleave the last axis: write ``depth`` rows, read columns.

    Pads with zeros to fill the block; the deinterleaver needs the
    original length to strip the pad.
    """
    bits = as_bits(bits)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = bits.shape[-1]
    if depth == 1 or n == 0:
        return bits.copy()
    lead, cols = bits.shape[:-1], -(-n // depth)
    padded = np.zeros((*lead, depth * cols), dtype=np.int64)
    padded[..., :n] = bits
    out = padded.reshape(*lead, depth, cols).swapaxes(-1, -2)
    return out.reshape(*lead, depth * cols)


def deinterleave(bits: Sequence[int], depth: int, original_length: int) -> np.ndarray:
    """Invert :func:`interleave` on the last axis; trim to ``original_length``."""
    bits = as_bits(bits)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = bits.shape[-1]
    if depth == 1 or n == 0:
        return bits[..., :original_length].copy()
    if n % depth:
        raise ValueError("interleaved length must be a multiple of depth")
    lead = bits.shape[:-1]
    out = bits.reshape(*lead, n // depth, depth).swapaxes(-1, -2)
    return out.reshape(*lead, n)[..., :original_length]


def code_rate(scheme: FECScheme) -> float:
    """Information bits per coded bit."""
    if scheme is FECScheme.NONE:
        return 1.0
    if scheme is FECScheme.HAMMING74:
        return 4.0 / 7.0
    if scheme is FECScheme.REPETITION3:
        return 1.0 / 3.0
    raise ValueError(f"unknown FEC scheme: {scheme}")
