"""Uplink frame format.

::

    +-----------+-----------------+-------------------------------+
    | preamble  | header (FM0)    | body (FEC + interleave + FM0) |
    | (chips)   | id:8, length:8  | payload + CRC-16              |
    +-----------+-----------------+-------------------------------+

The header stays uncoded so the parser can learn the body length before
committing to a (possibly interleaved) FEC decode; the CRC covers header
*and* payload, so header corruption is still caught. The body is
optionally FEC-encoded (Hamming(7,4) / repetition-3) and block-interleaved
— underwater errors burst with surface-motion fades, and the interleaver
turns bursts into the isolated errors the FEC can fix.

Everything is line-coded (FM0 by default) after FEC. The length field
counts payload *bytes*, capping payloads at 255 bytes — generous for
sensor readings, and short frames are how backscatter survives
time-varying channels anyway.

Every :class:`FrameConfig` builds and parses through one batched codec
(:func:`build_frames_batch`, :func:`parse_frames_batch`), each stage a
``(rows, n)`` kernel; :func:`build_frame` and :func:`parse_frame` are
its 1-row calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.phy import coding
from repro.phy.bits import bits_from_bytes
from repro.phy.coding import LineCode
from repro.phy.crc import crc16_ccitt_batch
from repro.phy.fec import (
    FECScheme,
    code_rate,
    coded_length,
    deinterleave,
    fec_decode_batch,
    fec_encode_batch,
    interleave,
)
from repro.phy.preamble import preamble_chips
from repro.phy.scrambler import descramble, scramble

MAX_PAYLOAD_BYTES = 255

# Header bits -> (node id, length): the MSB-first weights of each byte.
_HEADER_BYTES = np.zeros((16, 2), dtype=np.int64)
_HEADER_BYTES[:8, 0] = _HEADER_BYTES[8:, 1] = 1 << np.arange(7, -1, -1)


@dataclass(frozen=True)
class FrameConfig:
    """Static PHY framing parameters shared by node and reader.

    Attributes:
        line_code: uplink line code.
        preamble_repeats: Barker-13 repeats in the preamble.
        fec: FEC scheme applied to the body (payload + CRC).
        interleave_depth: block-interleaver rows over the coded body
            (1 disables interleaving).
        scramble: XOR-whiten the payload bits with the frame-aligned PN
            sequence before the CRC/FEC (see :mod:`repro.phy.scrambler`).
    """

    line_code: LineCode = LineCode.FM0
    preamble_repeats: int = 2
    fec: FECScheme = FECScheme.NONE
    interleave_depth: int = 1
    scramble: bool = False

    def __post_init__(self) -> None:
        if self.interleave_depth < 1:
            raise ValueError("interleave depth must be >= 1")

    @property
    def preamble(self) -> np.ndarray:
        """Preamble chip pattern."""
        return preamble_chips(self.preamble_repeats)

    def header_bits(self) -> int:
        """Bits of uncoded header (node id + length)."""
        return 16

    def body_bits(self, payload_bytes: int) -> int:
        """Information bits in the body (payload + CRC-16)."""
        return payload_bytes * 8 + 16

    def coded_body_bits(self, payload_bytes: int) -> int:
        """Body bits after FEC expansion and interleaver padding."""
        coded = coded_length(self.body_bits(payload_bytes), self.fec)
        return self.interleave_depth * -(-coded // self.interleave_depth)

    def frame_bits(self, payload_bytes: int) -> int:
        """Line-coded bit count: header plus (coded) body."""
        return self.header_bits() + self.coded_body_bits(payload_bytes)

    def frame_chips(self, payload_bytes: int) -> int:
        """Total chips in a frame including the preamble."""
        return len(self.preamble) + self.frame_bits(payload_bytes) * coding.chips_per_bit(
            self.line_code
        )

    def effective_code_rate(self) -> float:
        """Information rate of the body coding (1.0 when FEC is off)."""
        return code_rate(self.fec)


@dataclass(frozen=True)
class ParsedFrame:
    """A successfully parsed frame.

    Attributes:
        node_id: 8-bit source identifier.
        payload: payload bytes.
        crc_ok: whether the CRC checked out.
        fm0_violations: line-code rule violations in the frame's chips:
            FM0 boundaries without an inversion, Manchester symbols
            without a mid-bit transition (0 for Miller and NRZ).
        fec_corrections: FEC blocks corrected while decoding the body.
    """

    node_id: int
    payload: bytes
    crc_ok: bool
    fm0_violations: int = 0
    fec_corrections: int = 0


def build_frames_batch(
    node_id: int,
    payloads: Sequence[bytes],
    config: Optional[FrameConfig] = None,
) -> np.ndarray:
    """Build the chip sequences of many frames as one ``(rows, chips)`` block.

    Payloads must all be the same length (one campaign point transmits
    one frame shape). Every stage sweeps the row axis: scramble the
    payload, CRC header + payload, FEC-encode and interleave the body,
    line-code header + body, prepend the preamble.

    Raises:
        ValueError: if the payload lengths differ, ``node_id`` does not
            fit in 8 bits, or a payload exceeds 255 bytes.
    """
    if config is None:
        config = FrameConfig()
    payloads = [bytes(p) for p in payloads]
    if len({len(p) for p in payloads}) > 1:
        raise ValueError("all payloads in a batch must frame to one length")
    if not payloads:
        return np.zeros((0, 0), dtype=np.int64)
    if not 0 <= node_id <= 255:
        raise ValueError("node_id must fit in 8 bits")
    length = len(payloads[0])
    if length > MAX_PAYLOAD_BYTES:
        raise ValueError(f"payload exceeds {MAX_PAYLOAD_BYTES} bytes")
    rows = len(payloads)

    header = np.broadcast_to(bits_from_bytes(bytes([node_id, length])), (rows, 16))
    raw = np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(rows, length)
    payload_bits = np.unpackbits(raw, axis=1).astype(np.int64)
    if config.scramble:
        payload_bits = scramble(payload_bits)
    fcs = crc16_ccitt_batch(np.concatenate([header, payload_bits], axis=1))
    body = fec_encode_batch(np.concatenate([payload_bits, fcs], axis=1), config.fec)
    body = interleave(body, config.interleave_depth)
    coded = coding.encode_batch(
        np.concatenate([header, body], axis=1), config.line_code
    )
    preamble = np.broadcast_to(config.preamble, (rows, len(config.preamble)))
    return np.concatenate([preamble, coded], axis=1)


def build_frame(
    node_id: int, payload: bytes, config: Optional[FrameConfig] = None
) -> np.ndarray:
    """Build the full chip sequence for a frame (preamble + coded bits).

    A 1-row call of :func:`build_frames_batch`.

    Args:
        node_id: 8-bit source identifier.
        payload: payload bytes (<= 255).
        config: framing parameters.

    Returns:
        Chip array ready for :func:`repro.vanatta.switching.chips_to_waveform`.
    """
    return build_frames_batch(node_id, [payload], config)[0]


def parse_frames_batch(
    chips: np.ndarray,
    n_chips: np.ndarray,
    config: Optional[FrameConfig] = None,
) -> List[Optional[ParsedFrame]]:
    """Parse many frames' coded regions at once.

    ``chips`` is a padded ``(rows, max_chips)`` 0/1 matrix; row ``t`` is
    valid through ``n_chips[t]`` (the stream may be longer than one
    frame: the header's length field decides how much is consumed).
    Each row's chips are line-decoded once; rows then group by their
    decoded length byte (corrupt headers can disagree on length), and
    each group runs deinterleave, FEC decode, CRC and descramble as one
    sub-batch. Line-code violations count over the frame's bits only,
    read off prefix sums of the per-bit violation flags.

    Returns:
        One entry per row: None when the row is too short for its
        header or its frame. CRC failures still return a frame (with
        ``crc_ok=False``) so callers can count them.

    Raises:
        ValueError: if an ``n_chips[t]`` exceeds the width of ``chips``.
    """
    if config is None:
        config = FrameConfig()
    chips = np.asarray(chips)
    n_chips = np.asarray(n_chips, dtype=np.int64)
    over = np.flatnonzero(n_chips > chips.shape[-1])
    if len(over):
        t = int(over[0])
        raise ValueError(
            f"n_chips[{t}] = {n_chips[t]} exceeds the chip matrix "
            f"width {chips.shape[-1]}"
        )
    cpb = coding.chips_per_bit(config.line_code)
    n_bits = np.floor_divide(n_chips, cpb)
    results: List[Optional[ParsedFrame]] = [None] * len(n_bits)
    width = max(n_bits.tolist(), default=0)
    if width < config.header_bits():
        return results
    bits, flags = coding.decode_batch(chips[:, : width * cpb], config.line_code)
    violations = np.add.accumulate(flags, axis=1, dtype=np.int64)
    node_ids, lengths = (bits[:, :16] @ _HEADER_BYTES).T
    node_ids = node_ids.tolist()
    for length in set(lengths.tolist()):
        frame_bits = config.frame_bits(length)
        # Rows shorter than their frame (or header) stay None.
        rows = ((lengths == length) & (n_bits >= frame_bits)).nonzero()[0]
        if not len(rows):
            continue
        framed = bits[rows, :frame_bits]
        body = deinterleave(
            framed[:, 16:],
            config.interleave_depth,
            coded_length(config.body_bits(length), config.fec),
        )
        body, corrections = fec_decode_batch(body, config.fec)
        # The CRC covers the header and the scrambled (on-air) payload;
        # run on through a matching FCS, its register ends at zero.
        checked = np.concatenate([framed[:, :16], body[:, : length * 8 + 16]], axis=1)
        crc_failed = np.logical_or.reduce(crc16_ccitt_batch(checked), axis=1)
        payload_bits = body[:, : length * 8]
        if config.scramble:
            payload_bits = descramble(payload_bits)
        payloads = np.packbits(payload_bits.astype(np.uint8), axis=1).tobytes()
        for j, (t, failed, n_violations, n_corrections) in enumerate(zip(
            rows.tolist(),
            crc_failed.tolist(),
            violations[:, frame_bits - 1][rows].tolist(),
            corrections.tolist(),
        )):
            results[t] = ParsedFrame(
                node_id=node_ids[t],
                payload=payloads[j * length : (j + 1) * length],
                crc_ok=not failed,
                fm0_violations=n_violations,
                fec_corrections=n_corrections,
            )
    return results


def parse_frame(
    chips: np.ndarray, config: Optional[FrameConfig] = None
) -> Optional[ParsedFrame]:
    """Parse the coded region of a frame (chips *after* the preamble).

    A 1-row call of :func:`parse_frames_batch`, which states what is
    consumed and when None is returned.
    """
    chips = np.asarray(chips)
    return parse_frames_batch(chips[None], [chips.shape[0]], config)[0]
