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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.phy import coding
from repro.phy.bits import bits_from_bytes, bits_to_bytes
from repro.phy.coding import LineCode
from repro.phy.crc import crc16_ccitt, crc16_ccitt_batch
from repro.phy.fec import (
    FECScheme,
    code_rate,
    deinterleave,
    fec_decode,
    fec_encode,
    interleave,
)
from repro.phy.preamble import preamble_chips

MAX_PAYLOAD_BYTES = 255


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
        info = self.body_bits(payload_bytes)
        if self.fec is FECScheme.HAMMING74:
            coded = -(-info // 4) * 7
        elif self.fec is FECScheme.REPETITION3:
            coded = info * 3
        else:
            coded = info
        if self.interleave_depth > 1:
            cols = -(-coded // self.interleave_depth)
            coded = self.interleave_depth * cols
        return coded

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
        fm0_violations: FM0 boundary violations seen while decoding
            (0 for other line codes).
        fec_corrections: FEC blocks corrected while decoding the body.
    """

    node_id: int
    payload: bytes
    crc_ok: bool
    fm0_violations: int = 0
    fec_corrections: int = 0


def build_frame(
    node_id: int, payload: bytes, config: Optional[FrameConfig] = None
) -> np.ndarray:
    """Build the full chip sequence for a frame (preamble + coded bits).

    Args:
        node_id: 8-bit source identifier.
        payload: payload bytes (<= 255).
        config: framing parameters.

    Returns:
        Chip array ready for :func:`repro.vanatta.switching.chips_to_waveform`.
    """
    if config is None:
        config = FrameConfig()
    if not 0 <= node_id <= 255:
        raise ValueError("node_id must fit in 8 bits")
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise ValueError(f"payload exceeds {MAX_PAYLOAD_BYTES} bytes")

    header_bytes = bytes([node_id, len(payload)])
    header_bits = bits_from_bytes(header_bytes)
    payload_bits = bits_from_bytes(bytes(payload))
    if config.scramble:
        from repro.phy.scrambler import scramble

        payload_bits = scramble(payload_bits)
    fcs = crc16_ccitt(np.concatenate([header_bits, payload_bits]))

    body = np.concatenate([payload_bits, fcs])
    body = fec_encode(body, config.fec)
    if config.interleave_depth > 1:
        body = interleave(body, config.interleave_depth)

    coded = coding.encode(np.concatenate([header_bits, body]), config.line_code)
    return np.concatenate([config.preamble, coded])


def _batchable(config: FrameConfig) -> bool:
    """Whether the vectorised frame codecs cover this config."""
    return (
        config.line_code is LineCode.FM0
        and config.fec is FECScheme.NONE
        and config.interleave_depth == 1
        and not config.scramble
    )


def build_frames_batch(
    node_id: int,
    payloads: Sequence[bytes],
    config: Optional[FrameConfig] = None,
) -> np.ndarray:
    """Build the chip sequences of many frames as one ``(rows, chips)`` block.

    Integer-exact against :func:`build_frame` row by row. Payloads must
    all be the same length (one campaign point transmits one frame
    shape); the default FM0/no-FEC/no-interleave config runs fully
    vectorised — CRC, FM0 encode, and bit packing sweep the row axis —
    and any other config falls back to per-frame :func:`build_frame`.

    Raises:
        ValueError: if the payload lengths differ.
    """
    if config is None:
        config = FrameConfig()
    payloads = [bytes(p) for p in payloads]
    if len({len(p) for p in payloads}) > 1:
        raise ValueError("all payloads in a batch must frame to one length")
    if not payloads:
        return np.zeros((0, 0), dtype=np.int64)
    if not _batchable(config):
        return np.stack(
            [build_frame(node_id, p, config) for p in payloads]
        )
    if not 0 <= node_id <= 255:
        raise ValueError("node_id must fit in 8 bits")
    length = len(payloads[0])
    if length > MAX_PAYLOAD_BYTES:
        raise ValueError(f"payload exceeds {MAX_PAYLOAD_BYTES} bytes")
    rows = len(payloads)

    header_bits = bits_from_bytes(bytes([node_id, length]))
    header = np.broadcast_to(header_bits, (rows, 16))
    if length:
        raw = np.frombuffer(b"".join(payloads), dtype=np.uint8)
        payload_bits = np.unpackbits(raw.reshape(rows, length), axis=1).astype(
            np.int64
        )
    else:
        payload_bits = np.zeros((rows, 0), dtype=np.int64)
    fcs = crc16_ccitt_batch(np.concatenate([header, payload_bits], axis=1))
    coded = coding.fm0_encode_batch(
        np.concatenate([header, payload_bits, fcs], axis=1)
    )
    preamble = np.broadcast_to(config.preamble, (rows, len(config.preamble)))
    return np.concatenate([preamble, coded], axis=1)


def parse_frames_batch(
    chips: np.ndarray,
    n_chips: np.ndarray,
    config: Optional[FrameConfig] = None,
) -> List[Optional[ParsedFrame]]:
    """Parse many frames' coded regions at once.

    ``chips`` is a padded ``(rows, max_chips)`` 0/1 matrix; row ``t`` is
    valid through ``n_chips[t]``. Result ``t`` equals
    ``parse_frame(chips[t, :n_chips[t]], config)`` exactly — the chip
    decode, CRC, and packing are integer operations, vectorised here
    over rows grouped by their decoded length byte (corrupt headers can
    disagree on length, so each distinct length parses as its own
    sub-batch). Configs outside the vectorised set (non-FM0, FEC,
    interleaving, scrambling) fall back to per-row :func:`parse_frame`.
    """
    if config is None:
        config = FrameConfig()
    chips = np.asarray(chips)
    n_chips = np.asarray(n_chips)
    rows = chips.shape[0]
    results: List[Optional[ParsedFrame]] = [None] * rows
    if not _batchable(config):
        return [
            parse_frame(chips[t, : n_chips[t]], config) for t in range(rows)
        ]
    header_chips = config.header_bits() * 2
    have_header = np.flatnonzero(n_chips >= header_chips)
    if not len(have_header):
        return results
    header_bits, _ = coding.fm0_decode_batch(chips[have_header, :header_chips])
    header_bytes = np.packbits(header_bits.astype(np.uint8), axis=1)
    node_ids = header_bytes[:, 0]
    lengths = header_bytes[:, 1]
    for length in np.unique(lengths).tolist():
        total_chips = config.frame_bits(length) * 2
        sel = np.flatnonzero(
            (lengths == length) & (n_chips[have_header] >= total_chips)
        )
        if not len(sel):
            continue
        g_rows = have_header[sel]
        all_bits, violations = coding.fm0_decode_batch(
            chips[g_rows, :total_chips]
        )
        payload_bits = all_bits[:, 16 : 16 + length * 8]
        fcs = all_bits[:, 16 + length * 8 : 16 + length * 8 + 16]
        crc = crc16_ccitt_batch(
            np.concatenate([all_bits[:, :16], payload_bits], axis=1)
        )
        ok = (crc == fcs).all(axis=1)
        packed = (
            np.packbits(payload_bits.astype(np.uint8), axis=1)
            if length
            else None
        )
        for j, t in enumerate(g_rows.tolist()):
            results[t] = ParsedFrame(
                node_id=int(node_ids[sel[j]]),
                payload=packed[j].tobytes() if packed is not None else b"",
                crc_ok=bool(ok[j]),
                fm0_violations=int(violations[j]),
                fec_corrections=0,
            )
    return results


def parse_frame(
    chips: np.ndarray, config: Optional[FrameConfig] = None
) -> Optional[ParsedFrame]:
    """Parse the coded region of a frame (chips *after* the preamble).

    The chip stream may be longer than one frame (the receiver slices on
    detection and hands over everything it has); the header's length
    field decides how much is consumed.

    Returns:
        The parsed frame, or None when the stream is too short. CRC
        failures still return a frame (with ``crc_ok=False``) so callers
        can count them.
    """
    if config is None:
        config = FrameConfig()
    cpb = coding.chips_per_bit(config.line_code)
    header_chips = config.header_bits() * cpb
    if len(chips) < header_chips:
        return None

    violations = 0
    if config.line_code is LineCode.FM0:
        header_bits, violations = coding.fm0_decode(chips[:header_chips])
    else:
        header_bits = coding.decode(chips[:header_chips], config.line_code)
    header = bits_to_bytes(header_bits)
    node_id, length = header[0], header[1]

    total_chips = config.frame_bits(length) * cpb
    if len(chips) < total_chips:
        return None
    body_chips = chips[header_chips:total_chips]
    if config.line_code is LineCode.FM0:
        # Decode the full coded region once so boundary accounting spans
        # the header/body seam correctly.
        all_bits, violations = coding.fm0_decode(chips[:total_chips])
        body_coded = all_bits[config.header_bits():]
    else:
        body_coded = coding.decode(body_chips, config.line_code)

    info_bits = config.body_bits(length)
    if config.interleave_depth > 1:
        pre_pad = config.coded_body_bits(length)
        # Length before interleaver padding (= after FEC expansion).
        if config.fec is FECScheme.HAMMING74:
            fec_len = -(-info_bits // 4) * 7
        elif config.fec is FECScheme.REPETITION3:
            fec_len = info_bits * 3
        else:
            fec_len = info_bits
        body_coded = deinterleave(body_coded[:pre_pad], config.interleave_depth, fec_len)
    body_bits, corrections = fec_decode(body_coded, config.fec)
    body_bits = body_bits[:info_bits]

    payload_bits = body_bits[: length * 8]
    fcs = body_bits[length * 8 : length * 8 + 16]
    # The CRC covers the scrambled (on-air) payload bits.
    ok = bool(
        np.array_equal(
            crc16_ccitt(np.concatenate([header_bits, payload_bits])), fcs
        )
    )
    if config.scramble:
        from repro.phy.scrambler import descramble

        payload_bits = descramble(payload_bits)
    payload = bits_to_bytes(payload_bits)
    return ParsedFrame(
        node_id=node_id,
        payload=payload,
        crc_ok=ok,
        fm0_violations=violations,
        fec_corrections=corrections,
    )
