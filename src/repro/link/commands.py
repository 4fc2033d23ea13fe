"""Downlink command vocabulary.

Commands ride the PIE downlink and must decode on a comparator-and-timer
budget, so the format is fixed-length and tiny::

    +--------+---------+-------+
    | opcode | arg     | crc4  |     16 bits total
    | 4 bits | 8 bits  | 4 bits|
    +--------+---------+-------+

Vocabulary (a deliberately minimal Gen2-flavoured set):

* ``QUERY(q)``    — open an inventory round with ``2**q`` slots; every
  unselected, awake node draws a slot.
* ``QUERY_REP``   — advance to the next slot of the current round.
* ``ACK(id)``     — acknowledge node ``id``; it stays silent for the rest
  of the inventory.
* ``SELECT(id)``  — address one node; only it answers until deselected
  (``SELECT(0)`` clears).
* ``SLEEP(code)`` — duty-cycle command: nodes hibernate for
  ``2**code`` superframes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.phy.bits import as_bits

CRC4_POLY = 0x3  # x^4 + x + 1
COMMAND_BITS = 16


class Opcode(enum.IntEnum):
    """Command opcodes (4 bits)."""

    QUERY = 0x1
    QUERY_REP = 0x2
    ACK = 0x3
    SELECT = 0x4
    SLEEP = 0x5


@dataclass(frozen=True)
class Command:
    """One downlink command.

    Attributes:
        opcode: what to do.
        arg: 8-bit argument (slot exponent, node id, or sleep code).
    """

    opcode: Opcode
    arg: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.arg <= 255:
            raise ValueError("arg must fit in 8 bits")

    # -- convenience constructors ------------------------------------------

    @staticmethod
    def query(q: int) -> "Command":
        """Open a round with ``2**q`` slots (q in 0..15)."""
        if not 0 <= q <= 15:
            raise ValueError("q must be in 0..15")
        return Command(Opcode.QUERY, q)

    @staticmethod
    def query_rep() -> "Command":
        """Advance to the next slot."""
        return Command(Opcode.QUERY_REP, 0)

    @staticmethod
    def ack(node_id: int) -> "Command":
        """Acknowledge a node."""
        return Command(Opcode.ACK, node_id)

    @staticmethod
    def select(node_id: int) -> "Command":
        """Address a single node (0 clears the selection)."""
        return Command(Opcode.SELECT, node_id)

    @staticmethod
    def sleep(code: int) -> "Command":
        """Hibernate nodes for ``2**code`` superframes."""
        return Command(Opcode.SLEEP, code)


def crc4(bits: Sequence[int]) -> int:
    """CRC-4 (poly x^4+x+1, init 0) over a bit sequence."""
    reg = 0
    for b in as_bits(bits).tolist():
        reg ^= b << 3
        if reg & 0x8:
            reg = ((reg << 1) ^ CRC4_POLY) & 0xF
        else:
            reg = (reg << 1) & 0xF
    return reg


def encode_command(command: Command) -> np.ndarray:
    """Serialise a command to its 16-bit wire format."""
    body = [(int(command.opcode) >> (3 - i)) & 1 for i in range(4)]
    body += [(command.arg >> (7 - i)) & 1 for i in range(8)]
    fcs = crc4(body)
    bits = body + [(fcs >> (3 - i)) & 1 for i in range(4)]
    return np.array(bits, dtype=np.int64)


def decode_command(bits: Sequence[int]) -> Optional[Command]:
    """Parse 16 command bits; None on bad length, CRC, or opcode."""
    bits = list(bits)
    if len(bits) != COMMAND_BITS:
        return None
    body, fcs_bits = bits[:12], bits[12:]
    try:
        if crc4(body) != int("".join(str(int(b)) for b in fcs_bits), 2):
            return None
    except ValueError:
        return None
    opcode_val = int("".join(str(int(b)) for b in body[:4]), 2)
    arg = int("".join(str(int(b)) for b in body[4:]), 2)
    try:
        opcode = Opcode(opcode_val)
    except ValueError:
        return None
    return Command(opcode, arg)
