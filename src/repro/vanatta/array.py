"""Array geometry and Van Atta pairing.

The reproduction's default geometry matches the paper's: a uniform linear
array of piezo cylinders at half-wavelength spacing, wired in mirror-image
pairs (element ``i`` with element ``N-1-i``). Even element counts pair
everything; odd counts leave the centre element self-paired (it reflects
through a matched line to itself, which is still phase-correct).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.contracts import HZ, METERS, MPS
from repro.piezo.transducer import Transducer
from repro.vanatta.polarity import PairingScheme, pair_phase_errors


def linear_positions(num_elements: int, spacing_m: float) -> np.ndarray:
    """Positions (metres) of a uniform linear array centred on the origin.

    The array lies along a single axis; positions are scalars because the
    retrodirective math only needs the projection onto the array axis.
    """
    if num_elements < 1:
        raise ValueError("need at least one element")
    if spacing_m <= 0:
        raise ValueError("spacing must be positive")
    idx = np.arange(num_elements, dtype=np.float64)
    return (idx - (num_elements - 1) / 2.0) * spacing_m


def mirror_pairs(num_elements: int) -> List[Tuple[int, int]]:
    """Van Atta pairing: element ``i`` with its mirror ``N-1-i``.

    Returns one tuple per pair; the centre element of an odd array is
    paired with itself.
    """
    pairs = []
    for i in range((num_elements + 1) // 2):
        pairs.append((i, num_elements - 1 - i))
    return pairs


@dataclass(frozen=True)
class VanAttaArray:
    """A pair-connected transducer array.

    Attributes:
        positions_m: element coordinates along the array axis, metres.
        pairs: index pairs connected by transmission lines.
        element: the transducer model shared by all elements.
        pairing: polarity scheme used when wiring the pairs.
        line_loss_db: one-way electrical loss of a pair connection, dB.
        line_phase_rad: common electrical phase of every pair line
            (equal-length lines — a Van Atta requirement — make this a
            constant that drops out of the pattern).
    """

    positions_m: np.ndarray
    pairs: Tuple[Tuple[int, int], ...]
    element: Transducer = field(default_factory=Transducer)
    pairing: PairingScheme = PairingScheme.CROSS_POLARITY
    line_loss_db: float = 0.5
    line_phase_rad: float = 0.0

    def __post_init__(self) -> None:
        n = len(self.positions_m)
        seen = set()
        for a, b in self.pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"pair ({a}, {b}) out of range for {n} elements")
            for e in {a, b}:
                if e in seen:
                    raise ValueError(f"element {e} appears in more than one pair")
                seen.add(e)
        if len(seen) != n:
            raise ValueError("every element must belong to exactly one pair")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def uniform(
        num_elements: int = 4,
        spacing_m: Optional[METERS] = None,
        frequency_hz: HZ = 18_500.0,
        sound_speed: MPS = 1500.0,
        element: Optional[Transducer] = None,
        pairing: PairingScheme = PairingScheme.CROSS_POLARITY,
    ) -> "VanAttaArray":
        """A half-wavelength uniform linear Van Atta array.

        Args:
            num_elements: element count (the paper's prototype uses 4).
            spacing_m: element spacing; defaults to lambda/2.
            frequency_hz: design frequency (sets the default spacing).
            sound_speed: medium sound speed for the wavelength.
            element: transducer model (default VAB element).
            pairing: polarity scheme for the pair wiring.
        """
        if spacing_m is None:
            spacing_m = sound_speed / frequency_hz / 2.0
        return VanAttaArray(
            positions_m=linear_positions(num_elements, spacing_m),
            pairs=tuple(mirror_pairs(num_elements)),
            element=element if element is not None else Transducer(),
            pairing=pairing,
        )

    # -- properties --------------------------------------------------------------

    @property
    def num_elements(self) -> int:
        """Number of physical elements."""
        return len(self.positions_m)

    @property
    def num_pairs(self) -> int:
        """Number of pair connections (centre self-pair counts once)."""
        return len(self.pairs)

    @property
    def aperture_m(self) -> float:
        """End-to-end aperture, metres."""
        return float(self.positions_m.max() - self.positions_m.min())

    @property
    def spacing_m(self) -> float:
        """Element pitch (assumes uniform spacing)."""
        if self.num_elements < 2:
            return 0.0
        return float(self.positions_m[1] - self.positions_m[0])

    def line_gain(self) -> float:
        """Linear amplitude gain of one pair line (from ``line_loss_db``)."""
        return 10.0 ** (-self.line_loss_db / 20.0)

    def pair_phases(self) -> np.ndarray:
        """Extra phase each pair contributes (polarity errors + line phase).

        Cross-polarity wiring co-phases all pairs (zero error); naive
        wiring leaves alternating pairs pi out of phase — see
        :mod:`repro.vanatta.polarity`.
        """
        errors = pair_phase_errors(self.num_pairs, self.pairing)
        return errors + self.line_phase_rad

    def is_mirror_symmetric(self, tol: float = 1e-9) -> bool:
        """True when every pair is a mirror-image pair (true Van Atta)."""
        for a, b in self.pairs:
            if abs(self.positions_m[a] + self.positions_m[b]) > tol:
                return False
        return True
