"""Planar (2-D) Van Atta arrays: retrodirectivity in both planes.

A linear array retrodirects only in its own plane — tilt the node in
elevation and the reflection walks away. The planar extension (the
paper's scaling direction for full-orientation coverage) places elements
on a grid and pairs each with its point reflection through the array
centre; the same mirror argument then conjugates the phase gradient in
*both* axes, making the monostatic gain independent of azimuth and
elevation simultaneously.

Geometry: the array face lies in a local (u, w) plane (u = horizontal
aperture axis, w = vertical). An incident direction is (azimuth, elevation)
off broadside; its direction cosines on the face are
``(sin(az) cos(el), sin(el))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.contracts import DB, DEG, HZ, METERS, MPS
from repro.piezo.transducer import Transducer
from repro.vanatta.polarity import PairingScheme


def grid_positions(
    num_u: int, num_w: int, spacing_m: float
) -> np.ndarray:
    """Element coordinates of a centred ``num_u x num_w`` grid, shape (N, 2)."""
    if num_u < 1 or num_w < 1:
        raise ValueError("grid dimensions must be >= 1")
    if spacing_m <= 0:
        raise ValueError("spacing must be positive")
    us = (np.arange(num_u) - (num_u - 1) / 2.0) * spacing_m
    ws = (np.arange(num_w) - (num_w - 1) / 2.0) * spacing_m
    uu, ww = np.meshgrid(us, ws, indexing="ij")
    return np.column_stack([uu.ravel(), ww.ravel()])


def point_mirror_pairs(positions: np.ndarray, tol: float = 1e-9) -> List[Tuple[int, int]]:
    """Pair every element with its point reflection through the origin.

    Matching is O(N): coordinates are quantized to the tolerance and
    looked up in a hash of rounded keys (each lookup also probes the
    neighbouring quantization cells, so points straddling a rounding
    boundary still meet their mirrors). The previous all-pairs scan was
    O(N^2) and dominated construction beyond ~1k elements.

    Raises:
        ValueError: if some element has no mirror partner in the layout.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    coords = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    if coords.shape[0] == 1 and np.ndim(positions) == 1:
        coords = coords.T
    n = len(coords)
    quantized = np.round(coords / tol).astype(np.int64)
    buckets: Dict[Tuple[int, ...], List[int]] = {}
    for i in range(n):
        buckets.setdefault(tuple(quantized[i]), []).append(i)

    dims = coords.shape[1]
    offsets = np.indices((3,) * dims).reshape(dims, -1).T - 1
    used = [False] * n
    pairs: List[Tuple[int, int]] = []
    for i in range(n):
        if used[i]:
            continue
        key = np.round(-coords[i] / tol).astype(np.int64)
        match = None
        for off in offsets:
            for j in buckets.get(tuple(key + off), ()):
                if (j == i or not used[j]) and np.allclose(
                    coords[j], -coords[i], atol=tol
                ):
                    match = j if match is None else min(match, j)
        if match is None:
            raise ValueError(f"element {i} has no point-mirror partner")
        pairs.append((i, match))
        used[i] = True
        used[match] = True
    return pairs


@dataclass(frozen=True)
class PlanarVanAttaArray:
    """A point-mirror-paired planar array.

    Attributes:
        positions_m: (N, 2) element coordinates in the face plane.
        pairs: index pairs connected by equal-length lines.
        element: shared transducer model.
        pairing: polarity scheme of the pair wiring.
        line_loss_db: one-way electrical loss per pair line.
    """

    positions_m: np.ndarray
    pairs: Tuple[Tuple[int, int], ...]
    element: Transducer = field(default_factory=Transducer)
    pairing: PairingScheme = PairingScheme.CROSS_POLARITY
    line_loss_db: float = 0.5

    def __post_init__(self) -> None:
        seen = set()
        n = len(self.positions_m)
        for a, b in self.pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"pair ({a}, {b}) out of range")
            for e in {a, b}:
                if e in seen:
                    raise ValueError(f"element {e} in more than one pair")
                seen.add(e)
        if len(seen) != n:
            raise ValueError("every element must belong to exactly one pair")

    @staticmethod
    def uniform(
        num_u: int = 2,
        num_w: int = 2,
        spacing_m: Optional[METERS] = None,
        frequency_hz: HZ = 18_500.0,
        sound_speed: MPS = 1500.0,
        element: Optional[Transducer] = None,
        pairing: PairingScheme = PairingScheme.CROSS_POLARITY,
    ) -> "PlanarVanAttaArray":
        """A half-wavelength grid with point-mirror pairing."""
        if spacing_m is None:
            spacing_m = sound_speed / frequency_hz / 2.0
        positions = grid_positions(num_u, num_w, spacing_m)
        return PlanarVanAttaArray(
            positions_m=positions,
            pairs=tuple(point_mirror_pairs(positions)),
            element=element if element is not None else Transducer(),
            pairing=pairing,
        )

    @property
    def num_elements(self) -> int:
        """Number of physical elements."""
        return len(self.positions_m)

    def line_gain(self) -> float:
        """Linear amplitude gain of one pair line."""
        return 10.0 ** (-self.line_loss_db / 20.0)

    def is_point_symmetric(self, tol: float = 1e-9) -> bool:
        """True when every pair mirrors through the array centre."""
        for a, b in self.pairs:
            if not np.allclose(self.positions_m[a], -self.positions_m[b], atol=tol):
                return False
        return True


def direction_cosines(azimuth_deg: float, elevation_deg: float) -> np.ndarray:
    """Face-plane direction cosines (u, w) of an incidence direction."""
    az = math.radians(azimuth_deg)
    el = math.radians(elevation_deg)
    return np.array([math.sin(az) * math.cos(el), math.sin(el)])


def planar_response(
    array: PlanarVanAttaArray,
    frequency_hz: HZ,
    az_in_deg: DEG,
    el_in_deg: DEG,
    az_out_deg: DEG,
    el_out_deg: DEG,
    sound_speed: MPS = 1500.0,
) -> complex:
    """Bistatic complex response of the planar array (per ideal element).

    Delegates to the batched array-factor kernel
    (:mod:`repro.vanatta.fastfield`) at batch size 1; the original
    per-pair loop survives as the ``reference_planar_response`` oracle
    in ``tests/test_vanatta_fastfield.py``, which holds the two to
    ``<= 1e-9``.
    """
    from repro.vanatta.fastfield import ArrayFactorEngine

    engine = ArrayFactorEngine.from_planar(array)
    return complex(
        engine.planar_response_batch(
            frequency_hz, az_in_deg, el_in_deg, az_out_deg, el_out_deg,
            sound_speed,
        )
    )


def planar_monostatic_gain(
    array: PlanarVanAttaArray,
    frequency_hz: HZ,
    azimuth_deg: DEG,
    elevation_deg: DEG,
    sound_speed: MPS = 1500.0,
) -> complex:
    """Response back toward the source from an (az, el) direction."""
    return planar_response(
        array,
        frequency_hz,
        azimuth_deg,
        elevation_deg,
        azimuth_deg,
        elevation_deg,
        sound_speed,
    )


def planar_monostatic_gain_db(
    array: PlanarVanAttaArray,
    frequency_hz: HZ,
    azimuth_deg: DEG,
    elevation_deg: DEG,
    sound_speed: MPS = 1500.0,
) -> DB:
    """Monostatic field gain in dB re one ideal element."""
    mag = abs(
        planar_monostatic_gain(
            array, frequency_hz, azimuth_deg, elevation_deg, sound_speed
        )
    )
    return 20.0 * math.log10(max(mag, 1e-15))
