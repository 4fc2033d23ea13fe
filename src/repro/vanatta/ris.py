"""Programmable phase surfaces: acoustic RIS on the fast-field kernel.

A Van Atta array is *passive* retrodirectivity: the pair wiring bakes
the phase-conjugation into the geometry. A reconfigurable intelligent
surface (RIS) gets the same physics *programmably* — every element
re-radiates its capture through a controllable phase shifter, so one
surface can steer reflections anywhere, serve several readers at once,
and trade phase-shifter resolution against gain. The acoustic-RIS
literature (massive spatial multiplexing, degrees of freedom) is the
workload this module models.

Both reflector families are configurations of one kernel
(:class:`repro.vanatta.fastfield.ArrayFactorEngine`): a Van Atta is the
mirror permutation with polarity weights, an RIS is the identity
permutation with codebook weights. :func:`retro_phases_rad` makes the
equivalence executable — it programs a surface to mimic a Van Atta for
a given incidence, and the fast-field tests pin the two responses to
each other.

Quantization: real phase shifters snap to ``2^bits`` levels.
:func:`quantize_phases_rad` rounds a codebook to the nearest level, and
:func:`quantization_loss_db` gives the classical coherence loss (about
0.2 dB at 3 bits, 3.9 dB at 1 bit).

Multi-reader spatial multiplexing: :func:`reader_steering_matrix`
builds the readers-by-elements phasor matrix whose singular values are
the surface's spatial subchannels; :func:`spatial_dof` counts the
usable ones and :func:`sum_capacity_bits` waterfills power across them
— the capacity/DoF-versus-element-count curves of the E21 benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.contracts import DB, DEG, HZ, MPS
from repro.piezo.transducer import Transducer
from repro.vanatta.fastfield import (
    ArrayFactorEngine,
    ArrayLike,
    direction_cosine_grid,
    wavenumber,
)
from repro.vanatta.planar import grid_positions


def steering_phases_rad(
    positions_m: np.ndarray,
    frequency_hz: HZ,
    az_in_deg: DEG,
    el_in_deg: DEG,
    az_out_deg: DEG,
    el_out_deg: DEG,
    sound_speed: MPS = 1500.0,
) -> np.ndarray:
    """Codebook that reflects an ``(az, el)`` incidence toward a target.

    Cancels each element's round-trip path phase so all re-radiated
    terms add coherently toward the outgoing direction:
    ``phi_i = -k x_i . (u_in + u_out)``.
    """
    k = wavenumber(frequency_hz, sound_speed)
    positions = _face_positions(positions_m)
    u_in = direction_cosine_grid(az_in_deg, el_in_deg)
    u_out = direction_cosine_grid(az_out_deg, el_out_deg)
    return -k * (positions @ (u_in + u_out))


def retro_phases_rad(
    positions_m: np.ndarray,
    frequency_hz: HZ,
    az_deg: DEG,
    el_deg: DEG,
    sound_speed: MPS = 1500.0,
) -> np.ndarray:
    """Codebook that retro-reflects one incidence (emulates a Van Atta).

    Unlike the passive array — retrodirective at *every* incidence —
    a programmed surface conjugates the phase gradient of one known
    direction; tracking a moving reader means re-programming.
    """
    return steering_phases_rad(
        positions_m, frequency_hz, az_deg, el_deg, az_deg, el_deg, sound_speed
    )


def quantize_phases_rad(phases_rad: np.ndarray, bits: int) -> np.ndarray:
    """Snap a phase codebook to ``2^bits`` uniform phase-shifter levels."""
    if bits < 1:
        raise ValueError("need at least one quantization bit")
    levels = 2**bits
    step = 2.0 * math.pi / levels
    return np.round(np.asarray(phases_rad, dtype=np.float64) / step) * step


def quantization_loss_db(bits: int) -> DB:
    """Coherence loss of uniform phase quantization, dB (field).

    Phase errors uniform on ``[-pi/2^bits, pi/2^bits]`` shrink the
    coherent sum by ``sinc(1/2^bits)`` — about 3.9 dB at 1 bit, 0.9 dB
    at 2 bits, 0.2 dB at 3 bits.
    """
    if bits < 1:
        raise ValueError("need at least one quantization bit")
    return -20.0 * math.log10(np.sinc(1.0 / 2**bits))


@dataclass(frozen=True)
class PhaseSurface:
    """A programmable reflecting surface.

    Attributes:
        positions_m: ``(N, 2)`` element coordinates in the face plane
            (``(N,)`` / ``(N, 1)`` inputs model a linear strip).
        phases_rad: per-element programmed phase shifts.
        element: shared transducer model.
        reflection_loss_db: per-element reflection insertion loss.
        phase_bits: phase-shifter resolution; ``None`` = continuous.
            Quantization applies when the surface is programmed
            (:meth:`with_phases`, :meth:`steered`, :meth:`retro`).
    """

    positions_m: np.ndarray
    phases_rad: np.ndarray
    element: Transducer = field(default_factory=Transducer)
    reflection_loss_db: float = 0.5
    phase_bits: Optional[int] = None

    def __post_init__(self) -> None:
        positions = _face_positions(self.positions_m)
        phases = np.asarray(self.phases_rad, dtype=np.float64)
        if phases.shape != (len(positions),):
            raise ValueError("need one programmed phase per element")
        if self.phase_bits is not None and self.phase_bits < 1:
            raise ValueError("need at least one quantization bit")
        object.__setattr__(self, "positions_m", positions)
        object.__setattr__(self, "phases_rad", phases)

    @staticmethod
    def uniform(
        num_u: int = 16,
        num_w: int = 16,
        spacing_m: Optional[float] = None,
        frequency_hz: HZ = 18_500.0,
        sound_speed: MPS = 1500.0,
        element: Optional[Transducer] = None,
        phase_bits: Optional[int] = None,
    ) -> "PhaseSurface":
        """A half-wavelength grid surface programmed to all-zero phase."""
        if spacing_m is None:
            spacing_m = sound_speed / frequency_hz / 2.0
        positions = grid_positions(num_u, num_w, spacing_m)
        return PhaseSurface(
            positions_m=positions,
            phases_rad=np.zeros(len(positions)),
            element=element if element is not None else Transducer(),
            phase_bits=phase_bits,
        )

    @property
    def num_elements(self) -> int:
        """Number of programmable elements."""
        return len(self.positions_m)

    def reflection_gain(self) -> float:
        """Linear amplitude gain of one element's reflection path."""
        return 10.0 ** (-self.reflection_loss_db / 20.0)

    # -- programming ----------------------------------------------------------

    def with_phases(self, phases_rad: np.ndarray) -> "PhaseSurface":
        """The same surface programmed with a new codebook (quantized
        to ``phase_bits`` when the surface models finite shifters)."""
        phases = np.asarray(phases_rad, dtype=np.float64)
        if self.phase_bits is not None:
            phases = quantize_phases_rad(phases, self.phase_bits)
        return PhaseSurface(
            positions_m=self.positions_m,
            phases_rad=phases,
            element=self.element,
            reflection_loss_db=self.reflection_loss_db,
            phase_bits=self.phase_bits,
        )

    def steered(
        self,
        frequency_hz: HZ,
        az_in_deg: DEG,
        el_in_deg: DEG,
        az_out_deg: DEG,
        el_out_deg: DEG,
        sound_speed: MPS = 1500.0,
    ) -> "PhaseSurface":
        """Programmed to reflect one incidence toward one target."""
        return self.with_phases(
            steering_phases_rad(
                self.positions_m, frequency_hz, az_in_deg, el_in_deg,
                az_out_deg, el_out_deg, sound_speed,
            )
        )

    def retro(
        self,
        frequency_hz: HZ,
        az_deg: DEG,
        el_deg: DEG,
        sound_speed: MPS = 1500.0,
    ) -> "PhaseSurface":
        """Programmed to retro-reflect one incidence (Van Atta mimic)."""
        return self.with_phases(
            retro_phases_rad(
                self.positions_m, frequency_hz, az_deg, el_deg, sound_speed
            )
        )

    # -- evaluation -----------------------------------------------------------

    def engine(self) -> ArrayFactorEngine:
        """The fast-field engine for the current programming."""
        return ArrayFactorEngine.from_phase_surface(
            self.positions_m,
            self.phases_rad,
            element=self.element,
            reflection_gain=self.reflection_gain(),
        )

    def response_batch(
        self,
        frequency_hz: ArrayLike,
        az_in_deg: ArrayLike,
        el_in_deg: ArrayLike,
        az_out_deg: ArrayLike,
        el_out_deg: ArrayLike,
        sound_speed: MPS = 1500.0,
    ) -> np.ndarray:
        """Bistatic complex response over a broadcast batch."""
        return self.engine().planar_response_batch(
            frequency_hz, az_in_deg, el_in_deg, az_out_deg, el_out_deg,
            sound_speed,
        )

    def monostatic_gain_db(
        self,
        frequency_hz: HZ,
        az_deg: ArrayLike,
        el_deg: ArrayLike,
        sound_speed: MPS = 1500.0,
    ) -> np.ndarray:
        """Monostatic field gain (dB re one ideal element), batched."""
        mag = np.abs(
            self.response_batch(
                frequency_hz, az_deg, el_deg, az_deg, el_deg, sound_speed
            )
        )
        return 20.0 * np.log10(np.maximum(mag, 1e-15))


# -- multi-reader spatial multiplexing ---------------------------------------


def reader_steering_matrix(
    positions_m: np.ndarray,
    frequency_hz: HZ,
    reader_directions_deg: Sequence[Tuple[float, float]],
    sound_speed: MPS = 1500.0,
) -> np.ndarray:
    """Readers-by-elements steering matrix of a shared aperture.

    Row ``r`` holds each element's round-trip phasor toward reader
    ``r`` at ``(az, el)``, normalised by ``sqrt(N)`` so every row has
    unit norm — the matrix whose singular values are the spatial
    subchannels the surface can multiplex.
    """
    k = wavenumber(frequency_hz, sound_speed)
    positions = _face_positions(positions_m)
    directions = np.asarray(
        [direction_cosine_grid(az, el) for az, el in reader_directions_deg]
    )
    if directions.size == 0:
        raise ValueError("need at least one reader direction")
    phase = k * (directions @ positions.T)
    return np.exp(1j * phase) / math.sqrt(len(positions))


def spatial_dof(
    steering: np.ndarray, rel_threshold_db: DB = 20.0
) -> int:
    """Usable spatial degrees of freedom of a steering matrix.

    Counts singular values within ``rel_threshold_db`` of the largest —
    the number of readers the aperture can serve on near-orthogonal
    subchannels. Grows with element count until reader geometry, not
    aperture, becomes the bottleneck.
    """
    if rel_threshold_db <= 0:
        raise ValueError("threshold must be positive dB")
    sigma = np.linalg.svd(np.asarray(steering), compute_uv=False)
    if sigma.size == 0 or sigma[0] <= 0:
        return 0
    floor = sigma[0] * 10.0 ** (-rel_threshold_db / 20.0)
    return int(np.count_nonzero(sigma >= floor))


def sum_capacity_bits(
    steering: np.ndarray, snr_db: DB = 10.0
) -> float:
    """Sum capacity (bits/s/Hz) of the multiplexed downlink, waterfilled.

    Treats the steering matrix's eigenmodes as parallel Gaussian
    subchannels with total transmit SNR ``snr_db`` and waterfills power
    across them — the standard MIMO sum-capacity bound, here indexing
    how much *spatial* rate a massive surface adds over a single beam.
    """
    sigma_sq = (
        np.linalg.svd(np.asarray(steering), compute_uv=False) ** 2
    )
    sigma_sq = sigma_sq[sigma_sq > 1e-15]
    if sigma_sq.size == 0:
        return 0.0
    snr = 10.0 ** (snr_db / 10.0)
    inv = 1.0 / (snr * sigma_sq)
    # Waterfilling: find the level mu with sum(mu - inv)_+ = 1.
    order = np.argsort(inv)
    inv_sorted = inv[order]
    mu = 0.0
    for m in range(len(inv_sorted), 0, -1):
        mu = (1.0 + inv_sorted[:m].sum()) / m
        if mu > inv_sorted[m - 1]:
            break
    powers = np.maximum(mu - inv, 0.0)
    return float(np.log2(1.0 + powers * snr * sigma_sq).sum())


def _face_positions(positions_m: np.ndarray) -> np.ndarray:
    """Coerce positions to an ``(N, 2)`` face-plane tensor."""
    positions = np.asarray(positions_m, dtype=np.float64)
    if positions.ndim == 1:
        positions = positions[:, None]
    if positions.ndim != 2:
        raise ValueError("positions must be (N,), (N, 1) or (N, 2)")
    if positions.shape[1] == 1:
        positions = np.column_stack(
            [positions[:, 0], np.zeros(len(positions))]
        )
    if positions.shape[1] != 2:
        raise ValueError("positions must be (N,), (N, 1) or (N, 2)")
    return positions
