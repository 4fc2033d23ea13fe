"""Batched array-factor engine: massive Van Atta arrays in one ndarray op.

The scalar response functions (:mod:`repro.vanatta.retrodirective`,
:mod:`repro.vanatta.planar`) evaluate the far-field phasor sum with one
``np.exp`` call per pair per angle — fine for the paper's 4-element
prototype, hopeless for the thousands-of-element apertures the acoustic
RIS literature targets. This module evaluates the same sum as a single
broadcasted tensor operation.

**The term tensor.** Every pair ``(a, b)`` contributes two terms (one
per propagation direction through the pair line); a self-paired centre
element contributes one. Equivalently, *each element* ``i`` contributes
exactly one term: receive on ``i``, re-radiate from its pair partner
``perm(i)``::

    field = sum_i w_i * exp(j * k * (x_i . u_in + x_perm(i) . u_out))

with ``w_i = exp(j * phase of i's pair line)``. The engine precomputes
the ``(N, D)`` receive/re-radiate position tensors and the complex
weights once per array, then evaluates arbitrary broadcast batches of
``(frequency, angle_in, angle_out)`` with two matmuls and one ``exp``
— thousands of elements times hundreds of angles in one shot.

**One kernel, two wirings.** Passive Van Atta pairing is the engine
configured with the mirror permutation and pair-polarity weights;
an RIS-style programmable surface (:mod:`repro.vanatta.ris`) is the
*identity* permutation with per-element codebook phases. Both run the
same kernel, so benchmarks compare physics, not implementations.

**Delegation contract.** The scalar entry points in
``retrodirective``/``planar`` delegate to this kernel at batch size 1
(the ``phy.batch`` pattern): the per-pair loop survives only as
:func:`reference_response` / :func:`reference_planar_response`, the
parity baselines held to ``<= 1e-9`` complex error by
``tests/test_vanatta_fastfield.py`` and benchmarked by the
``arrayfactor`` arm of ``tools/bench_perf.py``.

For dense uniform sweeps over ``u = sin(theta)`` the engine also offers
a Bluestein chirp-Z path (:meth:`ArrayFactorEngine.bistatic_cut_czt`)
that evaluates a uniform-grid bistatic cut in ``O(N log N)`` instead of
``O(N * M)``.

**The retrodirective collapse.** Monostatic sweeps get a second
structural shortcut: with ``u_in == u_out == u`` each term's phase is
``k * (x_i + x_perm(i)) . u`` — it depends on the element only through
its *path-length sum*. Elements sharing a sum pool their weights into
one term, and a mirror-paired Van Atta pools **all** of them (every
pair straddles the centre, so every sum is the same constant — which
is exactly why its monostatic response is flat). The monostatic path
therefore costs ``O(U * M)`` with ``U`` unique sums, turning the
1024-element benchmark sweep from ~2e5 transcendental evaluations into
a few hundred. Arbitrary (RIS / random-paired) geometries degrade
gracefully to ``U = N``, i.e. the dense cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence, Tuple, Union

import numpy as np

from repro.contracts import DEG, HZ, MPS, ComplexShaped, FloatShaped
from repro.obs.metrics import counter, gauge
from repro.obs.probes import probe_finite
from repro.obs.spans import span
from repro.piezo.transducer import Transducer
from repro.vanatta.array import VanAttaArray
from repro.vanatta.polarity import pair_phase_errors

if TYPE_CHECKING:  # planar imports fastfield; break the cycle at runtime
    from repro.vanatta.planar import PlanarVanAttaArray

FASTFIELD_ENGINE_VERSION = 1
"""Version stamp of the batched array-factor kernel; recorded in BENCH
records and run manifests so results pin the kernel generation that
produced them (the ``batched_engine_version`` pattern from the PHY)."""

EVALS_COUNTER = counter(
    "repro.vanatta.fastfield.evals",
    "field-point evaluations served by the batched array-factor kernel",
)
BATCHES_COUNTER = counter(
    "repro.vanatta.fastfield.batches",
    "batched array-factor kernel invocations",
)
BATCH_SIZE_GAUGE = gauge(
    "repro.vanatta.fastfield.batch",
    "field points in the last array-factor batch",
)

ArrayLike = Union[float, Sequence[float], np.ndarray]


def wavenumber(frequency_hz: HZ, sound_speed: MPS) -> float:
    """Acoustic wavenumber ``2 pi f / c`` (rad/m) with positivity checks."""
    if frequency_hz <= 0 or sound_speed <= 0:
        raise ValueError("frequency and sound speed must be positive")
    return 2.0 * math.pi * frequency_hz / sound_speed


def pair_permutation(num_elements: int, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Element -> pair-partner permutation (self-paired centre maps to itself)."""
    perm = np.full(num_elements, -1, dtype=np.intp)
    for a, b in pairs:
        perm[a] = b
        perm[b] = a
    if (perm < 0).any():
        raise ValueError("pairs do not cover every element")
    return perm


def element_phases_rad(
    num_elements: int,
    pairs: Sequence[Tuple[int, int]],
    pair_phases: np.ndarray,
) -> np.ndarray:
    """Spread per-pair line phases onto the elements they connect."""
    phases = np.zeros(num_elements, dtype=np.float64)
    for (a, b), extra in zip(pairs, pair_phases):
        phases[a] = extra
        phases[b] = extra
    return phases


def direction_cosine_grid(
    azimuth_deg: ArrayLike, elevation_deg: ArrayLike
) -> FloatShaped["...", 2]:
    """Face-plane direction cosines ``(sin az cos el, sin el)``, batched.

    Broadcasts azimuth against elevation; the result gains a trailing
    axis of length 2 (the ``(u, w)`` components).
    """
    az = np.radians(np.asarray(azimuth_deg, dtype=np.float64))
    el = np.radians(np.asarray(elevation_deg, dtype=np.float64))
    az, el = np.broadcast_arrays(az, el)
    return np.stack([np.sin(az) * np.cos(el), np.sin(el)], axis=-1)


def element_gain_vec(element: Transducer, theta_deg: ArrayLike) -> np.ndarray:
    """Vectorized :meth:`Transducer.element_gain` (identical semantics)."""
    e = np.abs(np.asarray(theta_deg, dtype=np.float64))
    if element.elevation_rolloff_exponent <= 0:
        return np.ones_like(e)
    with np.errstate(invalid="ignore"):
        g = np.cos(np.radians(np.minimum(e, 90.0))) ** element.elevation_rolloff_exponent
    return np.where(e >= 90.0, 0.0, g)


def off_broadside_deg(azimuth_deg: ArrayLike, elevation_deg: ArrayLike) -> np.ndarray:
    """Total off-broadside angle of an (az, el) direction, degrees, batched."""
    az = np.radians(np.asarray(azimuth_deg, dtype=np.float64))
    el = np.radians(np.asarray(elevation_deg, dtype=np.float64))
    c = np.clip(np.cos(az) * np.cos(el), -1.0, 1.0)
    return np.degrees(np.arccos(c))


@dataclass(frozen=True)
class ArrayFactorEngine:
    """Precomputed term tensors for one reflector configuration.

    Attributes:
        rx_positions_m: ``(N, D)`` receive-leg element coordinates
            (``D=1`` linear, ``D=2`` planar face coordinates).
        tx_positions_m: ``(N, D)`` re-radiate-leg coordinates — the
            pair permutation applied to ``rx_positions_m`` for a Van
            Atta, identical to it for an RIS surface.
        weights: ``(N,)`` complex per-term weights (pair polarity /
            line phase for a Van Atta, codebook phases for an RIS).
        line_gain: scalar amplitude gain of the pair/reflection path.
        element: shared transducer model for the element pattern.
    """

    rx_positions_m: np.ndarray
    tx_positions_m: np.ndarray
    weights: np.ndarray
    line_gain: float
    element: Transducer

    def __post_init__(self) -> None:
        rx = np.asarray(self.rx_positions_m, dtype=np.float64)
        tx = np.asarray(self.tx_positions_m, dtype=np.float64)
        if rx.ndim != 2 or tx.shape != rx.shape:
            raise ValueError("rx/tx position tensors must share an (N, D) shape")
        if len(self.weights) != len(rx):
            raise ValueError("need one complex weight per element term")
        object.__setattr__(self, "rx_positions_m", rx)
        object.__setattr__(self, "tx_positions_m", tx)
        object.__setattr__(
            self, "weights", np.asarray(self.weights, dtype=np.complex128)
        )

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_linear(array: VanAttaArray) -> "ArrayFactorEngine":
        """Term tensors of a linear Van Atta array."""
        positions = np.asarray(array.positions_m, dtype=np.float64)[:, None]
        perm = pair_permutation(array.num_elements, array.pairs)
        phases = element_phases_rad(
            array.num_elements, array.pairs, array.pair_phases()
        )
        return ArrayFactorEngine(
            rx_positions_m=positions,
            tx_positions_m=positions[perm],
            weights=np.exp(1j * phases),
            line_gain=array.line_gain(),
            element=array.element,
        )

    @staticmethod
    def from_planar(array: "PlanarVanAttaArray") -> "ArrayFactorEngine":
        """Term tensors of a planar (point-mirror) Van Atta array."""
        positions = np.asarray(array.positions_m, dtype=np.float64)
        n = len(positions)
        perm = pair_permutation(n, array.pairs)
        phases = element_phases_rad(
            n, array.pairs, pair_phase_errors(len(array.pairs), array.pairing)
        )
        return ArrayFactorEngine(
            rx_positions_m=positions,
            tx_positions_m=positions[perm],
            weights=np.exp(1j * phases),
            line_gain=array.line_gain(),
            element=array.element,
        )

    @staticmethod
    def from_phase_surface(
        positions_m: np.ndarray,
        phases_rad: np.ndarray,
        element: Optional[Transducer] = None,
        reflection_gain: float = 1.0,
    ) -> "ArrayFactorEngine":
        """Term tensors of a programmable (RIS-style) phase surface.

        Each element re-radiates its own capture with a programmed
        phase — the identity permutation with codebook weights.
        """
        positions = np.asarray(positions_m, dtype=np.float64)
        if positions.ndim == 1:
            positions = positions[:, None]
        phases = np.asarray(phases_rad, dtype=np.float64)
        if phases.shape != (len(positions),):
            raise ValueError("need one phase per surface element")
        return ArrayFactorEngine(
            rx_positions_m=positions,
            tx_positions_m=positions,
            weights=np.exp(1j * phases),
            line_gain=float(reflection_gain),
            element=element if element is not None else Transducer(),
        )

    # -- properties -----------------------------------------------------------

    @property
    def num_elements(self) -> int:
        """Number of element terms in the sum."""
        return len(self.rx_positions_m)

    @property
    def num_axes(self) -> int:
        """Spatial dimensionality of the face coordinates (1 or 2)."""
        return int(self.rx_positions_m.shape[1])

    # -- core kernel ----------------------------------------------------------

    def field_sum(
        self,
        wavenumber: ArrayLike,
        u_in: FloatShaped["...", "D"],
        u_out: FloatShaped["...", "D"],
    ) -> ComplexShaped["..."]:
        """The raw weighted phasor sum over element terms.

        Args:
            wavenumber: acoustic wavenumber(s), broadcastable against
                the direction batch shape.
            u_in: incident direction cosines, shape ``(..., D)``.
            u_out: observation direction cosines, shape ``(..., D)``.

        Returns:
            Complex field of the broadcast batch shape (element and
            line gains *not* applied — callers own the leg gains).
        """
        rx = self.rx_positions_m
        tx = self.tx_positions_m
        u_in = np.asarray(u_in, dtype=np.float64)
        u_out = np.asarray(u_out, dtype=np.float64)
        # (..., D) @ (D, N) -> (..., N): per-term path-length projections.
        dot = u_in @ rx.T + u_out @ tx.T
        k = np.asarray(wavenumber, dtype=np.float64)
        phase = k[..., None] * dot
        with span("fastfield"):
            field = np.exp(1j * phase) @ self.weights
        BATCHES_COUNTER.inc()
        EVALS_COUNTER.inc(max(int(np.asarray(field).size), 1))
        BATCH_SIZE_GAUGE.set(float(np.asarray(field).size))
        probe_finite("vanatta.fastfield.field", np.asarray(field), stage="fastfield")
        return field

    @cached_property
    def _monostatic_groups(self) -> Tuple[np.ndarray, np.ndarray]:
        """Unique per-term path-length sums and their pooled weights.

        The monostatic phase of term ``i`` is ``k * s_i . u`` with
        ``s_i = rx_i + tx_i``; terms with equal ``s_i`` (to 1e-12 of
        the aperture scale) are one term with summed weights. Cached on
        first monostatic call (the geometry is frozen).
        """
        sums = self.rx_positions_m + self.tx_positions_m
        scale = max(float(np.abs(sums).max(initial=0.0)), 1.0)
        keys = np.round(sums / (1e-12 * scale)).astype(np.int64)
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        inverse = np.asarray(inverse).reshape(-1)
        pooled = np.zeros(len(uniq), dtype=np.complex128)
        np.add.at(pooled, inverse, self.weights)
        # Use an exact member of each group as its representative so
        # no quantisation enters the phase (groups span <= 1e-12*scale).
        reps = np.zeros((len(uniq), sums.shape[1]), dtype=np.float64)
        reps[inverse] = sums
        return reps, pooled

    def monostatic_field_sum(
        self, wavenumber: ArrayLike, u: FloatShaped["...", "D"]
    ) -> ComplexShaped["..."]:
        """Raw phasor sum for the monostatic case (``u_in == u_out``).

        Applies the retrodirective collapse (see the module docstring):
        the sum runs over unique path-length sums rather than elements,
        which for a mirror-paired Van Atta is a single term. Exactly
        equals ``field_sum(wavenumber, u, u)``; element and line gains
        are *not* applied.
        """
        sums, pooled = self._monostatic_groups
        u = np.asarray(u, dtype=np.float64)
        dot = u @ sums.T
        k = np.asarray(wavenumber, dtype=np.float64)
        phase = k[..., None] * dot
        with span("fastfield"):
            field = np.exp(1j * phase) @ pooled
        BATCHES_COUNTER.inc()
        EVALS_COUNTER.inc(max(int(np.asarray(field).size), 1))
        BATCH_SIZE_GAUGE.set(float(np.asarray(field).size))
        probe_finite("vanatta.fastfield.field", np.asarray(field), stage="fastfield")
        return field

    # -- linear-array sweeps --------------------------------------------------

    def response_batch(
        self,
        frequency_hz: ArrayLike,
        theta_in_deg: ArrayLike,
        theta_out_deg: ArrayLike,
        sound_speed: MPS = 1500.0,
    ) -> np.ndarray:
        """Bistatic response of a linear engine over a broadcast batch.

        ``frequency_hz``, ``theta_in_deg``, and ``theta_out_deg``
        broadcast against each other; the result has the broadcast
        shape (0-d inputs give a 0-d complex array).
        """
        if self.num_axes != 1:
            raise ValueError("response_batch needs a linear (D=1) engine")
        if sound_speed <= 0:
            raise ValueError("frequency and sound speed must be positive")
        freq = np.asarray(frequency_hz, dtype=np.float64)
        if (freq <= 0).any():
            raise ValueError("frequency and sound speed must be positive")
        t_in = np.asarray(theta_in_deg, dtype=np.float64)
        t_out = np.asarray(theta_out_deg, dtype=np.float64)
        freq_b, t_in_b, t_out_b = np.broadcast_arrays(freq, t_in, t_out)
        k = 2.0 * np.pi * freq_b / sound_speed
        u_in = np.sin(np.radians(t_in_b))[..., None]
        u_out = np.sin(np.radians(t_out_b))[..., None]
        field = self.field_sum(k, u_in, u_out)
        gains = element_gain_vec(self.element, t_in_b) * element_gain_vec(
            self.element, t_out_b
        )
        return field * self.line_gain * gains

    def monostatic_batch(
        self,
        frequency_hz: ArrayLike,
        thetas_deg: ArrayLike,
        sound_speed: MPS = 1500.0,
    ) -> np.ndarray:
        """Monostatic (backscatter) response at each incidence angle.

        Runs on the retrodirective-collapse path
        (:meth:`monostatic_field_sum`); equals
        ``response_batch(f, theta, theta)`` at every point.
        """
        if self.num_axes != 1:
            raise ValueError("monostatic_batch needs a linear (D=1) engine")
        if sound_speed <= 0:
            raise ValueError("frequency and sound speed must be positive")
        freq = np.asarray(frequency_hz, dtype=np.float64)
        if (freq <= 0).any():
            raise ValueError("frequency and sound speed must be positive")
        thetas = np.asarray(thetas_deg, dtype=np.float64)
        freq_b, t_b = np.broadcast_arrays(freq, thetas)
        k = 2.0 * np.pi * freq_b / sound_speed
        u = np.sin(np.radians(t_b))[..., None]
        field = self.monostatic_field_sum(k, u)
        g = element_gain_vec(self.element, t_b)
        return field * self.line_gain * g * g

    def monostatic_pattern_db(
        self,
        frequency_hz: HZ,
        thetas_deg: ArrayLike,
        sound_speed: MPS = 1500.0,
    ) -> np.ndarray:
        """Monostatic field gain (dB re one ideal element), batched."""
        mag = np.abs(self.monostatic_batch(frequency_hz, thetas_deg, sound_speed))
        return 20.0 * np.log10(np.maximum(mag, 1e-15))

    # -- planar sweeps --------------------------------------------------------

    def planar_response_batch(
        self,
        frequency_hz: ArrayLike,
        az_in_deg: ArrayLike,
        el_in_deg: ArrayLike,
        az_out_deg: ArrayLike,
        el_out_deg: ArrayLike,
        sound_speed: MPS = 1500.0,
    ) -> np.ndarray:
        """Bistatic response of a planar engine over a broadcast batch."""
        if self.num_axes != 2:
            raise ValueError("planar_response_batch needs a planar (D=2) engine")
        if sound_speed <= 0:
            raise ValueError("frequency and sound speed must be positive")
        freq = np.asarray(frequency_hz, dtype=np.float64)
        if (freq <= 0).any():
            raise ValueError("frequency and sound speed must be positive")
        batch = np.broadcast_arrays(
            freq,
            np.asarray(az_in_deg, dtype=np.float64),
            np.asarray(el_in_deg, dtype=np.float64),
            np.asarray(az_out_deg, dtype=np.float64),
            np.asarray(el_out_deg, dtype=np.float64),
        )
        freq_b, az_in_b, el_in_b, az_out_b, el_out_b = batch
        k = 2.0 * np.pi * freq_b / sound_speed
        u_in = direction_cosine_grid(az_in_b, el_in_b)
        u_out = direction_cosine_grid(az_out_b, el_out_b)
        field = self.field_sum(k, u_in, u_out)
        gains = element_gain_vec(
            self.element, off_broadside_deg(az_in_b, el_in_b)
        ) * element_gain_vec(self.element, off_broadside_deg(az_out_b, el_out_b))
        return field * self.line_gain * gains

    def planar_monostatic_grid_db(
        self,
        frequency_hz: HZ,
        azimuths_deg: ArrayLike,
        elevations_deg: ArrayLike,
        sound_speed: MPS = 1500.0,
    ) -> np.ndarray:
        """Monostatic gain (dB) over an ``(az, el)`` outer-product grid.

        Runs on the retrodirective-collapse path; equals the
        ``planar_response_batch`` diagonal at every grid point.
        """
        if self.num_axes != 2:
            raise ValueError("planar_monostatic_grid_db needs a planar engine")
        k = wavenumber(frequency_hz, sound_speed)
        az = np.asarray(azimuths_deg, dtype=np.float64)[:, None]
        el = np.asarray(elevations_deg, dtype=np.float64)[None, :]
        az_b, el_b = np.broadcast_arrays(az, el)
        u = direction_cosine_grid(az_b, el_b)
        field = self.monostatic_field_sum(k, u)
        g = element_gain_vec(self.element, off_broadside_deg(az_b, el_b))
        mag = np.abs(field) * self.line_gain * g * g
        return 20.0 * np.log10(np.maximum(mag, 1e-15))

    # -- dense uniform-grid (chirp-Z) path ------------------------------------

    def bistatic_cut_czt(
        self,
        frequency_hz: HZ,
        theta_in_deg: DEG,
        u_start: float,
        u_step: float,
        num_points: int,
        sound_speed: MPS = 1500.0,
    ) -> np.ndarray:
        """Bistatic cut over a dense uniform ``u = sin(theta)`` grid.

        Requires a linear engine whose re-radiate positions lie on a
        uniform grid (any uniform linear array, mirror-paired or RIS).
        Evaluates ``M`` observation points in ``O((N + M) log(N + M))``
        via Bluestein's chirp-Z transform instead of the ``O(N * M)``
        dense kernel — the classical FFT array-factor trick for grids
        too fine for the broadcast path to hold in memory.

        Element-pattern and line gains are applied, matching
        :meth:`response_batch` at every grid point to ~1e-9.
        """
        if self.num_axes != 1:
            raise ValueError("bistatic_cut_czt needs a linear (D=1) engine")
        if num_points < 1:
            raise ValueError("need at least one observation point")
        k = wavenumber(frequency_hz, sound_speed)
        tx = self.tx_positions_m[:, 0]
        if len(tx) > 1:
            steps = np.diff(np.sort(tx))
            pitch = steps.max()
            if pitch <= 0 or not np.allclose(
                np.diff(np.sort(tx)), pitch, atol=1e-9 * max(pitch, 1.0)
            ):
                raise ValueError(
                    "chirp-Z path needs uniformly spaced re-radiate positions"
                )
        u_in = math.sin(math.radians(theta_in_deg))
        # Fold the (fixed) incident-leg phase into per-term amplitudes.
        a = self.weights * np.exp(1j * k * self.rx_positions_m[:, 0] * u_in)
        # S_m = sum_n a_n exp(j k x_n (u_start + m u_step)); write
        # x_n = x0 + n*d so the m-dependence is a chirp-Z transform.
        x0 = float(tx.min())
        d = float((tx.max() - x0) / (len(tx) - 1)) if len(tx) > 1 else 0.0
        if d > 0:
            idx = np.rint((tx - x0) / d).astype(np.intp)
        else:
            idx = np.zeros(len(tx), dtype=np.intp)
        coeff = np.zeros(int(idx.max()) + 1, dtype=np.complex128)
        np.add.at(coeff, idx, a)
        # The common x0 offset is applied per observation point below.
        field = _chirp_z(coeff, k * d * u_step, k * d * u_start, num_points)
        u_grid = u_start + u_step * np.arange(num_points)
        field = field * np.exp(1j * k * x0 * u_grid)
        theta_out = np.degrees(np.arcsin(np.clip(u_grid, -1.0, 1.0)))
        gains = self.element.element_gain(theta_in_deg) * element_gain_vec(
            self.element, theta_out
        )
        probe_finite("vanatta.fastfield.czt", field, stage="fastfield")
        return field * self.line_gain * gains


def _chirp_z(
    coeff: np.ndarray, phi: float, psi: float, num_points: int
) -> np.ndarray:
    """``S_m = sum_n coeff_n e^{j n (psi + m phi)}`` via Bluestein.

    Decomposes ``n*m = (n^2 + m^2 - (m - n)^2) / 2`` so the sum becomes
    a linear convolution of chirp-premultiplied coefficients, computed
    with zero-padded FFTs.
    """
    n = len(coeff)
    b = coeff * np.exp(1j * psi * np.arange(n))
    half = phi / 2.0
    n_sq = np.arange(n, dtype=np.float64) ** 2
    m_sq = np.arange(num_points, dtype=np.float64) ** 2
    u = b * np.exp(1j * half * n_sq)
    lags = np.arange(-(n - 1), num_points, dtype=np.float64)
    v = np.exp(-1j * half * lags**2)
    size = int(2 ** math.ceil(math.log2(max(len(v) + n - 1, 1))))
    conv = np.fft.ifft(np.fft.fft(u, size) * np.fft.fft(v, size))
    picked = conv[n - 1 : n - 1 + num_points]
    return picked * np.exp(1j * half * m_sq)


# -- ensemble (Monte-Carlo) kernel -------------------------------------------


def ensemble_monostatic_db(
    arrays: Sequence[VanAttaArray],
    frequency_hz: HZ,
    theta_deg: DEG,
    sound_speed: MPS = 1500.0,
) -> np.ndarray:
    """Monostatic gain (dB) of many build instances in one kernel call.

    The tolerance Monte-Carlo evaluates hundreds of perturbed copies of
    one design at a single angle; stacking their geometries into an
    ``(I, N)`` tensor turns the per-instance response loop into one
    broadcasted evaluation. All instances must share the pair wiring
    and element model (they are perturbations of one design).
    """
    if not arrays:
        raise ValueError("need at least one array instance")
    base = arrays[0]
    k = wavenumber(frequency_hz, sound_speed)
    u = math.sin(math.radians(theta_deg))
    perm = pair_permutation(base.num_elements, base.pairs)
    positions = np.stack([np.asarray(a.positions_m, dtype=np.float64) for a in arrays])
    weights = np.stack(
        [
            np.exp(
                1j
                * element_phases_rad(a.num_elements, a.pairs, a.pair_phases())
            )
            for a in arrays
        ]
    )
    with span("fastfield"):
        phase = k * u * (positions + positions[:, perm])
        field = (np.exp(1j * phase) * weights).sum(axis=-1)
    BATCHES_COUNTER.inc()
    EVALS_COUNTER.inc(len(arrays))
    BATCH_SIZE_GAUGE.set(float(len(arrays)))
    probe_finite("vanatta.fastfield.ensemble", field, stage="fastfield")
    g = base.element.element_gain(theta_deg)
    mag = np.abs(field) * base.line_gain() * g * g
    return 20.0 * np.log10(np.maximum(mag, 1e-15))


# -- per-pair reference loops (parity + benchmark baselines) -----------------


def reference_response(
    array: VanAttaArray,
    frequency_hz: HZ,
    theta_in_deg: DEG,
    theta_out_deg: DEG,
    sound_speed: MPS = 1500.0,
) -> complex:
    """The original per-pair scalar loop (parity/benchmark baseline).

    This is the seed implementation of
    :func:`repro.vanatta.retrodirective.response`, kept verbatim so the
    batched kernel has an independent reference to be checked (and
    benchmarked) against.
    """
    k = wavenumber(frequency_hz, sound_speed)
    u_in = math.sin(math.radians(theta_in_deg))
    u_out = math.sin(math.radians(theta_out_deg))
    x = array.positions_m
    phases = array.pair_phases()
    line = array.line_gain()
    g_in = array.element.element_gain(theta_in_deg)
    g_out = array.element.element_gain(theta_out_deg)

    total = 0.0 + 0.0j
    for (a, b), extra in zip(array.pairs, phases):
        rot = complex(math.cos(extra), math.sin(extra))
        if a == b:
            total += rot * np.exp(1j * k * (x[a] * u_in + x[a] * u_out))
        else:
            total += rot * np.exp(1j * k * (x[a] * u_in + x[b] * u_out))
            total += rot * np.exp(1j * k * (x[b] * u_in + x[a] * u_out))
    return complex(total * line * g_in * g_out)


def reference_planar_response(
    array: "PlanarVanAttaArray",
    frequency_hz: HZ,
    az_in_deg: DEG,
    el_in_deg: DEG,
    az_out_deg: DEG,
    el_out_deg: DEG,
    sound_speed: MPS = 1500.0,
) -> complex:
    """The original per-pair planar loop (parity/benchmark baseline)."""
    if frequency_hz <= 0 or sound_speed <= 0:
        raise ValueError("frequency and sound speed must be positive")
    k = 2.0 * math.pi * frequency_hz / sound_speed
    d_in = _scalar_direction_cosines(az_in_deg, el_in_deg)
    d_out = _scalar_direction_cosines(az_out_deg, el_out_deg)
    x = array.positions_m
    phases = pair_phase_errors(len(array.pairs), array.pairing)
    line = array.line_gain()
    g_in = array.element.element_gain(_scalar_off_angle(az_in_deg, el_in_deg))
    g_out = array.element.element_gain(_scalar_off_angle(az_out_deg, el_out_deg))

    total = 0.0 + 0.0j
    for (a, b), extra in zip(array.pairs, phases):
        rot = complex(math.cos(extra), math.sin(extra))
        if a == b:
            total += rot * np.exp(1j * k * (x[a] @ d_in + x[a] @ d_out))
        else:
            total += rot * np.exp(1j * k * (x[a] @ d_in + x[b] @ d_out))
            total += rot * np.exp(1j * k * (x[b] @ d_in + x[a] @ d_out))
    return complex(total * line * g_in * g_out)


def _scalar_direction_cosines(azimuth_deg: DEG, elevation_deg: DEG) -> np.ndarray:
    az = math.radians(azimuth_deg)
    el = math.radians(elevation_deg)
    return np.array([math.sin(az) * math.cos(el), math.sin(el)])


def _scalar_off_angle(azimuth_deg: DEG, elevation_deg: DEG) -> DEG:
    c = math.cos(math.radians(azimuth_deg)) * math.cos(math.radians(elevation_deg))
    return math.degrees(math.acos(max(-1.0, min(1.0, c))))
