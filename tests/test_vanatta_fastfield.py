"""Parity, speed and behaviour tests for the batched array-factor engine.

The contract under test: the batched kernel (and every path layered on
it — monostatic collapse, chirp-Z cut, ensemble stack, RIS surfaces)
agrees with the per-pair reference loops below to <= 1e-9 complex
error, beats them by at least 50x on a 1024-element monostatic sweep,
and the scalar entry points delegate to it at batch size 1.
"""

import math
import time

import numpy as np
import pytest

from repro.piezo.transducer import Transducer
from repro.vanatta.array import VanAttaArray
from repro.vanatta.fastfield import (
    ArrayFactorEngine,
    FASTFIELD_ENGINE_VERSION,
    element_phases_rad,
    ensemble_monostatic_db,
    pair_permutation,
    wavenumber,
)
from repro.vanatta.planar import PlanarVanAttaArray
from repro.vanatta.polarity import PairingScheme, pair_phase_errors
from repro.vanatta.retrodirective import monostatic_pattern_db, pattern, response
from repro.vanatta.ris import (
    PhaseSurface,
    quantization_loss_db,
    quantize_phases_rad,
    reader_steering_matrix,
    retro_phases_rad,
    spatial_dof,
    steering_phases_rad,
    sum_capacity_bits,
)
from repro.vanatta.tolerance import monte_carlo_gain

F = 18_500.0
C = 1500.0
TOL = 1e-9

SCHEMES = [
    PairingScheme.CROSS_POLARITY,
    PairingScheme.DIRECT,
    PairingScheme.RANDOM,
]


def linear_array(n=8, scheme=PairingScheme.CROSS_POLARITY):
    return VanAttaArray.uniform(
        n, frequency_hz=F, sound_speed=C, pairing=scheme
    )


# -- per-pair reference loops (the oracles the kernel is held to) ------------


def reference_response(array, frequency_hz, theta_in_deg, theta_out_deg,
                       sound_speed=1500.0):
    """The original per-pair scalar loop of ``retrodirective.response``."""
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


def _direction_cosines(azimuth_deg, elevation_deg):
    az = math.radians(azimuth_deg)
    el = math.radians(elevation_deg)
    return np.array([math.sin(az) * math.cos(el), math.sin(el)])


def _off_angle(azimuth_deg, elevation_deg):
    c = math.cos(math.radians(azimuth_deg)) * math.cos(math.radians(elevation_deg))
    return math.degrees(math.acos(max(-1.0, min(1.0, c))))


def reference_planar_response(array, frequency_hz, az_in_deg, el_in_deg,
                              az_out_deg, el_out_deg, sound_speed=1500.0):
    """The original per-pair loop of ``planar.planar_response``."""
    k = 2.0 * math.pi * frequency_hz / sound_speed
    d_in = _direction_cosines(az_in_deg, el_in_deg)
    d_out = _direction_cosines(az_out_deg, el_out_deg)
    x = array.positions_m
    phases = pair_phase_errors(len(array.pairs), array.pairing)
    line = array.line_gain()
    g_in = array.element.element_gain(_off_angle(az_in_deg, el_in_deg))
    g_out = array.element.element_gain(_off_angle(az_out_deg, el_out_deg))

    total = 0.0 + 0.0j
    for (a, b), extra in zip(array.pairs, phases):
        rot = complex(math.cos(extra), math.sin(extra))
        if a == b:
            total += rot * np.exp(1j * k * (x[a] @ d_in + x[a] @ d_out))
        else:
            total += rot * np.exp(1j * k * (x[a] @ d_in + x[b] @ d_out))
            total += rot * np.exp(1j * k * (x[b] @ d_in + x[a] @ d_out))
    return complex(total * line * g_in * g_out)


class TestPrecompute:
    def test_pair_permutation_is_involution(self):
        arr = linear_array(9)
        perm = pair_permutation(arr.num_elements, arr.pairs)
        np.testing.assert_array_equal(perm[perm], np.arange(9))

    def test_pair_permutation_rejects_gaps(self):
        with pytest.raises(ValueError):
            pair_permutation(4, [(0, 3)])

    def test_element_phases_spread_to_both_members(self):
        phases = element_phases_rad(4, [(0, 3), (1, 2)], np.array([0.5, -0.5]))
        np.testing.assert_allclose(phases, [0.5, -0.5, -0.5, 0.5])

    def test_wavenumber_validates(self):
        assert wavenumber(F, C) == pytest.approx(2 * math.pi * F / C)
        with pytest.raises(ValueError):
            wavenumber(-1.0, C)
        with pytest.raises(ValueError):
            wavenumber(F, 0.0)

    def test_engine_version_stamped(self):
        assert FASTFIELD_ENGINE_VERSION >= 1


class TestLinearParity:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_batched_matches_reference_loop(self, scheme, n):
        arr = linear_array(n, scheme)
        engine = ArrayFactorEngine.from_linear(arr)
        rng = np.random.default_rng(20230)
        t_in = rng.uniform(-85.0, 85.0, size=40)
        t_out = rng.uniform(-85.0, 85.0, size=40)
        batched = engine.response_batch(F, t_in, t_out, C)
        looped = np.array(
            [
                reference_response(arr, F, float(a), float(b), C)
                for a, b in zip(t_in, t_out)
            ]
        )
        assert np.abs(batched - looped).max() <= TOL

    def test_frequency_batches(self):
        arr = linear_array(6)
        engine = ArrayFactorEngine.from_linear(arr)
        freqs = np.linspace(0.8 * F, 1.2 * F, 7)
        batched = engine.response_batch(freqs, 17.0, -4.0, C)
        looped = np.array(
            [reference_response(arr, float(f), 17.0, -4.0, C) for f in freqs]
        )
        assert np.abs(batched - looped).max() <= TOL

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_monostatic_collapse_matches_dense(self, scheme):
        engine = ArrayFactorEngine.from_linear(linear_array(16, scheme))
        thetas = np.linspace(-88.0, 88.0, 91)
        collapsed = engine.monostatic_batch(F, thetas, C)
        dense = engine.response_batch(F, thetas, thetas, C)
        assert np.abs(collapsed - dense).max() <= TOL

    def test_sub_batch_invariance(self):
        engine = ArrayFactorEngine.from_linear(linear_array(8))
        rng = np.random.default_rng(7)
        t_in = rng.uniform(-80.0, 80.0, size=24)
        t_out = rng.uniform(-80.0, 80.0, size=24)
        whole = engine.response_batch(F, t_in, t_out, C)
        parts = np.concatenate(
            [
                engine.response_batch(F, t_in[i : i + 5], t_out[i : i + 5], C)
                for i in range(0, 24, 5)
            ]
        )
        np.testing.assert_array_equal(whole, parts)

    def test_broadcast_grid_shape(self):
        engine = ArrayFactorEngine.from_linear(linear_array(4))
        freqs = np.linspace(0.9 * F, 1.1 * F, 3)[:, None]
        thetas = np.linspace(-30.0, 30.0, 5)[None, :]
        out = engine.response_batch(freqs, thetas, thetas)
        assert out.shape == (3, 5)

    def test_validation(self):
        engine = ArrayFactorEngine.from_linear(linear_array(4))
        with pytest.raises(ValueError):
            engine.response_batch(-F, 0.0, 0.0)
        with pytest.raises(ValueError):
            engine.response_batch(F, 0.0, 0.0, sound_speed=-C)
        with pytest.raises(ValueError):
            ArrayFactorEngine(
                rx_positions_m=np.zeros((3, 1)),
                tx_positions_m=np.zeros((2, 1)),
                weights=np.ones(3, dtype=complex),
                line_gain=1.0,
                element=Transducer(),
            )


class TestSpeedFloor:
    """The batched kernel must stay far ahead of the loop it replaced."""

    ELEMENTS = 1024
    ANGLES = 181
    MIN_SPEEDUP = 50.0

    def test_monostatic_batch_beats_reference_loop(self):
        arr = VanAttaArray.uniform(self.ELEMENTS, frequency_hz=F, sound_speed=C)
        thetas = np.linspace(-60.0, 60.0, self.ANGLES)
        engine = ArrayFactorEngine.from_linear(arr)
        engine.monostatic_batch(F, thetas, C)  # warm

        batched_s = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            batched = engine.monostatic_batch(F, thetas, C)
            batched_s = min(batched_s, time.perf_counter() - t0)

        t0 = time.perf_counter()
        looped = np.array(
            [reference_response(arr, F, float(t), float(t), C) for t in thetas]
        )
        loop_s = time.perf_counter() - t0

        assert np.abs(batched - looped).max() <= TOL * self.ELEMENTS
        speedup = loop_s / batched_s
        assert speedup >= self.MIN_SPEEDUP, (
            f"batched {batched_s * 1e3:.3f} ms vs loop {loop_s * 1e3:.1f} ms: "
            f"{speedup:.0f}x < {self.MIN_SPEEDUP:.0f}x floor"
        )


class TestScalarDelegation:
    def test_response_equals_reference(self):
        arr = linear_array(8)
        for t_in, t_out in [(0.0, 0.0), (25.0, -40.0), (-60.0, 10.0)]:
            assert abs(
                response(arr, F, t_in, t_out, C)
                - reference_response(arr, F, t_in, t_out, C)
            ) <= TOL

    def test_pattern_sweep_equals_reference(self):
        arr = linear_array(6)
        thetas = np.linspace(-90.0, 90.0, 37)
        swept = pattern(arr, F, 20.0, thetas, C)
        looped = np.array(
            [reference_response(arr, F, 20.0, float(t), C) for t in thetas]
        )
        assert np.abs(np.asarray(swept) - looped).max() <= TOL

    def test_monostatic_pattern_db_flat_for_ideal_array(self):
        base = linear_array(4)
        arr = VanAttaArray(
            positions_m=base.positions_m,
            pairs=base.pairs,
            element=Transducer(elevation_rolloff_exponent=0.0),
            line_loss_db=0.0,
        )
        db = monostatic_pattern_db(arr, F, np.linspace(-80, 80, 33), C)
        np.testing.assert_allclose(db, 20.0 * math.log10(4), atol=1e-9)


class TestPlanarParity:
    def planar(self, nu=3, nw=2):
        return PlanarVanAttaArray.uniform(
            nu, nw, frequency_hz=F, sound_speed=C
        )

    def test_batched_matches_reference_loop(self):
        arr = self.planar()
        engine = ArrayFactorEngine.from_planar(arr)
        rng = np.random.default_rng(11)
        az_in, el_in, az_out, el_out = rng.uniform(-70.0, 70.0, size=(4, 20))
        batched = engine.planar_response_batch(
            F, az_in, el_in, az_out, el_out, C
        )
        looped = np.array(
            [
                reference_planar_response(
                    arr, F, float(a), float(b), float(c), float(d), C
                )
                for a, b, c, d in zip(az_in, el_in, az_out, el_out)
            ]
        )
        assert np.abs(batched - looped).max() <= TOL

    def test_monostatic_grid_matches_dense_diagonal(self):
        engine = ArrayFactorEngine.from_planar(self.planar(4, 4))
        az = np.linspace(-50.0, 50.0, 9)
        el = np.linspace(-30.0, 30.0, 5)
        grid = engine.planar_monostatic_grid_db(F, az, el, C)
        dense = 20.0 * np.log10(
            np.maximum(
                np.abs(
                    engine.planar_response_batch(
                        F, az[:, None], el[None, :],
                        az[:, None], el[None, :], C,
                    )
                ),
                1e-15,
            )
        )
        assert grid.shape == (9, 5)
        np.testing.assert_allclose(grid, dense, atol=1e-9)


class TestChirpZ:
    def test_czt_matches_dense_grid(self):
        engine = ArrayFactorEngine.from_linear(linear_array(16))
        u = np.linspace(-0.9, 0.9, 181)
        czt = engine.bistatic_cut_czt(F, 12.0, -0.9, u[1] - u[0], 181, C)
        thetas = np.degrees(np.arcsin(u))
        dense = engine.response_batch(F, 12.0, thetas, C)
        assert np.abs(czt - dense).max() <= TOL

    def test_czt_rejects_nonuniform_grid(self):
        positions = np.array([0.0, 0.04, 0.1])
        engine = ArrayFactorEngine.from_phase_surface(
            positions, np.zeros(3)
        )
        # A 1-D phase surface keeps D=1 but the spacing is irregular.
        with pytest.raises(ValueError):
            engine.bistatic_cut_czt(F, 0.0, -0.5, 0.01, 101, C)


class TestEnsemble:
    def test_ensemble_matches_per_instance_loop(self):
        rng = np.random.default_rng(3)
        base = linear_array(6)
        instances = []
        for _ in range(8):
            jitter = rng.normal(0.0, 1e-3, size=base.num_elements)
            instances.append(
                VanAttaArray(
                    positions_m=tuple(
                        np.asarray(base.positions_m) + jitter
                    ),
                    pairs=base.pairs,
                    element=base.element,
                    line_loss_db=base.line_loss_db,
                )
            )
        gains = ensemble_monostatic_db(instances, F, 15.0, C)
        singles = np.array(
            [
                20.0
                * math.log10(
                    max(abs(reference_response(a, F, 15.0, 15.0, C)), 1e-15)
                )
                for a in instances
            ]
        )
        np.testing.assert_allclose(gains, singles, atol=1e-9)

    def test_tolerance_monte_carlo_still_deterministic(self):
        arr = linear_array(4)
        a = monte_carlo_gain(
            arr, F, position_sigma_m=1e-3, instances=32, seed=9
        )
        b = monte_carlo_gain(
            arr, F, position_sigma_m=1e-3, instances=32, seed=9
        )
        assert (a.mean_gain_db, a.std_gain_db, a.worst_gain_db) == (
            b.mean_gain_db, b.std_gain_db, b.worst_gain_db
        )


class TestPhaseSurface:
    def omni_surface(self, num_u=4, num_w=4, **kwargs):
        return PhaseSurface.uniform(
            num_u=num_u,
            num_w=num_w,
            frequency_hz=F,
            element=Transducer(elevation_rolloff_exponent=0.0),
            **kwargs,
        )

    def test_retro_programmed_surface_hits_ideal_gain(self):
        surface = self.omni_surface()
        lossless = PhaseSurface(
            positions_m=surface.positions_m,
            phases_rad=surface.phases_rad,
            element=surface.element,
            reflection_loss_db=0.0,
        ).retro(F, 20.0, -10.0)
        gain = float(lossless.monostatic_gain_db(F, 20.0, -10.0))
        assert gain == pytest.approx(20.0 * math.log10(16), abs=1e-9)

    def test_retro_only_holds_at_programmed_angle(self):
        # Note -30 deg would be a round-trip grating lobe of the lambda/2
        # grid (the monostatic sweep sees doubled spatial frequency), so
        # probe broadside, where the codebook is maximally incoherent.
        surface = self.omni_surface().retro(F, 30.0, 0.0)
        at = float(surface.monostatic_gain_db(F, 30.0, 0.0))
        away = float(surface.monostatic_gain_db(F, 0.0, 0.0))
        assert at > away + 10.0

    def test_steering_reciprocity(self):
        phases = steering_phases_rad(
            np.array([[0.0, 0.0], [0.04, 0.0]]), F, 10.0, 5.0, -20.0, 0.0
        )
        swapped = steering_phases_rad(
            np.array([[0.0, 0.0], [0.04, 0.0]]), F, -20.0, 0.0, 10.0, 5.0
        )
        np.testing.assert_allclose(phases, swapped, atol=1e-12)
        retro = retro_phases_rad(
            np.array([[0.0, 0.0], [0.04, 0.0]]), F, 10.0, 5.0
        )
        assert retro.shape == (2,)

    def test_quantized_surface_loses_at_most_theory_bound(self):
        continuous = PhaseSurface(
            positions_m=self.omni_surface(8, 8).positions_m,
            phases_rad=np.zeros(64),
            element=Transducer(elevation_rolloff_exponent=0.0),
            reflection_loss_db=0.0,
        )
        exact = continuous.retro(F, 35.0, 10.0)
        coarse = PhaseSurface(
            positions_m=continuous.positions_m,
            phases_rad=continuous.phases_rad,
            element=continuous.element,
            reflection_loss_db=0.0,
            phase_bits=2,
        ).retro(F, 35.0, 10.0)
        drop = float(exact.monostatic_gain_db(F, 35.0, 10.0)) - float(
            coarse.monostatic_gain_db(F, 35.0, 10.0)
        )
        assert 0.0 <= drop <= quantization_loss_db(2) + 0.5

    def test_quantize_phases_snaps_to_levels(self):
        q = quantize_phases_rad(np.array([0.1, 1.0, 3.0]), bits=2)
        step = math.pi / 2
        np.testing.assert_allclose(q / step, np.round(q / step), atol=1e-12)
        with pytest.raises(ValueError):
            quantize_phases_rad(np.zeros(3), bits=0)

    def test_quantization_loss_decreases_with_bits(self):
        losses = [quantization_loss_db(b) for b in (1, 2, 3, 4)]
        assert all(b < a for a, b in zip(losses, losses[1:]))
        assert losses[0] == pytest.approx(3.92, abs=0.01)


class TestMultiReader:
    READERS = [(-35.0, -10.0), (-10.0, 5.0), (15.0, -5.0), (40.0, 10.0)]

    def steering(self, num_u, num_w):
        surface = PhaseSurface.uniform(
            num_u=num_u, num_w=num_w, frequency_hz=F
        )
        return reader_steering_matrix(surface.positions_m, F, self.READERS)

    def test_rows_are_unit_norm(self):
        s = self.steering(4, 4)
        np.testing.assert_allclose(
            np.linalg.norm(s, axis=1), np.ones(4), atol=1e-12
        )

    def test_dof_grows_with_aperture_and_caps_at_readers(self):
        dofs = [spatial_dof(self.steering(n, n)) for n in (1, 4, 16)]
        assert all(b >= a for a, b in zip(dofs, dofs[1:]))
        assert dofs[0] == 1
        assert dofs[-1] == len(self.READERS)

    def test_sum_capacity_monotone_in_snr(self):
        s = self.steering(8, 8)
        caps = [sum_capacity_bits(s, snr_db=x) for x in (0.0, 10.0, 20.0)]
        assert all(b > a for a, b in zip(caps, caps[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            reader_steering_matrix(np.zeros((4, 2)), F, [])
        with pytest.raises(ValueError):
            spatial_dof(self.steering(2, 2), rel_threshold_db=0.0)
