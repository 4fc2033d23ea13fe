"""Tests for the retrodirective array response — the core physics claim.

The invariants here *are* the paper's Section-3 story: an N-element Van
Atta reflects coherently back toward any source direction (gain ~ N in
field), while a conventional reflector of the same aperture only does so
at broadside.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.conventional_array import conventional_monostatic_gain_db
from repro.baselines.mirror import ideal_monostatic_gain_db
from repro.piezo.transducer import Transducer
from repro.vanatta.array import VanAttaArray
from repro.vanatta.polarity import PairingScheme
from repro.vanatta.retrodirective import (
    monostatic_gain,
    monostatic_gain_db,
    monostatic_pattern_db,
    pattern,
    response,
)

F = 18_500.0
C = 1500.0


def ideal_array(n=4):
    """Array with lossless lines and omni elements (pure geometry)."""
    base = VanAttaArray.uniform(n, frequency_hz=F, sound_speed=C)
    return VanAttaArray(
        positions_m=base.positions_m,
        pairs=base.pairs,
        element=Transducer(elevation_rolloff_exponent=0.0),
        pairing=PairingScheme.CROSS_POLARITY,
        line_loss_db=0.0,
    )


class TestRetrodirectivity:
    def test_broadside_gain_is_n(self):
        for n in (1, 2, 4, 8):
            arr = ideal_array(n)
            assert abs(monostatic_gain(arr, F, 0.0, C)) == pytest.approx(n, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    @given(st.floats(min_value=-75.0, max_value=75.0))
    @settings(max_examples=40)
    def test_monostatic_gain_flat_across_angle(self, n, theta):
        """THE core property: retrodirective gain is angle-independent,
        and N in field for every element count."""
        arr = ideal_array(n)
        assert abs(monostatic_gain(arr, F, theta, C)) == pytest.approx(n, rel=1e-9)

    def test_odd_array_also_retrodirective(self):
        arr = ideal_array(5)
        for theta in (0.0, 20.0, 45.0):
            assert abs(monostatic_gain(arr, F, theta, C)) == pytest.approx(
                5.0, rel=1e-9
            )

    def test_db_form(self):
        arr = ideal_array(4)
        assert monostatic_gain_db(arr, F, 30.0, C) == pytest.approx(
            20 * math.log10(4.0), abs=1e-6
        )

    def test_matches_ideal_mirror_bound(self):
        arr = ideal_array(8)
        assert monostatic_gain_db(arr, F, 10.0, C) <= ideal_monostatic_gain_db(8) + 1e-9

    def test_element_rolloff_drops_wide_angles(self):
        arr = VanAttaArray.uniform(4, frequency_hz=F, sound_speed=C)  # cos^0.5
        g0 = monostatic_gain_db(arr, F, 0.0, C)
        g60 = monostatic_gain_db(arr, F, 60.0, C)
        assert 2.0 < g0 - g60 < 10.0

    def test_line_loss_discounts_gain(self):
        lossless = ideal_array(4)
        lossy = VanAttaArray(
            positions_m=lossless.positions_m,
            pairs=lossless.pairs,
            element=Transducer(elevation_rolloff_exponent=0.0),
            line_loss_db=2.0,
        )
        delta = monostatic_gain_db(lossless, F, 15.0, C) - monostatic_gain_db(
            lossy, F, 15.0, C
        )
        assert delta == pytest.approx(2.0, abs=1e-9)


class TestPairingAblation:
    def test_direct_pairing_loses_gain_at_broadside(self):
        good = ideal_array(4)
        bad = VanAttaArray(
            positions_m=good.positions_m,
            pairs=good.pairs,
            element=Transducer(elevation_rolloff_exponent=0.0),
            pairing=PairingScheme.DIRECT,
            line_loss_db=0.0,
        )
        # Two pairs in phase, two flipped: complete cancellation.
        assert abs(monostatic_gain(bad, F, 0.0, C)) == pytest.approx(0.0, abs=1e-9)
        assert abs(monostatic_gain(good, F, 0.0, C)) == pytest.approx(4.0)

    def test_random_pairing_below_cross_polarity(self):
        good = ideal_array(8)
        rnd = VanAttaArray(
            positions_m=good.positions_m,
            pairs=good.pairs,
            element=Transducer(elevation_rolloff_exponent=0.0),
            pairing=PairingScheme.RANDOM,
            line_loss_db=0.0,
        )
        assert abs(monostatic_gain(rnd, F, 0.0, C)) < abs(
            monostatic_gain(good, F, 0.0, C)
        )


class TestBistaticPattern:
    def test_peak_points_back_at_source(self):
        arr = ideal_array(4)
        thetas = np.linspace(-90, 90, 361)
        for theta_in in (0.0, 25.0, -40.0):
            p = np.abs(pattern(arr, F, theta_in, thetas, C))
            peak_angle = thetas[int(np.argmax(p))]
            assert peak_angle == pytest.approx(theta_in, abs=2.0)

    def test_reciprocity_in_out_swap(self):
        arr = ideal_array(4)
        a = response(arr, F, 17.0, -33.0, C)
        b = response(arr, F, -33.0, 17.0, C)
        assert a == pytest.approx(b)


class TestConventionalComparison:
    def test_conventional_matches_van_atta_at_broadside(self):
        arr = ideal_array(4)
        conv = conventional_monostatic_gain_db(arr.positions_m, F, 0.0, C)
        va = monostatic_gain_db(arr, F, 0.0, C)
        assert conv == pytest.approx(va, abs=1e-9)

    def test_conventional_collapses_off_broadside(self):
        """The E1 contrast: conventional loses >10 dB by 30 degrees."""
        arr = ideal_array(4)
        va_30 = monostatic_gain_db(arr, F, 30.0, C)
        conv_30 = conventional_monostatic_gain_db(arr.positions_m, F, 30.0, C)
        assert va_30 - conv_30 > 10.0

    def test_pattern_sweep_shapes(self):
        arr = ideal_array(4)
        thetas = np.linspace(-60, 60, 41)
        va = monostatic_pattern_db(arr, F, thetas, C)
        conv = np.array(
            [conventional_monostatic_gain_db(arr.positions_m, F, t, C) for t in thetas]
        )
        # Van Atta stays within a few dB of its peak across the sweep;
        # conventional swings by tens of dB.
        assert va.max() - va.min() < 8.0
        assert conv.max() - conv.min() > 25.0
