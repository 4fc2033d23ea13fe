"""Tests for PIE downlink encoding and BER utilities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.ber import (
    ber,
    ber_ook_coherent,
    ber_ook_noncoherent,
    count_bit_errors,
    q_function,
    q_inverse,
    required_snr_db,
)
from repro.phy.downlink import PIEConfig, pie_decode, pie_encode

bit_lists = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=40)


class TestPIE:
    @given(bit_lists)
    @settings(max_examples=40)
    def test_roundtrip(self, bits):
        fs = 32_000.0
        env = pie_encode(bits, fs)
        decoded = pie_decode(env, fs)
        np.testing.assert_array_equal(decoded, bits)

    def test_one_longer_than_zero(self):
        fs = 32_000.0
        dur0 = len(pie_encode([0], fs))
        dur1 = len(pie_encode([1], fs))
        assert dur1 > dur0

    def test_mostly_on_for_harvesting(self):
        # PIE keeps the carrier ON most of the time so the node can
        # harvest through its own downlink.
        fs = 32_000.0
        env = pie_encode([1, 0, 1, 1, 0, 1], fs)
        assert env.mean() > 0.6

    def test_decode_is_scale_invariant(self):
        fs = 32_000.0
        env = pie_encode([1, 0, 0, 1], fs)
        np.testing.assert_array_equal(pie_decode(env * 123.0, fs), [1, 0, 0, 1])

    def test_decode_empty(self):
        assert len(pie_decode(np.zeros(0), 32_000.0)) == 0
        assert len(pie_decode(np.zeros(100), 32_000.0)) == 0

    def test_bitrate_estimate(self):
        cfg = PIEConfig(tari_s=2e-3, one_ratio=2.0, low_s=1e-3)
        # bit0 = 3 ms, bit1 = 5 ms -> mean 4 ms -> 250 bps.
        assert cfg.average_bitrate_bps() == pytest.approx(250.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PIEConfig(tari_s=0.0)
        with pytest.raises(ValueError):
            PIEConfig(one_ratio=0.9)
        with pytest.raises(ValueError):
            pie_encode([2], 32_000.0)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_pie_encode_rejects_non_bits(self, bad):
        with pytest.raises(ValueError, match="bits must be 0/1"):
            pie_encode([1, bad, 0], 32_000.0)


class TestQFunction:
    def test_q_at_zero(self):
        assert q_function(0.0) == pytest.approx(0.5)

    def test_known_point(self):
        assert q_function(3.09) == pytest.approx(1e-3, rel=0.02)

    @given(st.floats(min_value=1e-6, max_value=0.49))
    @settings(max_examples=30)
    def test_inverse_property(self, p):
        assert q_function(q_inverse(p)) == pytest.approx(p, rel=1e-6)

    def test_inverse_domain(self):
        with pytest.raises(ValueError):
            q_inverse(0.0)


class TestBERModels:
    def test_coherent_beats_noncoherent(self):
        for snr in (6.0, 9.0, 12.0):
            assert ber_ook_coherent(snr) < ber_ook_noncoherent(snr)

    def test_monotone_decreasing_in_snr(self):
        snrs = np.linspace(-5, 20, 26)
        cohs = [ber_ook_coherent(s) for s in snrs]
        assert all(b >= a for a, b in zip(cohs, cohs[1:])) is False
        assert cohs == sorted(cohs, reverse=True)

    def test_required_snr_inverts_coherent(self):
        snr = required_snr_db(1e-3, coherent=True)
        assert ber_ook_coherent(snr) == pytest.approx(1e-3, rel=1e-6)

    def test_required_snr_inverts_noncoherent(self):
        snr = required_snr_db(1e-3, coherent=False)
        assert ber_ook_noncoherent(snr) == pytest.approx(1e-3, rel=1e-6)

    def test_target_domain(self):
        with pytest.raises(ValueError):
            required_snr_db(0.6)


class TestErrorCounting:
    def test_exact_match(self):
        assert count_bit_errors([1, 0, 1], [1, 0, 1]) == 0

    def test_counts_flips(self):
        assert count_bit_errors([1, 0, 1, 1], [1, 1, 1, 0]) == 2

    def test_missing_bits_count_as_errors(self):
        assert count_bit_errors([1, 0, 1, 1], [1, 0]) == 2

    def test_extra_received_bits_ignored(self):
        assert count_bit_errors([1, 0], [1, 0, 1, 1, 1]) == 0

    def test_ber_normalises(self):
        assert ber([1, 0, 1, 1], [1, 1, 1, 0]) == pytest.approx(0.5)

    def test_ber_needs_sent_bits(self):
        with pytest.raises(ValueError):
            ber([], [1])

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool])
    def test_arrays_score_like_lists(self, dtype):
        sent, received = [1, 0, 1, 1, 0], [1, 1, 1]
        sent_array = np.array(sent, dtype=dtype)
        received_array = np.array(received, dtype=dtype)
        assert count_bit_errors(sent_array, received_array) == 3
        assert ber(sent_array, received_array) == ber(sent, received)
        with pytest.raises(ValueError):
            ber(np.zeros(0, dtype=dtype), received_array)

    @given(bit_lists.filter(lambda b: len(b) > 0))
    @settings(max_examples=30)
    def test_ber_bounded(self, bits):
        flipped = [1 - b for b in bits]
        assert ber(bits, flipped) == 1.0
        assert ber(bits, bits) == 0.0
