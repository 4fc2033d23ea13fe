"""Tests for bit utilities, CRC, and line codes (heavy on properties)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.bits import (
    as_bits,
    bits_from_bytes,
    bits_to_bytes,
    bits_to_levels,
    pn_sequence,
    random_bits,
)
from repro.phy.coding import (
    LineCode,
    chips_per_bit,
    decode,
    encode,
    fm0_decode,
    fm0_encode,
    manchester_decode,
    manchester_encode,
    miller_decode,
    miller_encode,
)
from repro.phy.crc import crc16_ccitt, crc16_ccitt_batch, crc16_check
from repro.phy.fec import FECScheme, fec_encode, hamming74_encode
from repro.phy.scrambler import scramble

bit_arrays = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=64)


class TestBits:
    def test_bytes_roundtrip(self):
        data = bytes(range(256))
        assert bits_to_bytes(bits_from_bytes(data)) == data

    def test_msb_first(self):
        np.testing.assert_array_equal(
            bits_from_bytes(b"\x80"), [1, 0, 0, 0, 0, 0, 0, 0]
        )

    def test_bits_to_bytes_needs_multiple_of_8(self):
        with pytest.raises(ValueError):
            bits_to_bytes([1, 0, 1])

    def test_bits_to_bytes_rejects_non_binary(self):
        with pytest.raises(ValueError):
            bits_to_bytes([2] * 8)

    @pytest.mark.parametrize("bad", [[0, 2], [1, -1], [[0, 1], [1, 3]]])
    def test_as_bits_rejects_values_other_than_0_1(self, bad):
        with pytest.raises(ValueError, match="bits must be 0/1"):
            as_bits(bad)

    def test_as_bits_passes_an_int64_array_through(self):
        arr = np.array([0, 1, 1], dtype=np.int64)
        assert as_bits(arr) is arr
        assert as_bits(np.array([True, False])).dtype == np.int64

    def test_as_bits_checks_the_axis_count(self):
        with pytest.raises(ValueError, match="axes"):
            as_bits([0, 1], ndim=2)

    @pytest.mark.parametrize(
        "codec",
        [
            bits_to_bytes,
            crc16_ccitt,
            lambda bits: crc16_ccitt_batch([bits]),
            fm0_encode,
            manchester_encode,
            hamming74_encode,
            lambda bits: fec_encode(bits, FECScheme.NONE),
            scramble,
        ],
    )
    def test_every_codec_validates_through_as_bits(self, codec):
        with pytest.raises(ValueError, match="bits must be 0/1"):
            codec([0, 1, 2, 0, 0, 0, 0, 0])

    def test_random_bits_deterministic_with_seed(self):
        a = random_bits(100, np.random.default_rng(5))
        b = random_bits(100, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_pn_sequence_period_127(self):
        seq = pn_sequence(254)
        np.testing.assert_array_equal(seq[:127], seq[127:])
        # Maximal-length property: 64 ones, 63 zeros per period.
        assert seq[:127].sum() in (63, 64)

    def test_pn_rejects_zero_seed(self):
        with pytest.raises(ValueError):
            pn_sequence(10, seed=0)

    def test_levels_mapping(self):
        np.testing.assert_array_equal(bits_to_levels([0, 1]), [-1.0, 1.0])


class TestCRC:
    def test_known_vector(self):
        # CRC-16/CCITT-FALSE of ASCII "123456789" is 0x29B1.
        bits = bits_from_bytes(b"123456789")
        fcs = crc16_ccitt(bits)
        value = int("".join(str(b) for b in fcs), 2)
        assert value == 0x29B1

    def test_check_accepts_valid(self):
        bits = bits_from_bytes(b"hello vab")
        full = np.concatenate([bits, crc16_ccitt(bits)])
        assert crc16_check(full)

    def test_check_rejects_single_bit_flip(self):
        bits = bits_from_bytes(b"payload!")
        full = np.concatenate([bits, crc16_ccitt(bits)])
        for position in (0, 13, len(full) - 1):
            corrupted = full.copy()
            corrupted[position] ^= 1
            assert not crc16_check(corrupted)

    def test_check_rejects_too_short(self):
        assert not crc16_check([1, 0, 1])

    @given(bit_arrays)
    @settings(max_examples=30)
    def test_roundtrip_property(self, bits):
        full = np.concatenate([np.array(bits, dtype=np.int64), crc16_ccitt(bits)])
        assert crc16_check(full)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            crc16_ccitt([0, 1, 2])


class TestFM0:
    @given(bit_arrays)
    @settings(max_examples=50)
    def test_roundtrip(self, bits):
        chips = fm0_encode(bits)
        decoded, violations = fm0_decode(chips)
        np.testing.assert_array_equal(decoded, bits)
        assert violations == 0

    def test_two_chips_per_bit(self):
        assert len(fm0_encode([1, 0, 1])) == 6

    def test_boundary_always_inverts(self):
        chips = fm0_encode([1, 1, 0, 0, 1, 0, 1, 1])
        pairs = chips.reshape(-1, 2)
        for i in range(1, len(pairs)):
            assert pairs[i, 0] != pairs[i - 1, 1]

    def test_dc_free(self):
        # Over random data FM0 chips are half ones (DC-free on average
        # and bounded runs).
        rng = np.random.default_rng(0)
        chips = fm0_encode(random_bits(2000, rng))
        assert abs(chips.mean() - 0.5) < 0.03
        # Longest run of identical chips in FM0 is 2.
        runs = np.diff(np.flatnonzero(np.diff(chips) != 0))
        assert runs.max() <= 2

    def test_violations_detected(self):
        chips = fm0_encode([1, 0, 1, 1]).copy()
        chips[2] ^= 1  # break the boundary rule
        __, violations = fm0_decode(chips)
        assert violations >= 1

    def test_odd_chip_count_rejected(self):
        with pytest.raises(ValueError):
            fm0_decode([1, 0, 1])

    def test_start_level(self):
        a = fm0_encode([1, 0], start_level=0)
        b = fm0_encode([1, 0], start_level=1)
        np.testing.assert_array_equal(a, 1 - b)
        with pytest.raises(ValueError):
            fm0_encode([1], start_level=2)


class TestManchester:
    @given(bit_arrays)
    @settings(max_examples=50)
    def test_roundtrip(self, bits):
        np.testing.assert_array_equal(
            manchester_decode(manchester_encode(bits)), bits
        )

    def test_always_transitions_midbit(self):
        chips = manchester_encode([1, 1, 0, 0]).reshape(-1, 2)
        assert np.all(chips[:, 0] != chips[:, 1])

    def test_invalid_symbol_rejected(self):
        with pytest.raises(ValueError):
            manchester_decode([1, 1])

    def test_exactly_dc_free(self):
        chips = manchester_encode(random_bits(501, np.random.default_rng(1)))
        assert chips.mean() == pytest.approx(0.5)


class TestMiller:
    @given(bit_arrays)
    @settings(max_examples=50)
    def test_roundtrip(self, bits):
        np.testing.assert_array_equal(miller_decode(miller_encode(bits)), bits)

    def test_one_transitions_midbit(self):
        chips = miller_encode([1]).reshape(-1, 2)
        assert chips[0, 0] != chips[0, 1]

    def test_zero_holds_midbit(self):
        chips = miller_encode([0]).reshape(-1, 2)
        assert chips[0, 0] == chips[0, 1]

    def test_zero_after_zero_transitions_at_boundary(self):
        chips = miller_encode([0, 0])
        assert chips[2] != chips[1]


class TestDispatch:
    @given(bit_arrays, st.sampled_from(list(LineCode)))
    @settings(max_examples=50)
    def test_encode_decode_inverse(self, bits, code):
        np.testing.assert_array_equal(decode(encode(bits, code), code), bits)

    def test_chips_per_bit(self):
        assert chips_per_bit(LineCode.NRZ) == 1
        for code in (LineCode.FM0, LineCode.MANCHESTER, LineCode.MILLER):
            assert chips_per_bit(code) == 2
