"""Tests for preamble detection and framing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp.noisegen import white_noise
from repro.phy.coding import LineCode
from repro.phy.frame import (
    MAX_PAYLOAD_BYTES,
    FrameConfig,
    build_frame,
    parse_frame,
)
from repro.phy.preamble import (
    BARKER13,
    detect_preamble,
    preamble_chips,
    preamble_template,
)


def chips_to_signal(chips, sps, amplitude=1.0, phase=0.0):
    """OOK waveform (zero-mean) for a chip stream, as the receiver sees it."""
    levels = (np.asarray(chips, float) - 0.5) * amplitude
    wave = np.repeat(levels, sps).astype(complex)
    return wave * np.exp(1j * phase)


class TestPreamble:
    def test_barker13_autocorrelation_sidelobes(self):
        levels = 2.0 * BARKER13 - 1.0
        full = np.correlate(levels, levels, mode="full")
        peak = full[len(levels) - 1]
        sidelobes = np.abs(np.delete(full, len(levels) - 1))
        assert peak == 13.0
        assert sidelobes.max() <= 1.0  # the Barker property

    def test_preamble_repeats(self):
        assert len(preamble_chips(2)) == 26
        with pytest.raises(ValueError):
            preamble_chips(0)

    def test_template_zero_mean(self):
        t = preamble_template(8, repeats=2)
        assert abs(t.mean()) < 0.05

    def test_detects_clean_preamble(self):
        sps = 8
        chips = np.concatenate([np.zeros(17, int), preamble_chips(2), np.zeros(9, int)])
        sig = chips_to_signal(chips, sps)
        det = detect_preamble(sig, sps)
        assert det is not None
        assert det.start_index == 17 * sps
        assert det.score > 0.9

    def test_detects_with_phase_rotation(self):
        sps = 8
        chips = np.concatenate([np.zeros(10, int), preamble_chips(2)])
        sig = chips_to_signal(chips, sps, phase=1.1)
        det = detect_preamble(sig, sps)
        assert det is not None
        assert det.start_index == 10 * sps
        # The reported phase should match the injected rotation.
        assert np.angle(det.phase) == pytest.approx(1.1, abs=0.05)

    def test_detects_in_noise(self):
        sps = 8
        rng = np.random.default_rng(7)
        chips = np.concatenate([np.zeros(20, int), preamble_chips(2), np.zeros(20, int)])
        sig = chips_to_signal(chips, sps)
        sig = sig + white_noise(len(sig), 0.05, rng)
        det = detect_preamble(sig, sps, threshold=0.4)
        assert det is not None
        assert abs(det.start_index - 20 * sps) <= 1

    def test_rejects_pure_noise(self):
        rng = np.random.default_rng(8)
        sig = white_noise(2000, 1.0, rng)
        assert detect_preamble(sig, 8, threshold=0.6) is None

    def test_rejects_too_short_record(self):
        assert detect_preamble(np.zeros(10, complex), 8) is None


class TestFrame:
    def test_build_and_parse_roundtrip(self):
        chips = build_frame(42, b"sensor-7 reading")
        cfg = FrameConfig()
        frame = parse_frame(chips[len(cfg.preamble):], cfg)
        assert frame is not None
        assert frame.node_id == 42
        assert frame.payload == b"sensor-7 reading"
        assert frame.crc_ok
        assert frame.fm0_violations == 0

    def test_roundtrip_all_line_codes(self):
        for code in LineCode:
            cfg = FrameConfig(line_code=code)
            chips = build_frame(7, b"abc", cfg)
            frame = parse_frame(chips[len(cfg.preamble):], cfg)
            assert frame is not None and frame.crc_ok
            assert frame.payload == b"abc"

    def test_empty_payload(self):
        cfg = FrameConfig()
        chips = build_frame(1, b"", cfg)
        frame = parse_frame(chips[len(cfg.preamble):], cfg)
        assert frame.payload == b""
        assert frame.crc_ok

    def test_trailing_chips_ignored(self):
        cfg = FrameConfig()
        chips = build_frame(9, b"xy", cfg)
        extended = np.concatenate([chips[len(cfg.preamble):], np.zeros(40, np.int64)])
        frame = parse_frame(extended, cfg)
        assert frame.payload == b"xy"
        assert frame.crc_ok

    def test_corruption_fails_crc(self):
        cfg = FrameConfig()
        chips = build_frame(9, b"hello", cfg).copy()
        body = chips[len(cfg.preamble):]
        body[37] ^= 1
        frame = parse_frame(body, cfg)
        assert frame is not None
        assert not frame.crc_ok

    @pytest.mark.parametrize("chip, crc_ok", [(0, False), (1, True)])
    def test_manchester_flat_symbol_decodes_by_first_chip(self, chip, crc_ok):
        # One flipped chip leaves a flat Manchester symbol. It decodes by
        # its first chip and the CRC decides, as for the other line codes.
        cfg = FrameConfig(line_code=LineCode.MANCHESTER)
        body = build_frame(3, b"hello", cfg)[len(cfg.preamble):].copy()
        body[2 * 20 + chip] ^= 1  # bit 20 is a payload bit
        frame = parse_frame(body, cfg)
        assert frame is not None
        assert frame.node_id == 3
        assert frame.crc_ok is crc_ok
        assert frame.fm0_violations == 1
        assert (frame.payload == b"hello") is crc_ok

    def test_truncated_stream_returns_none(self):
        cfg = FrameConfig()
        chips = build_frame(9, b"hello world", cfg)
        body = chips[len(cfg.preamble):]
        assert parse_frame(body[: len(body) // 2], cfg) is None
        assert parse_frame(body[:8], cfg) is None

    def test_payload_size_limit(self):
        build_frame(1, bytes(MAX_PAYLOAD_BYTES))
        with pytest.raises(ValueError):
            build_frame(1, bytes(MAX_PAYLOAD_BYTES + 1))

    def test_node_id_range(self):
        with pytest.raises(ValueError):
            build_frame(256, b"")
        with pytest.raises(ValueError):
            build_frame(-1, b"")

    def test_frame_chips_accounting(self):
        cfg = FrameConfig()
        payload = b"12345"
        chips = build_frame(3, payload, cfg)
        assert len(chips) == cfg.frame_chips(len(payload))

    @given(
        st.integers(min_value=0, max_value=255),
        st.binary(min_size=0, max_size=40),
    )
    @settings(max_examples=30)
    def test_roundtrip_property(self, node_id, payload):
        cfg = FrameConfig()
        chips = build_frame(node_id, payload, cfg)
        frame = parse_frame(chips[len(cfg.preamble):], cfg)
        assert frame.node_id == node_id
        assert frame.payload == payload
        assert frame.crc_ok
