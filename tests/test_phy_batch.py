"""Batched PHY kernels: vectorised stages vs their scalar references.

Two kinds of contract live here:

* **Bitwise** — the batched noise generators, frame codecs, and CRC are
  required to reproduce their scalar counterparts exactly (integer ops,
  or float ops in identical order), and ``demodulate_batch`` must equal
  the per-record ``demodulate`` (which delegates to the same kernel).
* **Tolerance** — the FFT-based batched correlation matches the
  time-domain scalar form only to ~1e-12; its peak decisions must
  still agree.
"""

import numpy as np
import pytest

from repro.dsp.correlate import normalized_correlation, normalized_correlation_batch
from repro.dsp.noisegen import (
    colored_noise,
    colored_noise_batch,
    white_noise,
    white_noise_batch,
)
from repro.acoustics.noise import NoiseConditions
from repro.phy import BatchedReaderReceiver, batch_supported
from repro.phy.coding import (
    fm0_decode,
    fm0_decode_batch,
    fm0_encode,
    fm0_encode_batch,
)
from repro.phy.crc import crc16_ccitt, crc16_ccitt_batch
from repro.phy.frame import (
    FrameConfig,
    build_frame,
    build_frames_batch,
    parse_frame,
    parse_frames_batch,
)
from repro.phy.receiver import ReaderReceiver
from repro.sim.scenario import Scenario
from repro.sim.trials import TrialCampaign


class TestBatchSupportGate:
    def test_stock_receiver_supported(self):
        assert batch_supported(ReaderReceiver(fs=16000.0, chip_rate=2000.0))

    @pytest.mark.parametrize(
        "overrides",
        [{"rake_taps": 2}, {"equalizer_taps": 8}, {"timing_search": 1}],
    )
    def test_extended_receivers_unsupported(self, overrides):
        rx = ReaderReceiver(fs=16000.0, chip_rate=2000.0, **overrides)
        assert not batch_supported(rx)
        with pytest.raises(ValueError):
            BatchedReaderReceiver(rx)

    def test_subclasses_unsupported(self):
        class Tweaked(ReaderReceiver):
            pass

        assert not batch_supported(Tweaked(fs=16000.0, chip_rate=2000.0))


def _records(n_trials, seed=0, noise=0.08):
    """Noisy baseband records, each carrying one decodable frame.

    Synthetic OOK-style records (chips upsampled, rotated by a random
    carrier phase and a small CFO, DC leak and white noise on top) —
    enough to exercise every receiver stage without the channel engine.
    """
    rng = np.random.default_rng(seed)
    fs, sps = 16000.0, 8
    records = []
    for _ in range(n_trials):
        payload = bytes(rng.integers(0, 256, size=8, dtype=np.uint8))
        chips = np.concatenate(
            [np.zeros(40, np.int64), build_frame(5, payload),
             np.zeros(40, np.int64)]
        )
        wave = np.repeat(chips.astype(np.float64), sps)
        t_axis = np.arange(len(wave)) / fs
        rotation = np.exp(
            1j * (rng.uniform(0, 2 * np.pi) + 2 * np.pi * rng.uniform(-8, 8) * t_axis)
        )
        awgn = noise * (
            rng.standard_normal(len(wave))
            + 1j * rng.standard_normal(len(wave))
        )
        records.append(wave * rotation + 0.7 + awgn)
    return np.stack(records)


class TestDemodulateBatch:
    def test_batch_equals_per_record_demodulation(self):
        records = _records(5)
        rx = ReaderReceiver(fs=16000.0, chip_rate=2000.0)
        batched = BatchedReaderReceiver(rx).demodulate_batch(records)
        for row, got in zip(records, batched):
            want = rx.demodulate(row)
            assert (want.frame is None) == (got.frame is None)
            assert want.frame == got.frame
            assert want.detection == got.detection
            assert want.snr_db == got.snr_db
            assert want.success == got.success
            assert want.cfo_hz == got.cfo_hz
            assert np.array_equal(want.chip_soft, got.chip_soft)

    def test_batch_size_invariance(self):
        records = _records(6, seed=9)
        rx = ReaderReceiver(fs=16000.0, chip_rate=2000.0)
        batched = BatchedReaderReceiver(rx)
        whole = batched.demodulate_batch(records)
        parts = batched.demodulate_batch(
            records[:2]
        ) + batched.demodulate_batch(records[2:])
        for a, b in zip(whole, parts):
            assert a.snr_db == b.snr_db
            assert a.frame == b.frame
            assert np.array_equal(a.chip_soft, b.chip_soft)

    def test_empty_and_undetectable_records(self):
        rx = ReaderReceiver(fs=16000.0, chip_rate=2000.0)
        batched = BatchedReaderReceiver(rx)
        assert batched.demodulate_batch(np.zeros((0, 128))) == []
        silent = batched.demodulate_batch(np.zeros((3, 4096)))
        assert [r.success for r in silent] == [False] * 3
        assert [r.detection for r in silent] == [None] * 3


@pytest.fixture(scope="module")
def river_record():
    """The record block the point pipeline demodulates for river(330 m)."""
    captured = []
    real = BatchedReaderReceiver.demodulate_batch

    def capture(self, records):
        captured.append(np.array(records))
        return real(self, records)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BatchedReaderReceiver, "demodulate_batch", capture)
        TrialCampaign(trials_per_point=6, seed=2023).run_trials(
            Scenario.river(330.0), 0
        )
    return captured[0]


def _demod_fields(result):
    return (
        result.frame,
        result.detection,
        result.snr_db,
        result.success,
        result.cfo_hz,
        result.chip_soft.tobytes(),
    )


class TestDemodMemoryOrder:
    """A record's result must not depend on how its block is laid out."""

    def test_c_f_and_strided_layouts_give_equal_results(self, river_record):
        rx = ReaderReceiver.for_scenario(Scenario.river(330.0))
        batched = BatchedReaderReceiver(rx)
        trials, n = river_record.shape
        wide = np.zeros((trials, 2 * n), dtype=np.complex128)
        wide[:, ::2] = river_record

        def demod(records):
            return [_demod_fields(r) for r in batched.demodulate_batch(records)]

        want = demod(river_record)
        assert any(fields[1] is not None for fields in want)
        assert demod(np.asfortranarray(river_record)) == want
        assert demod(wide[:, ::2]) == want


class TestBatchedCorrelation:
    def test_matches_scalar_within_fft_tolerance(self):
        rng = np.random.default_rng(5)
        template = rng.normal(size=64)
        signals = rng.normal(size=(7, 500)) + 1j * rng.normal(size=(7, 500))
        batch = normalized_correlation_batch(signals, template)
        for t in range(7):
            scalar = normalized_correlation(signals[t], template)
            np.testing.assert_allclose(batch[t], scalar, atol=1e-10)
            assert int(np.argmax(batch[t])) == int(np.argmax(scalar))

    def test_short_signals_yield_empty(self):
        out = normalized_correlation_batch(np.zeros((3, 5)), np.ones(10))
        assert out.shape == (3, 0)


class TestBatchedNoise:
    def test_white_noise_rows_bitwise_match_scalar_streams(self):
        rngs = [np.random.default_rng((1, t)) for t in range(4)]
        batch = white_noise_batch(256, 2.5, rngs)
        for t in range(4):
            want = white_noise(256, 2.5, np.random.default_rng((1, t)))
            assert np.array_equal(batch[t], want)

    def test_colored_noise_rows_bitwise_match_scalar_streams(self):
        psd = NoiseConditions().psd_db
        rngs = [np.random.default_rng((2, t)) for t in range(4)]
        batch = colored_noise_batch(512, 192_000.0, psd, 18_500.0, rngs)
        for t in range(4):
            want = colored_noise(
                512, 192_000.0, psd, 18_500.0, np.random.default_rng((2, t))
            )
            assert np.array_equal(batch[t], want)


class TestBatchedFrameCodecs:
    def test_crc_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        for n in (0, 1, 7, 8, 9, 100, 230):
            bits = rng.integers(0, 2, size=(6, n))
            want = np.stack([crc16_ccitt(bits[i]) for i in range(6)])
            assert np.array_equal(crc16_ccitt_batch(bits), want)

    def test_fm0_batch_matches_scalar(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=(5, 37))
        for level in (0, 1):
            want = np.stack([fm0_encode(bits[i], level) for i in range(5)])
            assert np.array_equal(fm0_encode_batch(bits, level), want)
        chips = rng.integers(0, 2, size=(5, 74))
        got_bits, got_violations = fm0_decode_batch(chips)
        for i in range(5):
            want_bits, want_violations = fm0_decode(chips[i])
            assert np.array_equal(got_bits[i], want_bits)
            assert got_violations[i] == want_violations

    def test_build_frames_batch_matches_scalar(self):
        rng = np.random.default_rng(6)
        payloads = [
            bytes(rng.integers(0, 256, size=8, dtype=np.uint8))
            for _ in range(7)
        ]
        want = np.stack([build_frame(9, p) for p in payloads])
        assert np.array_equal(build_frames_batch(9, payloads), want)

    def test_build_frames_batch_rejects_mixed_lengths(self):
        with pytest.raises(ValueError, match="one length"):
            build_frames_batch(1, [b"ab", b"abc"])

    def test_parse_frames_batch_matches_scalar(self):
        rng = np.random.default_rng(8)
        config = FrameConfig()
        payloads = [
            bytes(rng.integers(0, 256, size=8, dtype=np.uint8))
            for _ in range(10)
        ]
        frames = build_frames_batch(2, payloads, config)
        chips = frames[:, len(config.preamble):]
        # Corrupt chips (some rows will mis-decode the length byte),
        # truncate others below the header / frame thresholds.
        chips = np.where(rng.random(chips.shape) < 0.05, 1 - chips, chips)
        n_chips = np.full(len(payloads), chips.shape[1])
        n_chips[0] = 3
        n_chips[1] = 40
        want = [
            parse_frame(chips[t, : n_chips[t]], config)
            for t in range(len(payloads))
        ]
        got = parse_frames_batch(chips, n_chips, config)
        assert got == want
