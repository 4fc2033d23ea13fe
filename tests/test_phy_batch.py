"""Batched PHY kernels: the one implementation of each PHY stage.

Each scalar kernel (``crc16_ccitt``, the line codes, the FEC, the
interleaver, the scrambler, ``build_frame``/``parse_frame``,
``white_noise``/``colored_noise``, ``chips_to_waveform``,
``ReaderReceiver.suppress_carrier``) is a 1-row call of its batched
kernel, so comparing the two proves nothing about the algorithm. Three
kinds of contract live here instead:

* **Reference** — each batched kernel equals a spec-level oracle written
  out in the test (the bit-serial CRC recurrence, the per-bit FM0 rule,
  the former scalar frame codec with the loop forms of its stages, the
  expression forms of the noise draws, ``np.repeat`` plus a shifted
  ``np.convolve``), bitwise.
* **Row independence** — a 1-row call equals the matching row of an
  N-row call, at zero, odd and long lengths; and ``demodulate_batch``
  must equal the per-record ``demodulate`` (which delegates to it).
* **Tolerance** — the FFT-based batched correlation matches the
  time-domain scalar form only to ~1e-12; its peak decisions must
  still agree.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp.correlate import normalized_correlation, normalized_correlation_batch
from repro.dsp.noisegen import (
    colored_noise,
    colored_noise_batch,
    white_noise,
    white_noise_batch,
)
from repro.acoustics.noise import NoiseConditions
from repro.phy import BatchedReaderReceiver, batch_supported
from repro.phy.bits import bits_from_bytes, pn_sequence
from repro.phy.coding import (
    LineCode,
    decode_batch,
    encode,
    encode_batch,
    fm0_decode,
    fm0_decode_batch,
    fm0_encode,
    fm0_encode_batch,
)
from repro.phy.crc import crc16_ccitt, crc16_ccitt_batch
from repro.phy.fec import (
    FECScheme,
    deinterleave,
    fec_decode,
    fec_decode_batch,
    fec_encode,
    fec_encode_batch,
    interleave,
)
from repro.phy.frame import (
    FrameConfig,
    ParsedFrame,
    build_frame,
    build_frames_batch,
    parse_frame,
    parse_frames_batch,
)
from repro.phy.scrambler import SCRAMBLER_SEED, SCRAMBLER_TAPS, scramble
from repro.phy.receiver import ReaderReceiver
from repro.sim.scenario import Scenario
from repro.sim.trials import TrialCampaign
from repro.vanatta.switching import (
    ModulationSwitch,
    chips_to_waveform,
    chips_to_waveform_batch,
)


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

    def test_row_tiles_equal_the_whole_block(self):
        # Tiles arrive one at a time through one refilled buffer, as the
        # point pipeline hands them over; an empty and a one-row tile are
        # tiles too.
        records = _records(6, seed=9)
        rx = ReaderReceiver(fs=16000.0, chip_rate=2000.0)
        batched = BatchedReaderReceiver(rx)
        whole = [_demod_fields(r) for r in batched.demodulate_batch(records)]
        buffer = np.empty_like(records)

        def tiles(bounds):
            for lo, hi in bounds:
                buffer[: hi - lo] = records[lo:hi]
                yield buffer[: hi - lo]

        for bounds in ([(0, 2), (2, 2), (2, 5), (5, 6)], [(0, 6)]):
            got = batched.demodulate_batch(tiles(bounds))
            assert [_demod_fields(r) for r in got] == whole
        assert batched.demodulate_batch(iter([])) == []
        with pytest.raises(ValueError, match="4096 samples per record, got 100"):
            batched.demodulate_batch(
                iter([np.zeros((1, 4096)), np.zeros((1, 100))])
            )

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
        # The pipeline hands over its record tiles one at a time, refilling
        # one block: copy each as it arrives.
        tiles = [np.array(tile) for tile in records]
        captured.append(np.concatenate(tiles))
        return real(self, iter(tiles))

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


def psd_db(freq_hz):
    """A sloped passband PSD, dB: any array-valued callable will do."""
    return 60.0 - 17.0 * np.log10(freq_hz / 1000.0)


def crc_reference(bits):
    """CRC-16/CCITT-FALSE by its bit-serial register recurrence."""
    register = 0xFFFF
    for bit in bits:
        register ^= int(bit) << 15
        if register & 0x8000:
            register = ((register << 1) ^ 0x1021) & 0xFFFF
        else:
            register = (register << 1) & 0xFFFF
    return [(register >> (15 - i)) & 1 for i in range(16)]


def fm0_encode_reference(bits, level):
    """FM0 by its per-bit rule: invert at every boundary, again mid-bit
    for a 0."""
    chips = []
    for bit in bits:
        level = 1 - level
        chips.append(level)
        if bit == 0:
            level = 1 - level
        chips.append(level)
    return chips


def fm0_decode_reference(chips):
    """A bit is 1 when its chips match; a violation is a bit boundary
    without an inversion."""
    bits = [int(chips[i] == chips[i + 1]) for i in range(0, len(chips), 2)]
    violations = sum(
        chips[i] == chips[i - 1] for i in range(2, len(chips), 2)
    )
    return bits, violations


def miller_encode_reference(bits, level=1):
    """Miller by its per-bit loop: a 1 transitions mid-bit, a 0 holds
    unless it follows a 0, which transitions at the boundary."""
    chips, prev = [], None
    for bit in bits:
        if bit == 1:
            first, second = level, 1 - level
        else:
            first = 1 - level if prev == 0 else level
            second = first
        chips += [first, second]
        level, prev = second, bit
    return chips


def line_encode_reference(bits, code):
    if code is LineCode.FM0:
        return fm0_encode_reference(bits, 1)
    if code is LineCode.MANCHESTER:
        return [chip for bit in bits for chip in (bit, 1 - bit)]
    if code is LineCode.MILLER:
        return miller_encode_reference(bits)
    return list(bits)


def line_decode_reference(chips, code):
    """``(bits, violations)``: FM0 counts boundaries without an inversion;
    Manchester reads a symbol's first chip and counts flat symbols."""
    if code is LineCode.NRZ:
        return list(chips), 0
    if code is LineCode.FM0:
        return fm0_decode_reference(chips)
    pairs = [(chips[i], chips[i + 1]) for i in range(0, len(chips), 2)]
    if code is LineCode.MANCHESTER:
        return [a for a, _ in pairs], sum(a == b for a, b in pairs)
    return [int(a != b) for a, b in pairs], 0


HAMMING_G = [
    [1, 0, 0, 0, 1, 1, 0],
    [0, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
]
HAMMING_H = [
    [1, 1, 0, 1, 1, 0, 0],
    [1, 0, 1, 1, 0, 1, 0],
    [0, 1, 1, 1, 0, 0, 1],
]


def _syndrome(block):
    return int("".join(
        str(sum(h * x for h, x in zip(row, block)) % 2) for row in HAMMING_H
    ), 2)


def hamming74_decode_reference(coded):
    """Hamming(7,4) block by block: look the syndrome up in a dict of
    single-bit error positions and flip that bit."""
    position = {
        _syndrome([int(i == pos) for i in range(7)]): pos for pos in range(7)
    }
    bits, corrections = [], 0
    for i in range(0, len(coded), 7):
        block = list(coded[i : i + 7])
        key = _syndrome(block)
        if key:
            block[position[key]] ^= 1
            corrections += 1
        bits += block[:4]
    return bits, corrections


def fec_encode_reference(bits, scheme):
    if scheme is FECScheme.HAMMING74:
        bits = list(bits) + [0] * (-len(bits) % 4)
        return [
            sum(b * g for b, g in zip(bits[i : i + 4], column)) % 2
            for i in range(0, len(bits), 4)
            for column in zip(*HAMMING_G)
        ]
    if scheme is FECScheme.REPETITION3:
        return [bit for bit in bits for _ in range(3)]
    return list(bits)


def fec_decode_reference(coded, scheme):
    if scheme is FECScheme.HAMMING74:
        return hamming74_decode_reference(coded)
    if scheme is FECScheme.REPETITION3:
        votes = [sum(coded[i : i + 3]) for i in range(0, len(coded), 3)]
        return [int(v >= 2) for v in votes], sum(v not in (0, 3) for v in votes)
    return list(coded), 0


def fec_length_reference(n, scheme):
    if scheme is FECScheme.HAMMING74:
        return -(-n // 4) * 7
    return 3 * n if scheme is FECScheme.REPETITION3 else n


def interleave_reference(bits, depth):
    """Write row-wise into ``depth`` rows of ``cols``, read column-wise."""
    cols = -(-len(bits) // depth)
    padded = list(bits) + [0] * (depth * cols - len(bits))
    return [padded[r * cols + c] for c in range(cols) for r in range(depth)]


def deinterleave_reference(bits, depth, length):
    cols = len(bits) // depth
    out = [0] * len(bits)
    for c in range(cols):
        for r in range(depth):
            out[r * cols + c] = bits[c * depth + r]
    return out[:length]


def scramble_reference(bits):
    pn = pn_sequence(len(bits), taps=SCRAMBLER_TAPS, seed=SCRAMBLER_SEED)
    return [int(b) ^ int(p) for b, p in zip(bits, pn)]


def build_frame_oracle(node_id, payload, config):
    """The former scalar ``build_frame`` over the reference stages."""
    header_bits = list(bits_from_bytes(bytes([node_id, len(payload)])))
    payload_bits = list(bits_from_bytes(payload))
    if config.scramble:
        payload_bits = scramble_reference(payload_bits)
    fcs = crc_reference(header_bits + payload_bits)
    body = fec_encode_reference(payload_bits + fcs, config.fec)
    if config.interleave_depth > 1:
        body = interleave_reference(body, config.interleave_depth)
    coded = line_encode_reference(header_bits + body, config.line_code)
    return list(config.preamble) + coded


def _byte_values(bits):
    return [int("".join(map(str, bits[i : i + 8])), 2) for i in range(0, len(bits), 8)]


def parse_frame_oracle(chips, config):
    """The former scalar ``parse_frame`` over the reference stages."""
    chips = [int(c) for c in chips]
    cpb = 1 if config.line_code is LineCode.NRZ else 2
    if len(chips) < 16 * cpb:
        return None
    header_bits, _ = line_decode_reference(chips[: 16 * cpb], config.line_code)
    node_id, length = _byte_values(header_bits)
    info_bits = 8 * length + 16
    fec_bits = fec_length_reference(info_bits, config.fec)
    depth = config.interleave_depth
    total_chips = (16 + depth * -(-fec_bits // depth)) * cpb
    if len(chips) < total_chips:
        return None
    all_bits, violations = line_decode_reference(
        chips[:total_chips], config.line_code
    )
    body = deinterleave_reference(all_bits[16:], depth, fec_bits)
    body, corrections = fec_decode_reference(body, config.fec)
    payload_bits, fcs = body[: 8 * length], body[8 * length : info_bits]
    crc_ok = crc_reference(header_bits + payload_bits) == fcs
    if config.scramble:
        payload_bits = scramble_reference(payload_bits)
    return ParsedFrame(
        node_id=node_id,
        payload=bytes(_byte_values(payload_bits)),
        crc_ok=crc_ok,
        fm0_violations=violations,
        fec_corrections=corrections,
    )


CONFIGS = [
    FrameConfig(line_code=code, fec=fec, interleave_depth=depth, scramble=scrambled)
    for code, fec, depth, scrambled in itertools.product(
        LineCode, FECScheme, (1, 8), (False, True)
    )
]


def config_id(config):
    return "-".join([
        config.line_code.value,
        config.fec.value,
        f"il{config.interleave_depth}",
        "scrambled" if config.scramble else "plain",
    ])


def waveform_reference(chips, sps, switch, fs):
    """Levels by ``np.repeat``, the ramp as a moving average by
    ``np.convolve`` shifted back by its group delay."""
    levels = np.where(
        np.asarray(chips) == 1, switch.on_amplitude, switch.off_amplitude
    )
    wave = np.repeat(levels, sps)
    ramp = max(int(round(switch.transition_time_s * fs)), 1)
    if ramp == 1:
        return wave
    shift = (ramp - 1) // 2
    smoothed = np.convolve(wave, np.ones(ramp) / ramp)[: len(wave)]
    return np.concatenate([smoothed[shift:], np.full(shift, smoothed[-1])])


SMOOTH_SWITCH = ModulationSwitch(transition_time_s=1e-3)
"""A 16-sample transition ramp at 16 kHz: exercises the smoothing."""


class TestBatchedNoise:
    def test_white_noise_rows_bitwise_match_scalar_streams(self):
        rngs = [np.random.default_rng((1, t)) for t in range(4)]
        batch = white_noise_batch(256, 2.5, rngs)
        scale = np.sqrt(2.5 / 2.0)
        for t in range(4):
            rng = np.random.default_rng((1, t))
            draws = rng.standard_normal(256) + 1j * rng.standard_normal(256)
            want = scale * draws
            assert batch[t].tobytes() == want.tobytes()

    def test_colored_noise_rows_bitwise_match_scalar_streams(self):
        n, fs, carrier = 512, 192_000.0, 18_500.0
        rngs = [np.random.default_rng((2, t)) for t in range(4)]
        batch = colored_noise_batch(n, fs, psd_db, carrier, rngs)
        # Bin f of the baseband spectrum carries PSD(carrier + f) (clamped
        # to 1 Hz) over the bin's fs / n Hz share of the bandwidth.
        freqs = np.maximum(carrier + np.fft.fftfreq(n, d=1.0 / fs), 1.0)
        amplitude = np.sqrt(10.0 ** (psd_db(freqs) / 10.0) * fs / 2.0)
        for t in range(4):
            rng = np.random.default_rng((2, t))
            bins = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            want = np.fft.ifft(bins * amplitude) * np.sqrt(n)
            assert batch[t].tobytes() == want.tobytes()


class TestChipWaveform:
    @pytest.mark.parametrize(
        "switch", [ModulationSwitch(), SMOOTH_SWITCH], ids=["sharp", "ramp"]
    )
    def test_waveform_matches_repeat_and_shifted_convolve(self, switch):
        chips = np.random.default_rng(10).integers(0, 2, size=(4, 45))
        got = chips_to_waveform_batch(chips, 8, switch, 16_000.0)
        for t in range(4):
            want = waveform_reference(chips[t], 8, switch, 16_000.0)
            assert got[t].tobytes() == want.tobytes()


class TestBatchedFrameCodecs:
    def test_crc_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        for n in (0, 1, 7, 8, 9, 100, 230):
            bits = rng.integers(0, 2, size=(6, n))
            want = [crc_reference(row) for row in bits]
            assert crc16_ccitt_batch(bits).tolist() == want

    def test_fm0_batch_matches_scalar(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=(5, 37))
        for level in (0, 1):
            want = [fm0_encode_reference(row, level) for row in bits]
            assert fm0_encode_batch(bits, level).tolist() == want
        chips = rng.integers(0, 2, size=(5, 74))
        got_bits, got_violations = fm0_decode_batch(chips)
        for i in range(5):
            want_bits, want_violations = fm0_decode_reference(chips[i])
            assert got_bits[i].tolist() == want_bits
            assert got_violations[i] == want_violations

    @pytest.mark.parametrize("config", CONFIGS, ids=config_id)
    def test_build_frames_batch_matches_oracle(self, config):
        rng = np.random.default_rng(6)
        for length in (0, 1, 8):
            payloads = [
                bytes(rng.integers(0, 256, size=length, dtype=np.uint8))
                for _ in range(4)
            ]
            got = build_frames_batch(9, payloads, config)
            for row, payload in zip(got, payloads):
                assert row.tolist() == build_frame_oracle(9, payload, config)
                assert _bitwise(build_frame(9, payload, config)) == _bitwise(row)

    def test_build_frames_batch_rejects_mixed_lengths(self):
        with pytest.raises(ValueError, match="one length"):
            build_frames_batch(1, [b"ab", b"abc"])

    @pytest.mark.parametrize("config", CONFIGS, ids=config_id)
    def test_parse_frames_batch_matches_oracle(self, config):
        rng = np.random.default_rng(8)
        payloads = [
            bytes(rng.integers(0, 256, size=5, dtype=np.uint8))
            for _ in range(10)
        ]
        frames = build_frames_batch(2, payloads, config)
        frame_chips = frames.shape[1] - len(config.preamble)
        chips = np.concatenate(
            [frames[:, len(config.preamble):],
             rng.integers(0, 2, size=(10, 30))],
            axis=1,
        )
        # Rows 4-9 take chip errors (some will mis-decode the length
        # byte); rows 0-3 are truncated below the header, below and at
        # the frame end.
        flips = rng.random(chips.shape) < 0.03
        flips[:4] = False
        chips = np.where(flips, 1 - chips, chips)
        n_chips = np.full(10, chips.shape[1])
        n_chips[:4] = [3, 40, frame_chips - 1, frame_chips]
        got = parse_frames_batch(chips, n_chips, config)
        want = [
            parse_frame_oracle(chips[t, : n_chips[t]], config)
            for t in range(10)
        ]
        assert got == want
        assert got[:4] == [None, None, None, got[3]]
        assert got[3].crc_ok and got[3].payload == payloads[3]
        for t in range(10):
            assert parse_frame(chips[t, : n_chips[t]], config) == got[t]

    @pytest.mark.parametrize("width", [0, 1, 40, 95, 100, 150])
    def test_n_chips_past_the_width_is_a_value_error(self, width):
        # Whatever the width (inside the header, odd, past it), a length
        # the matrix cannot hold is one error naming the row and widths.
        frame = build_frame(7, b"payload")[len(FrameConfig().preamble):]
        chips = np.stack([frame[:width], frame[:width]])
        message = (
            rf"n_chips\[1\] = {len(frame)} exceeds the chip matrix "
            rf"width {width}$"
        )
        with pytest.raises(ValueError, match=message):
            parse_frames_batch(chips, [width, len(frame)])
        with pytest.raises(ValueError, match=r"n_chips\[0\] = "):
            parse_frames_batch(chips[:1], [width + 1])

    @given(
        st.sampled_from(CONFIGS),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=300),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_parsing_random_chips_never_raises(self, config, rows, width, data):
        n_bytes = -(-rows * width // 8)
        raw = data.draw(st.binary(min_size=n_bytes, max_size=n_bytes))
        chips = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
        chips = chips[: rows * width].astype(np.int64).reshape(rows, width)
        n_chips = data.draw(st.lists(
            st.integers(0, width), min_size=rows, max_size=rows
        ))
        got = parse_frames_batch(chips, n_chips, config)
        assert got == [
            parse_frame_oracle(chips[t, : n_chips[t]], config)
            for t in range(rows)
        ]
        # One length pushed past the matrix is the only thing that raises,
        # and the error names that row and both widths.
        t = data.draw(st.integers(0, rows - 1))
        over = list(n_chips)
        over[t] = width + data.draw(st.integers(1, 40))
        message = (
            rf"n_chips\[{t}\] = {over[t]} exceeds the chip matrix "
            rf"width {width}$"
        )
        with pytest.raises(ValueError, match=message):
            parse_frames_batch(chips, over, config)

ROWS = 5
ROW_LENGTHS = (0, 1, 13, 4099)


def _bits(n):
    return np.random.default_rng((11, n)).integers(0, 2, size=(ROWS, n))


def _streams():
    return [np.random.default_rng((12, t)) for t in range(ROWS)]


def _samples(n):
    rng = np.random.default_rng((13, n))
    return rng.normal(size=(ROWS, n)) + 1j * rng.normal(size=(ROWS, n)) + 0.7


RECEIVER = ReaderReceiver(fs=16000.0, chip_rate=2000.0)
FS, CARRIER = 16_000.0, 18_500.0

# kernel -> (every row of one N-row call, row t as a 1-row call), at n.
ONE_ROW_CASES = {
    "crc": (
        lambda n: list(crc16_ccitt_batch(_bits(n))),
        lambda n, t: crc16_ccitt(_bits(n)[t]),
    ),
    "fm0-encode": (
        lambda n: list(fm0_encode_batch(_bits(n), 0)),
        lambda n, t: fm0_encode(_bits(n)[t], 0),
    ),
    "fm0-decode": (
        lambda n: list(zip(*fm0_decode_batch(_bits(2 * n)))),
        lambda n, t: fm0_decode(_bits(2 * n)[t]),
    ),
    "white-noise": (
        lambda n: list(white_noise_batch(n, 2.5, _streams())),
        lambda n, t: white_noise(n, 2.5, _streams()[t]),
    ),
    "colored-noise": (
        lambda n: list(colored_noise_batch(n, FS, psd_db, CARRIER, _streams())),
        lambda n, t: colored_noise(n, FS, psd_db, CARRIER, _streams()[t]),
    ),
    "waveform": (
        lambda n: list(chips_to_waveform_batch(_bits(n), 3, SMOOTH_SWITCH, FS)),
        lambda n, t: chips_to_waveform(_bits(n)[t], 3, SMOOTH_SWITCH, FS),
    ),
    "suppress": (
        lambda n: list(
            BatchedReaderReceiver(RECEIVER).suppress_carrier_batch(_samples(n))
        ),
        lambda n, t: RECEIVER.suppress_carrier(_samples(n)[t]),
    ),
    "interleave": (
        lambda n: list(interleave(_bits(n), 8)),
        lambda n, t: interleave(_bits(n)[t], 8),
    ),
    "deinterleave": (
        lambda n: list(deinterleave(_bits(8 * n), 8, n)),
        lambda n, t: deinterleave(_bits(8 * n)[t], 8, n),
    ),
    "scramble": (
        lambda n: list(scramble(_bits(n))),
        lambda n, t: scramble(_bits(n)[t]),
    ),
}
for _code in LineCode:
    ONE_ROW_CASES[f"encode-{_code.value}"] = (
        lambda n, code=_code: list(encode_batch(_bits(n), code)),
        lambda n, t, code=_code: encode(_bits(n)[t], code),
    )
    ONE_ROW_CASES[f"decode-{_code.value}"] = (
        lambda n, code=_code: list(zip(*decode_batch(_bits(2 * n), code))),
        lambda n, t, code=_code: tuple(
            part[0] for part in decode_batch(_bits(2 * n)[t][None], code)
        ),
    )
for _scheme, _block in ((FECScheme.NONE, 1), (FECScheme.HAMMING74, 7),
                        (FECScheme.REPETITION3, 3)):
    ONE_ROW_CASES[f"fec-encode-{_scheme.value}"] = (
        lambda n, scheme=_scheme: list(fec_encode_batch(_bits(n), scheme)),
        lambda n, t, scheme=_scheme: fec_encode(_bits(n)[t], scheme),
    )
    ONE_ROW_CASES[f"fec-decode-{_scheme.value}"] = (
        lambda n, scheme=_scheme, block=_block: list(
            zip(*fec_decode_batch(_bits(block * n), scheme))
        ),
        lambda n, t, scheme=_scheme, block=_block: fec_decode(
            _bits(block * n)[t], scheme
        ),
    )


def _bitwise(value):
    """A value's exact bits: arrays by bytes and shape, tuples by part."""
    if isinstance(value, tuple):
        return tuple(_bitwise(part) for part in value)
    array = np.asarray(value)
    return array.shape, array.dtype.str, array.tobytes()


@pytest.mark.parametrize("n", ROW_LENGTHS)
@pytest.mark.parametrize("kernel", sorted(ONE_ROW_CASES))
def test_one_row_call_equals_its_row_of_an_n_row_call(kernel, n):
    batch_rows, row_call = ONE_ROW_CASES[kernel]
    rows = batch_rows(n)
    assert len(rows) == ROWS
    for t, row in enumerate(rows):
        assert _bitwise(row_call(n, t)) == _bitwise(row)
