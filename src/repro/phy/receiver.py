"""The reader's receive chain.

Stages, in order:

1. **Self-interference suppression.** The hydrophone hears the projector's
   own carrier and every static reflection ~40–60 dB above the data. In
   baseband all of that is a complex constant, so subtracting the record
   mean (plus a slow DC-blocking pole for drift) removes it. This is why
   the line code must be DC-free.
2. **Preamble search.** Normalised correlation against the Barker
   template; the peak pins the frame start to a sample and yields a phase
   reference.
3. **Carrier-offset estimation.** Platform drift Doppler shifts the
   backscatter return by tens of hertz; the preamble's known chips let
   the receiver measure the residual rotation rate (lag-autocorrelation
   of the modulation-stripped preamble) and derotate the whole record.
4. **Coherent chip slicing.** Derotate by the preamble phase, integrate
   each chip, track residual phase drift with a decision-directed
   first-order loop (the ocean's surface motion shows up here), and
   threshold at zero (the DC-free code guarantees a centred eye).
5. **Frame parse.** FM0 decode, CRC check.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional, Protocol

import numpy as np

from repro.contracts import ComplexShaped
from repro.dsp.filters import _dc_block_rows
from repro.dsp.timing import symbol_samples, symbol_sum
from repro.obs.metrics import counter, histogram
from repro.obs.probes import probe_finite
from repro.phy.frame import FrameConfig, ParsedFrame, parse_frame
from repro.phy.preamble import (
    PreambleDetection,
    detect_preamble,
    preamble_chips,
    preamble_template,
)


class SupportsRates(Protocol):
    """Anything exposing the sample and chip rates a receiver needs.

    :class:`repro.sim.scenario.Scenario` satisfies this; so does any
    test double with the two attributes (the receiver is deliberately
    not coupled to the scenario class).
    """

    @property
    def fs(self) -> float: ...  # pragma: no cover - protocol

    @property
    def chip_rate(self) -> float: ...  # pragma: no cover - protocol


DEMODS_COUNTER = counter(
    "repro.phy.receiver.demods", "records run through the receive chain"
)
DETECT_FAILURES_COUNTER = counter(
    "repro.phy.receiver.detect_failures", "records with no preamble lock"
)
CRC_FAILURES_COUNTER = counter(
    "repro.phy.receiver.crc_failures",
    "detected records that yielded no CRC-clean frame",
)
SNR_HISTOGRAM = histogram(
    "repro.phy.receiver.snr_db",
    help="eye-SNR distribution of detected records, dB",
)


def suppress_carrier_rows(
    records: ComplexShaped["trials", "samples"], dc_pole: float
) -> ComplexShaped["trials", "samples"]:
    """Stage 1 of the receive chain over a ``(trials, samples)`` block.

    Each row loses its mean (the static carrier leak is a complex
    constant in baseband), then runs through the DC-blocking IIR with
    pole ``dc_pole`` (0, or any value outside (0, 1), disables it) for
    slow drift. Rows are filtered independently.
    """
    records = np.asarray(records)
    dtype = np.promote_types(records.dtype, np.float64)
    if records.size == 0:
        return np.empty_like(records, dtype=dtype)
    # ndarray.mean's exact ufunc sequence (sum, then divide by the
    # count), without its dispatch cost on the 1-row path.
    centred = np.subtract(
        records, np.add.reduce(records, axis=1, keepdims=True) / records.shape[1]
    )
    if dc_pole and 0.0 < dc_pole < 1.0:
        return _dc_block_rows(centred, dc_pole)
    # A single-precision block keeps its own subtract, widened after.
    return centred.astype(dtype, copy=False)


@dataclass(frozen=True)
class DemodResult:
    """Everything the receiver learned from one record.

    Attributes:
        frame: the parsed frame, or None when no frame was recovered.
        detection: preamble detection details, or None when the search
            failed.
        chip_soft: soft chip values (real, derotated) after the preamble.
        snr_db: post-processing SNR estimate from the chip eye.
        cfo_hz: estimated residual carrier offset (0 when compensation
            is disabled or no preamble was found).
        success: True when a frame parsed *and* its CRC checked out.
    """

    frame: Optional[ParsedFrame]
    detection: Optional[PreambleDetection]
    chip_soft: np.ndarray
    snr_db: float
    success: bool
    cfo_hz: float = 0.0


@dataclass
class ReaderReceiver:
    """Reader receive chain configuration.

    Attributes:
        fs: baseband sample rate, Hz.
        chip_rate: uplink chip rate, chips/s.
        frame_config: framing parameters shared with the node.
        preamble_threshold: normalised-correlation acceptance level.
        dc_pole: DC-blocker pole (0 disables the blocker; the mean is
            always removed).
        phase_loop_gain: first-order phase-tracking gain per chip
            (0 disables tracking).
        cfo_compensation: estimate and remove carrier frequency offset
            from the preamble before slicing (platform-drift Doppler).
        rake_taps: when > 0, estimate up to this many sample-spaced
            channel taps from the preamble and maximal-ratio combine the
            multipath echoes before slicing (see :mod:`repro.phy.rake`).
            Helps in the noise-limited regime with strong echoes.
        equalizer_taps: when > 0, estimate up to this many sample-spaced
            taps and run a chip-spaced decision-feedback equaliser during
            slicing — cancels inter-chip interference from echoes, the
            dominant impairment of unspread OOK in shallow water. Keep
            the span physical (a few chips): probing far delays invites
            spurious data-correlation taps.
        timing_search: try start offsets within +- this many samples
            around the detected preamble position and keep the first
            candidate whose frame passes CRC (best eye otherwise).
            Multipath superposition can pull the correlation peak a few
            samples off the true chip boundary; this wins them back.
    """

    fs: float = 16_000.0
    chip_rate: float = 2_000.0
    frame_config: FrameConfig = field(default_factory=FrameConfig)
    preamble_threshold: float = 0.5
    dc_pole: float = 0.95
    phase_loop_gain: float = 0.15
    cfo_compensation: bool = True
    rake_taps: int = 0
    equalizer_taps: int = 0
    timing_search: int = 0

    def __post_init__(self) -> None:
        self.sps = symbol_samples(self.fs, self.chip_rate)

    @classmethod
    def for_scenario(
        cls,
        scenario: "SupportsRates",
        frame_config: Optional[FrameConfig] = None,
        **overrides,
    ) -> "ReaderReceiver":
        """The default receive chain for a scenario's rates.

        This is the single construction path campaigns use to hoist the
        receiver out of the per-trial loop: build it once per operating
        point, reuse it for every trial (the chain is stateless across
        :meth:`demodulate` calls). ``scenario`` only needs ``fs`` and
        ``chip_rate`` attributes; ``overrides`` forward to the
        constructor (e.g. ``equalizer_taps=24``).
        """
        if frame_config is None:
            frame_config = FrameConfig()
        return cls(
            fs=scenario.fs,
            chip_rate=scenario.chip_rate,
            frame_config=frame_config,
            **overrides,
        )

    # -- stages -------------------------------------------------------------

    def suppress_carrier(self, record: np.ndarray) -> np.ndarray:
        """Stage 1: remove the static carrier leak and slow drift.

        A 1-row call of :func:`suppress_carrier_rows`.
        """
        record = np.asarray(record, dtype=np.complex128)
        return suppress_carrier_rows(record[None], self.dc_pole)[0]

    def find_preamble(self, centred: np.ndarray) -> Optional[PreambleDetection]:
        """Stage 2: locate the frame start."""
        return detect_preamble(
            centred,
            self.sps,
            repeats=self.frame_config.preamble_repeats,
            threshold=self.preamble_threshold,
        )

    def estimate_cfo_hz(
        self, centred: np.ndarray, detection: PreambleDetection
    ) -> float:
        """Stage 3: carrier-offset estimate from the known preamble.

        Multiplying the received preamble by the (real) template strips
        the chip modulation, leaving ``exp(j(phi + 2 pi f n / fs))``; the
        angle of the lag-L autocorrelation is then ``2 pi f L / fs``.
        L of one Barker period keeps the unambiguous range at
        ``+- fs / (2 L)`` (~+-59 Hz at the default rates), well beyond
        boat-drift Doppler.
        """
        template = preamble_template(self.sps, self.frame_config.preamble_repeats)
        start = detection.start_index
        region = np.asarray(
            centred[start : start + len(template)], dtype=np.complex128
        )
        if len(region) < len(template):
            return 0.0
        stripped = region * template  # template is real: conj-free strip
        lag = 13 * self.sps  # one Barker period
        if len(stripped) <= lag:
            return 0.0
        acc = np.vdot(stripped[:-lag], stripped[lag:])
        if abs(acc) == 0:
            return 0.0
        return float(np.angle(acc) * self.fs / (2.0 * math.pi * lag))

    def slice_chips(
        self,
        centred: np.ndarray,
        detection: PreambleDetection,
        initial_phase: Optional[float] = None,
        feedback_taps: Optional[dict] = None,
    ) -> np.ndarray:
        """Stage 4: coherent integrate-and-dump with phase tracking.

        Returns soft chip values (real part after derotation) for the
        region following the preamble.

        Args:
            centred: DC-suppressed (possibly rake-combined) record.
            detection: the preamble anchor.
            initial_phase: starting phase reference; defaults to the
                detection phase (pass 0 after rake combining, which
                already derotates by the main tap).
            feedback_taps: chip-delay -> complex relative tap (h_d/h_0)
                map for decision-feedback ISI cancellation; None or empty
                disables the DFE.
        """
        n_preamble = len(preamble_chips(self.frame_config.preamble_repeats))
        data_start = detection.start_index + n_preamble * self.sps
        region = centred[data_start:]
        dumps = symbol_sum(region, self.sps)
        if len(dumps) == 0:
            return np.zeros(0)

        if initial_phase is None:
            phase = math.atan2(detection.phase.imag, detection.phase.real)
        else:
            phase = initial_phase
        feedback = feedback_taps or {}
        feedback_items = list(feedback.items())
        decided = np.zeros(len(dumps))
        amplitude = 0.0  # running estimate of the eye half-opening
        soft = np.empty(len(dumps))
        # Hot loop of the whole receive chain (runs per chip, per timing
        # candidate) — bind everything loop-invariant to locals.
        loop_gain = self.phase_loop_gain
        cos, sin, atan2 = math.cos, math.sin, math.atan2
        dump_list = dumps.tolist()
        for i, dump in enumerate(dump_list):
            rotated = dump * complex(cos(-phase), sin(-phase))
            if feedback_items:
                isi = 0.0 + 0.0j
                for delay, tap in feedback_items:
                    j = i - delay
                    if j >= 0:
                        isi += tap * decided[j]
                rotated = rotated - isi
            real = rotated.real
            soft[i] = real
            decision = 1.0 if real >= 0 else -1.0
            amplitude += (abs(real) - amplitude) / (i + 1)
            decided[i] = decision * amplitude
            if loop_gain > 0 and (real != 0.0 or rotated.imag != 0.0):
                err = atan2(rotated.imag * decision, abs(real) + 1e-30)
                phase += loop_gain * err
        return soft

    # -- top level ------------------------------------------------------------

    def demodulate(self, record: np.ndarray) -> DemodResult:
        """Run the full chain on a baseband record.

        Standard configurations (no rake/equaliser/timing search, stock
        class) are delegated to the batched kernel in
        :mod:`repro.phy.batch` with batch size 1: the per-record and
        batched campaign paths share one implementation, which is what
        makes the batched engine's bit-identity contract hold by
        construction rather than by parallel maintenance of two DSP
        chains.
        """
        from repro.phy.batch import BatchedReaderReceiver, batch_supported

        if batch_supported(self):
            record = np.asarray(record, dtype=np.complex128)
            if record.ndim == 1:
                batched = BatchedReaderReceiver(self)
                return batched.demodulate_batch(record[None, :])[0]
        DEMODS_COUNTER.inc()
        centred = self.suppress_carrier(record)
        detection = self.find_preamble(centred)
        if detection is None:
            DETECT_FAILURES_COUNTER.inc()
            return DemodResult(
                frame=None,
                detection=None,
                chip_soft=np.zeros(0),
                snr_db=-math.inf,
                success=False,
            )
        cfo_hz = 0.0
        if self.cfo_compensation:
            cfo_hz = self.estimate_cfo_hz(centred, detection)
            if cfo_hz != 0.0:
                n = np.arange(len(centred)) - detection.start_index
                centred = centred * np.exp(-2j * math.pi * cfo_hz * n / self.fs)
        initial_phase = None
        if self.rake_taps > 0:
            from repro.phy.rake import estimate_channel, rake_combine

            estimate = estimate_channel(
                centred,
                detection,
                self.sps,
                repeats=self.frame_config.preamble_repeats,
                max_taps=self.rake_taps,
            )
            if estimate.active_taps >= 1:
                centred = rake_combine(centred, estimate)
                initial_phase = 0.0
        feedback = None
        if self.equalizer_taps > 0:
            from repro.phy.rake import estimate_channel

            estimate = estimate_channel(
                centred,
                detection,
                self.sps,
                repeats=self.frame_config.preamble_repeats,
                max_taps=self.equalizer_taps,
            )
            main = estimate.taps[0]
            if abs(main) > 0:
                # An echo at sample delay k = d*sps + f overlaps two chip
                # windows: fraction f/sps of chip n-d-1 and (sps-f)/sps of
                # chip n-d leak into dump n. Only whole-chip-delayed
                # contributions are past decisions the DFE can subtract;
                # the d = 0 part rides with the signal and stays.
                feedback = {}
                for k in np.flatnonzero(estimate.taps):
                    if k == 0:
                        continue
                    rel = complex(estimate.taps[k] / main)
                    d, f = divmod(int(k), self.sps)
                    if d >= 1:
                        feedback[d] = feedback.get(d, 0.0) + rel * (
                            (self.sps - f) / self.sps
                        )
                    if f > 0:
                        feedback[d + 1] = feedback.get(d + 1, 0.0) + rel * (
                            f / self.sps
                        )
                feedback = {
                    d: w for d, w in feedback.items() if abs(w) > 0.05
                } or None

        # Candidate start offsets, nearest first, so clean channels pay
        # only one pass.
        offsets = [0]
        for k in range(1, self.timing_search + 1):
            offsets.extend((k, -k))
        best: Optional[DemodResult] = None
        for offset in offsets:
            shifted = dataclasses.replace(
                detection, start_index=detection.start_index + offset
            )
            if shifted.start_index < 0:
                continue
            soft = self.slice_chips(centred, shifted, initial_phase, feedback)
            chips = (soft >= 0.0).astype(np.int64)
            frame = parse_frame(chips, self.frame_config)
            result = DemodResult(
                frame=frame,
                detection=shifted,
                chip_soft=soft,
                snr_db=_eye_snr_db(soft),
                success=bool(frame is not None and frame.crc_ok),
                cfo_hz=cfo_hz,
            )
            if result.success:
                if math.isfinite(result.snr_db):
                    SNR_HISTOGRAM.observe(result.snr_db)
                probe_finite(
                    "phy.receiver.soft_chips", soft, stage="demod"
                )
                return result
            if best is None or result.snr_db > best.snr_db:
                best = result
        CRC_FAILURES_COUNTER.inc()
        if best is not None and math.isfinite(best.snr_db):
            SNR_HISTOGRAM.observe(best.snr_db)
        if best is not None:
            probe_finite(
                "phy.receiver.soft_chips", best.chip_soft, stage="demod"
            )
        return best


def _eye_snr_db(soft: np.ndarray) -> float:
    """SNR estimate from sliced soft values (two-cluster eye statistics).

    Per-cluster mean and variance are spelled out as the exact ufunc
    sequence ``ndarray.mean`` / ``ndarray.var`` reduce to (pairwise sum,
    divide; subtract, square, pairwise sum, divide) — bitwise-equal
    results without the method-dispatch overhead, which matters because
    this runs once per demodulated record.
    """
    if len(soft) < 4:
        return -math.inf
    pos = soft >= 0
    hi = soft[pos]
    lo = soft[~pos]
    if len(hi) < 2 or len(lo) < 2:
        return -math.inf
    hi_mean = np.add.reduce(hi) / hi.size
    lo_mean = np.add.reduce(lo) / lo.size
    separation = hi_mean - lo_mean
    hi_dev = hi - hi_mean
    lo_dev = lo - lo_mean
    hi_var = np.add.reduce(hi_dev * hi_dev) / hi.size
    lo_var = np.add.reduce(lo_dev * lo_dev) / lo.size
    spread = math.sqrt((hi_var + lo_var) / 2.0)
    if spread <= 0:
        return math.inf
    # Amplitude +-d/2 around zero: signal power (d/2)^2, noise power spread^2.
    ratio = (separation / 2.0) ** 2 / spread**2
    return 10.0 * math.log10(max(ratio, 1e-30))
