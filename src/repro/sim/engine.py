"""The end-to-end waveform simulator.

One trial simulates a complete uplink frame exchange at sample level:

1. the reader transmits a CW carrier at its source level;
2. the carrier propagates through the multipath channel to the node;
3. the node keys its Van Atta connection with the frame's chip waveform,
   re-radiating toward the reader with the array's monostatic gain;
4. the reflection propagates back through the (animated) channel;
5. the hydrophone record adds carrier self-interference leakage, its
   post-cancellation residual, and Wenz-spectrum ambient noise;
6. the reader DSP chain demodulates and the trial is scored bit-by-bit.

Amplitudes are carried in absolute micro-pascals so the Wenz noise, the
source level, and the transducer models all agree on units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.acoustics.channel import ChannelResponse
from repro.analysis.shapes.vocab import IntShaped
from repro.acoustics.doppler import apply_doppler
from repro.dsp.noisegen import colored_noise_batch, white_noise_batch
from repro.obs.probes import probe_signal, probe_unit_interval
from repro.obs.spans import span
from repro.phy.batch import BatchedReaderReceiver, batch_supported
from repro.phy.ber import ber as ber_of
from repro.phy.bits import bits_from_bytes
from repro.phy.frame import FrameConfig, build_frames_batch
from repro.phy.receiver import DemodResult, ReaderReceiver
from repro.rng import fallback_rng
from repro.sim.cache import reader_node_response
from repro.sim.scenario import Scenario
from repro.vanatta.node import VanAttaNode
from repro.vanatta.switching import chips_to_waveform_batch

IDLE_CHIPS_BEFORE = 24
"""OFF-state chips simulated before the frame (noise for the detector)."""

IDLE_CHIPS_AFTER = 8
"""OFF-state chips after the frame (lets channel tails flush through)."""


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one simulated frame exchange.

    Attributes:
        detected: the preamble search succeeded.
        frame_ok: a frame parsed and passed CRC.
        ber: payload bit error rate (undetected frames score 0.5 — the
            receiver knows nothing, equivalent to guessing).
        snr_db: receiver eye-SNR estimate (-inf when undetected).
        range_m: reader-node slant range of the trial.
        incidence_deg: reader direction off the node broadside.
        payload_bits: number of payload bits scored.
    """

    detected: bool
    frame_ok: bool
    ber: float
    snr_db: float
    range_m: float
    incidence_deg: float
    payload_bits: int

    @property
    def success(self) -> bool:
        """Frame delivered intact."""
        return self.frame_ok


def simulate_trial(
    scenario: Scenario,
    node: Optional[VanAttaNode] = None,
    payload: Optional[bytes] = None,
    rng: Optional[np.random.Generator] = None,
    frame_config: Optional[FrameConfig] = None,
    receiver: Optional[ReaderReceiver] = None,
    si_leak_db: float = 40.0,
    si_suppression_db: Optional[float] = 130.0,
    system_noise_figure_db: float = 10.0,
    include_noise: bool = True,
    response: Optional[ChannelResponse] = None,
) -> TrialResult:
    """Simulate one uplink frame end to end.

    A 1-row call of :func:`simulate_point_batch`, the one trial
    pipeline: looping this function over a point's payloads and
    generators reproduces the whole-point batch bit for bit.

    Args:
        scenario: environment and geometry.
        node: the backscatter node (default VAB node facing the reader).
        payload: payload bytes (default: 8 random bytes).
        rng: random generator. Campaigns must thread one derived from
            ``TrialCampaign.trial_seeds`` (the bit-identical parallel
            guarantee depends on it); omitted, draws come from the
            documented process-global stream
            (:func:`repro.rng.fallback_rng`).
        frame_config: PHY framing (FM0 default).
        receiver: reader receive chain (built from the scenario if omitted).
        si_leak_db: how far below the source level the static carrier
            leak sits at the hydrophone (removed by mean subtraction; it
            exercises stage 1 of the receiver).
        si_suppression_db: post-cancellation residual floor below the
            source level (enters as in-band noise); None = perfect.
        system_noise_figure_db: receiver noise figure applied on top of
            the ambient Wenz level (hydrophone preamp and ADC noise).
        include_noise: disable to get a noise-free functional check.
        response: precomputed reader->node multipath response. Campaigns
            hoist this out of the trial loop (it is a per-point
            invariant); omitted, it is fetched from the process-local
            channel cache.

    Returns:
        The scored trial.
    """
    if rng is None:
        rng = fallback_rng()
    if payload is None:
        payload = bytes(rng.integers(0, 256, size=8, dtype=np.uint8))
    return simulate_point_batch(
        scenario,
        [payload],
        [rng],
        node=node,
        frame_config=frame_config,
        receiver=receiver,
        si_leak_db=si_leak_db,
        si_suppression_db=si_suppression_db,
        system_noise_figure_db=system_noise_figure_db,
        include_noise=include_noise,
        response=response,
    )[0]


def simulate_point_batch(
    scenario: Scenario,
    payloads: Sequence[bytes],
    rngs: Sequence[np.random.Generator],
    node: Optional[VanAttaNode] = None,
    frame_config: Optional[FrameConfig] = None,
    receiver: Optional[ReaderReceiver] = None,
    si_leak_db: float = 40.0,
    si_suppression_db: Optional[float] = 130.0,
    system_noise_figure_db: float = 10.0,
    include_noise: bool = True,
    response: Optional[ChannelResponse] = None,
) -> List[TrialResult]:
    """Simulate every trial of one operating point as one batch.

    The trial pipeline: all trials share the scenario, node, and channel
    response, so the whole point runs as a ``(trials, samples)`` block —
    one channel application, one noise draw shaped per trial stream, one
    batched demodulation (:class:`repro.phy.batch.BatchedReaderReceiver`).
    A trial's result does not depend on its batch neighbours: every stage
    either broadcasts a trial-invariant operand or reduces along the
    sample axis, and each trial's noise stream draws in a fixed order
    (colored bins, then the residual-SI white draw). Any sub-batch split,
    down to 1-row :func:`simulate_trial` calls, is bitwise-equal.

    Args:
        scenario: environment and geometry (shared by all trials).
        payloads: payload bytes per trial; all the same length.
        rngs: one generator per trial, already advanced past any draws
            the caller made (campaigns draw the payloads first).
        node: the backscatter node. Nodes that override
            ``modulation_waveform`` or ``reflect`` fall back to per-row
            calls of those methods, keeping subclass behaviour intact.
        frame_config: PHY framing (FM0 default).
        receiver: reader receive chain (built from the scenario if
            omitted). Chains the batched kernel does not support (see
            :func:`repro.phy.batch.batch_supported`: rake, equaliser,
            timing search, subclasses) demodulate row by row.
        si_leak_db: static carrier leak below source level.
        si_suppression_db: post-cancellation residual floor; None = perfect.
        system_noise_figure_db: receiver noise figure over ambient.
        include_noise: disable for noise-free functional checks.
        response: precomputed reader->node multipath response.

    Returns:
        The scored trials, in ``payloads`` order.
    """
    if len(payloads) != len(rngs):
        raise ValueError("payloads and rngs must have the same length")
    trials = len(payloads)
    if trials == 0:
        return []
    if node is None:
        node = VanAttaNode()
    if frame_config is None:
        frame_config = FrameConfig()

    fs = scenario.fs
    sps = scenario.samples_per_chip
    theta = scenario.incidence_deg

    # --- node chip waveforms (idle guard, frame, idle tail) ---
    frames = build_frames_batch(node.node_id, payloads, frame_config)
    idle = np.zeros((trials, IDLE_CHIPS_BEFORE), dtype=np.int64)
    tail = np.zeros((trials, IDLE_CHIPS_AFTER), dtype=np.int64)
    all_chips = np.concatenate([idle, frames, tail], axis=1)
    if type(node).modulation_waveform is VanAttaNode.modulation_waveform:
        modulation = chips_to_waveform_batch(all_chips, sps, node.switch, fs)
    else:
        modulation = np.stack(
            [node.modulation_waveform(row, sps, fs) for row in all_chips]
        )

    # --- propagate: reader -> node (trial-invariant: computed once) ---
    amplitude_tx = 10.0 ** (scenario.source_level_db / 20.0)
    n_samples = modulation.shape[1]
    with span("channel"):
        tx = np.full(n_samples, amplitude_tx, dtype=np.complex128)
        if response is None:
            response = reader_node_response(scenario)
        incident = response.apply(tx, fs, start_time_s=0.0)[:n_samples]

    # --- reflect off the modulated array ---
    with span("reflect"):
        if type(node) is VanAttaNode:
            reflected = node.reflect(
                incident, modulation, scenario.carrier_hz, theta,
                scenario.water.sound_speed,
            )
        else:
            reflected = np.stack(
                [
                    node.reflect(
                        incident, modulation[t], scenario.carrier_hz, theta,
                        scenario.water.sound_speed,
                    )
                    for t in range(trials)
                ]
            )

    # --- propagate back: node -> reader (surface animation continues) ---
    with span("channel"):
        received = response.apply(
            reflected, fs, start_time_s=response.direct_path.delay_s
        )[..., :n_samples]
        # Platform drift Doppler on the round trip (boat swing / current);
        # the backscatter round trip doubles the one-way shift.
        if scenario.platform_drift_mps:
            received = apply_doppler(
                received,
                fs,
                scenario.carrier_hz,
                2.0 * scenario.platform_drift_mps,
                scenario.water.sound_speed,
            )

    # --- reader-side impairments ---
    # ``record`` is a fresh block (the leak sum), so the noise is added
    # in place; ``incident``, ``reflected`` and ``received`` are never
    # written — the record probe attributes a corrupt record to the
    # first corrupt stage output among them.
    leak = amplitude_tx * 10.0 ** (-si_leak_db / 20.0)
    record = received + leak
    if include_noise:
        with span("noise"):
            # Each trial's stream draws colored bins first, then the
            # residual-SI white draw, so a trial's noise does not depend
            # on the batch it rides in.
            ambient = colored_noise_batch(
                n_samples, fs, scenario.noise.psd_db, scenario.carrier_hz, rngs
            )
            ambient *= 10.0 ** (system_noise_figure_db / 20.0)
            record += ambient
            if si_suppression_db is not None:
                residual_level_db = scenario.source_level_db - si_suppression_db
                # Residual power spread across the chip bandwidth, then
                # scaled to the simulated bandwidth so in-band density is
                # right.
                in_band_power = (10.0 ** (residual_level_db / 20.0)) ** 2
                total_power = in_band_power * fs / scenario.chip_rate
                record += white_noise_batch(n_samples, total_power, rngs)

    # --- demodulate and score ---
    with span("demod"):
        # One cheap reduction over the whole (trials, samples) block:
        # NaN/Inf anywhere and gross level errors are caught here, and
        # (on the failure path only) attributed to the first corrupt
        # stage output.
        probe_signal(
            "sim.engine.record",
            record,
            level_limit_db=scenario.source_level_db,
            stage="noise" if include_noise else "reflect",
            stage_arrays=(
                ("channel", incident),
                ("reflect", reflected),
                ("channel", received),
            ),
        )
        if receiver is None:
            receiver = ReaderReceiver.for_scenario(scenario, frame_config)
        if batch_supported(receiver):
            demods = BatchedReaderReceiver(receiver).demodulate_batch(record)
        else:
            demods = [receiver.demodulate(row) for row in record]
        return [
            _score(
                demod, bits_from_bytes(bytes(payload)), scenario, theta
            )
            for demod, payload in zip(demods, payloads)
        ]


def _score(
    result: DemodResult,
    sent_bits: IntShaped["payload_bits"],
    scenario: Scenario,
    theta: float,
) -> TrialResult:
    """Turn a demod result into a scored trial."""
    if result.detection is None:
        return TrialResult(
            detected=False,
            frame_ok=False,
            ber=0.5,
            snr_db=-math.inf,
            range_m=scenario.range_m,
            incidence_deg=theta,
            payload_bits=len(sent_bits),
        )
    if result.frame is None:
        received_bits = np.zeros(0, dtype=np.int64)
    else:
        received_bits = bits_from_bytes(result.frame.payload)
    trial_ber = ber_of(sent_bits, received_bits) if len(sent_bits) else 0.0
    probe_unit_interval("sim.engine.ber", trial_ber, stage="demod")
    return TrialResult(
        detected=True,
        frame_ok=bool(result.frame is not None and result.frame.crc_ok),
        ber=min(trial_ber, 1.0),
        snr_db=result.snr_db,
        range_m=scenario.range_m,
        incidence_deg=theta,
        payload_bits=len(sent_bits),
    )
