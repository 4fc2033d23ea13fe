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
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.acoustics.channel import ChannelResponse
from repro.acoustics.doppler import apply_doppler
from repro.contracts import IntShaped
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

IDLE_CHIPS_BEFORE = 24
"""OFF-state chips simulated before the frame (noise for the detector)."""

IDLE_CHIPS_AFTER = 8
"""OFF-state chips after the frame (lets channel tails flush through)."""

TILE_ROWS = 32
"""Trials a point pushes through its sample-domain stages at once.

One complex tile block of a river record (2,000 samples) is 1 MB, so a
tile's temporaries stay cache-sized and a 250-trial point holds a few
of them instead of a few 8 MB ``(trials, samples)`` blocks. Not a knob:
results do not depend on it (any tiling is bitwise-equal).
"""


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
    response, so the point runs in two phases.

    * **Per tile.** :data:`TILE_ROWS` trials at a time go through
      modulate → reflect → channel → Doppler → record + noise → suppress
      → detect → CFO → integrate-and-dump, as ``(rows, samples)``
      blocks. The channel-output, Doppler, record and noise blocks are
      allocated once per point and refilled tile by tile, so a point's
      peak memory is a few tile-sized blocks whatever its trial count.
    * **Once per point.** The decision-directed phase loop, the frame
      parse, the eye SNR and the scoring run over every detected row
      (:meth:`repro.phy.batch.BatchedReaderReceiver.demodulate_batch`
      takes the record tiles), since they cost the same per call
      whatever the row count.

    Trial-invariant work runs once, before the tiles: the frames, the
    incident carrier, the receiver (and, inside their modules, the
    correlation template spectrum, the Doppler resampling plan and the
    array's monostatic gain).

    A trial's result does not depend on its batch neighbours: every
    stage either broadcasts a trial-invariant operand or reduces along
    the sample axis, and each trial's noise stream draws in a fixed
    order (colored bins, then the residual-SI white draw). Any tiling
    and any sub-batch split, down to 1-row :func:`simulate_trial`
    calls, is bitwise-equal.

    Args:
        scenario: environment and geometry (shared by all trials).
        payloads: payload bytes per trial; all the same length.
        rngs: one generator per trial, already advanced past any draws
            the caller made (campaigns draw the payloads first).
        node: the backscatter node. Its ``modulation_waveform`` and
            ``reflect`` are called once per tile, on ``(rows, ...)``
            blocks; a subclass overriding them takes and returns blocks.
            The record is ``samples_per_chip`` samples per chip long, and
            ``reflect`` fits the modulation to the incident carrier.
        frame_config: PHY framing (FM0 default).
        receiver: reader receive chain (built from the scenario if
            omitted). Chains the batched kernel does not support (see
            :func:`repro.phy.batch.batch_supported`: rake, equaliser,
            timing search, subclasses) demodulate row by row, tile by
            tile.
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
    carrier_hz = scenario.carrier_hz
    sound_speed = scenario.water.sound_speed

    # --- node chip sequences (idle guard, frame, idle tail) ---
    frames = build_frames_batch(node.node_id, payloads, frame_config)
    idle = np.zeros((trials, IDLE_CHIPS_BEFORE), dtype=np.int64)
    tail = np.zeros((trials, IDLE_CHIPS_AFTER), dtype=np.int64)
    all_chips = np.concatenate([idle, frames, tail], axis=1)
    n_samples = all_chips.shape[1] * sps

    # --- propagate: reader -> node (trial-invariant: computed once) ---
    amplitude_tx = 10.0 ** (scenario.source_level_db / 20.0)
    with span("channel"):
        tx = np.full(n_samples, amplitude_tx, dtype=np.complex128)
        if response is None:
            response = reader_node_response(scenario)
        incident = response.apply(tx, fs, start_time_s=0.0)[:n_samples]

    leak = amplitude_tx * 10.0 ** (-si_leak_db / 20.0)
    noise_gain = 10.0 ** (system_noise_figure_db / 20.0)
    residual_power = None
    if si_suppression_db is not None:
        # Residual power spread across the chip bandwidth, then scaled
        # to the simulated bandwidth so in-band density is right.
        residual_level_db = scenario.source_level_db - si_suppression_db
        in_band_power = (10.0 ** (residual_level_db / 20.0)) ** 2
        residual_power = in_band_power * fs / scenario.chip_rate

    def record_tiles() -> Iterator[np.ndarray]:
        """The point's hydrophone records, tile by tile, each written
        into the same block (the consumer is done with a tile before it
        asks for the next)."""
        rows = min(trials, TILE_ROWS)
        shape = (rows, n_samples)
        channel = np.empty(
            (rows, response.output_samples(n_samples, fs)), dtype=np.complex128
        )
        if scenario.platform_drift_mps:
            warped = np.empty(shape, dtype=np.complex128)
        record = np.empty(shape, dtype=np.complex128)
        noise = np.empty(shape, dtype=np.complex128)
        for lo in range(0, trials, TILE_ROWS):
            hi = min(lo + TILE_ROWS, trials)
            tile_rngs = rngs[lo:hi]
            modulation = node.modulation_waveform(all_chips[lo:hi], sps, fs)

            # --- reflect off the modulated array ---
            with span("reflect"):
                reflected = node.reflect(
                    incident, modulation, carrier_hz, theta, sound_speed
                )

            # --- propagate back: node -> reader (surface animation
            # continues) ---
            with span("channel"):
                received = response.apply(
                    reflected,
                    fs,
                    start_time_s=response.direct_path.delay_s,
                    out=channel[: hi - lo],
                )[..., :n_samples]
                # Platform drift Doppler on the round trip (boat swing /
                # current); the backscatter round trip doubles the
                # one-way shift.
                if scenario.platform_drift_mps:
                    received = apply_doppler(
                        received,
                        fs,
                        carrier_hz,
                        2.0 * scenario.platform_drift_mps,
                        sound_speed,
                        out=warped[: hi - lo],
                    )

            # --- reader-side impairments ---
            # The leak sum writes the record block, and the noise is
            # added to it in place; ``incident``, ``reflected`` and
            # ``received`` are never written — the record probe
            # attributes a corrupt record to the first corrupt stage
            # output among them.
            tile = np.add(received, leak, out=record[: hi - lo])
            if include_noise:
                with span("noise"):
                    # Each trial's stream draws colored bins first, then
                    # the residual-SI white draw, so a trial's noise does
                    # not depend on the tile it rides in.
                    ambient = colored_noise_batch(
                        n_samples, fs, scenario.noise.psd_db, carrier_hz,
                        tile_rngs, out=noise[: hi - lo],
                    )
                    ambient *= noise_gain
                    tile += ambient
                    if residual_power is not None:
                        tile += white_noise_batch(
                            n_samples, residual_power, tile_rngs,
                            out=noise[: hi - lo],
                        )

            # One cheap reduction over the tile: NaN/Inf anywhere and
            # gross level errors are caught here, and (on the failure
            # path only) attributed to the first corrupt stage output.
            probe_signal(
                "sim.engine.record",
                tile,
                level_limit_db=scenario.source_level_db,
                stage="noise" if include_noise else "reflect",
                stage_arrays=(
                    ("channel", incident),
                    ("reflect", reflected),
                    ("channel", received),
                ),
            )
            yield tile

    # --- demodulate and score ---
    if receiver is None:
        receiver = ReaderReceiver.for_scenario(scenario, frame_config)
    if batch_supported(receiver):
        demods = BatchedReaderReceiver(receiver).demodulate_batch(
            record_tiles()
        )
    else:
        demods = []
        for tile in record_tiles():
            with span("demod"):
                demods.extend(receiver.demodulate(row) for row in tile)
    with span("score"):
        return [
            _score(demod, bits_from_bytes(bytes(payload)), scenario, theta)
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
