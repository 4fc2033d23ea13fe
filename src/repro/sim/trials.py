"""Seeded Monte-Carlo campaigns over the waveform simulator.

A campaign fixes everything except the RNG and runs ``n`` independent
trials per operating point, each point as one batch through
:func:`repro.sim.engine.simulate_point_batch`. Multi-point sweeps run
through :func:`repro.sim.parallel.run_campaign_parallel` (``workers=1``
for the serial in-process path). Seeding uses ``numpy.random.SeedSequence``
spawning, so campaigns are reproducible and every trial draws independent
noise/payloads — the same discipline the paper's 1,500-trial evaluation
needs to make BER-vs-range curves trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.obs.metrics import counter
from repro.obs.probes import probe_invariant, probe_mode
from repro.obs.spans import span
from repro.phy.batch import batch_supported
from repro.phy.frame import FrameConfig
from repro.phy.receiver import ReaderReceiver
from repro.sim.cache import reader_node_response
from repro.sim.engine import TrialResult, simulate_point_batch
from repro.sim.results import BERPoint
from repro.sim.scenario import Scenario
from repro.vanatta.node import VanAttaNode

BATCHED_TRIALS_COUNTER = counter(
    "repro.sim.trials.batched_trials",
    "trials demodulated by the batched kernel",
)
FALLBACK_TRIALS_COUNTER = counter(
    "repro.sim.trials.fallback_trials",
    "trials demodulated one row at a time (unsupported receive chains)",
)


def _probe_trial_accounting(results: Sequence[TrialResult]) -> None:
    """Runtime consistency probe over one slice of scored trials.

    A frame cannot pass CRC without detection, an undetected trial
    scores exactly BER 0.5 (the guessing convention), and every BER
    lies in [0, 1]. One pass per chunk — negligible next to the trials
    themselves.
    """
    if probe_mode() == "off" or not results:
        return
    bad = [
        r
        for r in results
        if (r.frame_ok and not r.detected)
        or (not r.detected and r.ber != 0.5)
        or not (0.0 <= r.ber <= 1.0)
    ]
    probe_invariant(
        "sim.trials.accounting",
        not bad,
        f"{len(bad)}/{len(results)} trials violate frame/BER accounting",
        stage="demod",
    )


@dataclass
class TrialCampaign:
    """Configuration for a Monte-Carlo campaign.

    Attributes:
        trials_per_point: independent trials per operating point.
        seed: master seed for the campaign.
        payload_bytes: payload size per frame.
        frame_config: PHY framing.
        node_factory: builds the node for each point (lets sweeps vary
            array size or switch design per point).
        si_suppression_db: reader residual-SI floor (see the engine).
        receiver_factory: builds the reader receive chain per scenario;
            None uses the engine's default (lets studies switch on the
            equaliser, rake, or custom thresholds). Chains the batched
            kernel does not support demodulate row by row inside the
            batched point pipeline.
    """

    trials_per_point: int = 25
    seed: int = 2023
    payload_bytes: int = 8
    frame_config: FrameConfig = field(default_factory=FrameConfig)
    node_factory: Callable[[], VanAttaNode] = VanAttaNode
    si_suppression_db: Optional[float] = 130.0
    receiver_factory: Optional[Callable[[Scenario], "object"]] = None

    def trial_seeds(self, point_index: int) -> List[np.random.SeedSequence]:
        """The spawned per-trial seed sequences for one operating point.

        Centralised so every execution strategy — a whole point, the
        process-pool runner in :mod:`repro.sim.parallel`, or a sliced
        re-run of a few trials — derives the *same* per-trial entropy
        and stays bit-identical.
        """
        seq = np.random.SeedSequence(entropy=(self.seed, point_index))
        return seq.spawn(self.trials_per_point)

    def run_trials(
        self,
        scenario: Scenario,
        point_index: int = 0,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> List[TrialResult]:
        """Run a contiguous slice of a point's trials.

        Per-point invariants (the node, the receive chain, the traced
        multipath response) are constructed once here and passed down:
        the seed engine rebuilt all three inside every trial, which is
        where most of a campaign's non-noise time went.
        """
        # Every trial's stream exists before the point runs, which keeps
        # the seeding contract in one visible place (VAB002).
        generators = [
            np.random.default_rng(child)
            for child in self.trial_seeds(point_index)[start:stop]
        ]
        node = self.node_factory()
        receiver = (
            self.receiver_factory(scenario)
            if self.receiver_factory is not None
            else ReaderReceiver.for_scenario(scenario, self.frame_config)
        )
        response = reader_node_response(scenario)
        with span("batch"):
            # Payloads draw first from each trial's stream, then the
            # point pipeline advances every stream through its noise.
            payloads = [
                bytes(rng.integers(0, 256, size=self.payload_bytes, dtype=np.uint8))
                for rng in generators
            ]
            results = simulate_point_batch(
                scenario,
                payloads,
                generators,
                node=node,
                frame_config=self.frame_config,
                receiver=receiver,
                si_suppression_db=self.si_suppression_db,
                response=response,
            )
        if batch_supported(receiver):
            BATCHED_TRIALS_COUNTER.inc(len(results))
        else:
            FALLBACK_TRIALS_COUNTER.inc(len(results))
        _probe_trial_accounting(results)
        return results

    def run_point(self, scenario: Scenario, point_index: int = 0) -> BERPoint:
        """Run all trials at one operating point and aggregate."""
        with span("point"):
            return BERPoint.from_trials(self.run_trials(scenario, point_index))

