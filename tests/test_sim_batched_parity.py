"""The one trial pipeline: frozen goldens and per-row = batched.

Every trial runs through :func:`repro.sim.engine.simulate_point_batch`;
:func:`~repro.sim.engine.simulate_trial` is its 1-row call. Two
invariants keep that pipeline honest:

* **Goldens.** ``tests/data/trial_goldens.json`` holds the exact
  ``TrialResult`` fields (floats as ``repr``) that the former scalar
  per-trial engine produced for a matrix of scenarios, payload sizes, SI
  settings, node subclasses and receive chains — including the rake and
  DFE chains that demodulate row by row. The pipeline must reproduce it
  bit for bit.
* **Per-row = batched.** A loop of 1-row ``simulate_trial`` calls, a
  whole-point ``run_trials``, any sub-batch split of the point, any
  record tiling of it (``engine.TILE_ROWS``) and any rows batched in
  front of it agree field for field.

Regenerate the fixture (``python tests/test_sim_batched_parity.py``)
only for a deliberate, versioned results break.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.conventional_array import ConventionalNode
from repro.baselines.pab import pab_switch
from repro.core import Scenario
from repro.geometry.placement import Pose
from repro.geometry.vec3 import Vec3
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.phy.coding import LineCode
from repro.phy.fec import FECScheme
from repro.phy.frame import FrameConfig
from repro.phy.receiver import ReaderReceiver
from repro.sim import engine
from repro.sim.engine import simulate_point_batch, simulate_trial
from repro.sim.parallel import run_campaign_parallel
from repro.sim.results import BERPoint
from repro.sim.sweep import sweep_range
from repro.sim.trials import TrialCampaign
from repro.vanatta.array import VanAttaArray
from repro.vanatta.node import VanAttaNode

GOLDENS = Path(__file__).resolve().parent / "data" / "trial_goldens.json"
TRIALS = 6
SEED = 2023


class PabNode(VanAttaNode):
    """A PAB node as a subclass: the engine calls its overrides once per
    record tile, on ``(rows, ...)`` blocks."""

    def modulation_waveform(self, chips, samples_per_chip, fs=None):
        return super().modulation_waveform(chips, samples_per_chip, fs)

    def reflect(self, incident, modulation, frequency_hz, theta_deg,
                sound_speed=1500.0):
        return super().reflect(
            incident, modulation, frequency_hz, theta_deg, sound_speed
        )


def pab_subclass_node():
    return PabNode(
        array=VanAttaArray.uniform(num_elements=1), switch=pab_switch()
    )


def conventional_node():
    return ConventionalNode(array=VanAttaArray.uniform(4))


def rake_receiver(scenario):
    return ReaderReceiver.for_scenario(scenario, rake_taps=2)


def dfe_receiver(scenario):
    return ReaderReceiver.for_scenario(
        scenario, equalizer_taps=24, timing_search=4
    )


def dfe_cell():
    """E16's (200 m, quarter-depth) cell: 6 m column, two bounces."""
    base = Scenario.river(range_m=200.0)
    return dataclasses.replace(
        base,
        water=dataclasses.replace(base.water, depth_m=6.0),
        reader=Pose(Vec3(0.0, 0.0, 1.5)),
        node=Pose(Vec3(200.0, 0.0, 1.5), 180.0),
        max_bounces=2,
        name="multipath-eq",
    )


CASES = {
    "river-100": (lambda: Scenario.river(100.0), {}),
    "river-330": (lambda: Scenario.river(330.0), {}),
    # Past the range limit: bit errors and missed preambles get scored.
    "river-450": (lambda: Scenario.river(450.0), {}),
    "ocean-100": (lambda: Scenario.ocean(100.0), {}),
    "default": (Scenario, {}),
    "payload-4": (lambda: Scenario.river(150.0), {"payload_bytes": 4}),
    "payload-16": (lambda: Scenario.river(150.0), {"payload_bytes": 16}),
    "si-none": (lambda: Scenario.river(250.0), {"si_suppression_db": None}),
    "drift": (
        lambda: dataclasses.replace(
            Scenario.river(200.0), platform_drift_mps=0.6
        ),
        {},
    ),
    "pab-subclass": (
        lambda: Scenario.river(15.0),
        {"node_factory": pab_subclass_node, "si_suppression_db": 95.0},
    ),
    "conventional": (
        lambda: Scenario.river(150.0, node_heading_offset_deg=10.0),
        {"node_factory": conventional_node},
    ),
    "rake-2": (lambda: Scenario.river(100.0), {"receiver_factory": rake_receiver}),
    "dfe-e16": (dfe_cell, {"receiver_factory": dfe_receiver}),
    # Non-default framing: E12's body FEC at its detected-but-erroring
    # range, repetition-3, the payload scrambler and the Miller line code.
    "e12-hamming74-il8": (
        lambda: Scenario.river(410.0),
        {"frame_config": FrameConfig(
            fec=FECScheme.HAMMING74, interleave_depth=8
        )},
    ),
    "repetition3": (
        lambda: Scenario.river(410.0),
        {"frame_config": FrameConfig(fec=FECScheme.REPETITION3)},
    ),
    "scramble": (
        lambda: Scenario.river(400.0),
        {"frame_config": FrameConfig(scramble=True)},
    ),
    "miller": (
        lambda: Scenario.river(330.0),
        {"frame_config": FrameConfig(line_code=LineCode.MILLER)},
    ),
}
NOISE_FREE = "noise-free"


def campaign_for(name, **overrides):
    _, options = CASES[name]
    return TrialCampaign(
        **{"trials_per_point": TRIALS, "seed": SEED, **options, **overrides}
    )


def per_row(scenario, campaign, include_noise=True, point_index=0):
    """The point's trials as a loop of 1-row ``simulate_trial`` calls."""
    node = campaign.node_factory()
    receiver = (
        campaign.receiver_factory(scenario)
        if campaign.receiver_factory is not None
        else ReaderReceiver.for_scenario(scenario, campaign.frame_config)
    )
    generators = [
        np.random.default_rng(s) for s in campaign.trial_seeds(point_index)
    ]
    results = []
    for rng in generators:
        payload = bytes(
            rng.integers(0, 256, size=campaign.payload_bytes, dtype=np.uint8)
        )
        results.append(
            simulate_trial(
                scenario, node=node, payload=payload, rng=rng,
                frame_config=campaign.frame_config, receiver=receiver,
                si_suppression_db=campaign.si_suppression_db,
                include_noise=include_noise,
            )
        )
    return results


def case_results(name):
    """What the golden records for one case, computed by the per-row loop."""
    if name == NOISE_FREE:
        return per_row(
            Scenario.river(100.0), campaign_for("river-100"),
            include_noise=False,
        )
    build, _ = CASES[name]
    return per_row(build(), campaign_for(name))


def encode(result):
    return {
        key: repr(value) if isinstance(value, float) else value
        for key, value in dataclasses.asdict(result).items()
    }


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())


class TestPipelineMatchesGoldens:
    @pytest.mark.parametrize("name", [*CASES, NOISE_FREE])
    def test_per_row_loop_reproduces_golden(self, goldens, name):
        assert [encode(r) for r in case_results(name)] == goldens[name]

    @pytest.mark.parametrize("name", list(CASES))
    def test_whole_point_reproduces_golden(self, goldens, name):
        build, _ = CASES[name]
        got = campaign_for(name).run_trials(build(), 0)
        assert [encode(r) for r in got] == goldens[name]

    def test_noise_free_whole_point_reproduces_golden(self, goldens):
        # Without noise the record is the channel output plus the leak,
        # still in the layout the Doppler stage returned; the demod must
        # not depend on that layout.
        campaign = campaign_for("river-100")
        generators = [
            np.random.default_rng(s) for s in campaign.trial_seeds(0)
        ]
        payloads = [
            bytes(rng.integers(0, 256, size=8, dtype=np.uint8))
            for rng in generators
        ]
        got = simulate_point_batch(
            Scenario.river(100.0), payloads, generators, include_noise=False,
        )
        assert [encode(r) for r in got] == goldens[NOISE_FREE]

    def test_goldens_cover_every_case(self, goldens):
        assert set(goldens) == {*CASES, NOISE_FREE}
        assert all(len(rows) == TRIALS for rows in goldens.values())


class TestBatchedMatchesPerTrial:
    @pytest.mark.parametrize(
        "scenario",
        [
            Scenario.river(100.0),
            Scenario.river(330.0),
            Scenario.ocean(100.0),
            Scenario(),
        ],
        ids=["river-100", "river-330", "ocean-100", "default"],
    )
    def test_named_scenarios(self, scenario):
        campaign = TrialCampaign(trials_per_point=TRIALS, seed=SEED)
        assert campaign.run_trials(scenario) == per_row(scenario, campaign)

    @pytest.mark.parametrize("payload_bytes", [4, 8, 16])
    def test_payload_sizes(self, payload_bytes):
        scenario = Scenario.river(150.0)
        campaign = TrialCampaign(
            trials_per_point=TRIALS, seed=SEED, payload_bytes=payload_bytes
        )
        assert campaign.run_trials(scenario) == per_row(scenario, campaign)

    @pytest.mark.parametrize("si_suppression_db", [130.0, None])
    def test_si_suppression_settings(self, si_suppression_db):
        scenario = Scenario.river(250.0)
        campaign = TrialCampaign(
            trials_per_point=TRIALS, seed=SEED,
            si_suppression_db=si_suppression_db,
        )
        assert campaign.run_trials(scenario) == per_row(scenario, campaign)

    def test_sub_batches_are_bitwise_invariant(self):
        # Any contiguous trial slice of a point must reproduce its share
        # of the whole point bit for bit, on the batched demod and the
        # per-row demod alike.
        for name in ("river-330", "drift", "pab-subclass", "rake-2", "dfe-e16"):
            build, _ = CASES[name]
            scenario = build()
            campaign = campaign_for(name)
            whole = campaign.run_trials(scenario, 0)
            split = (
                campaign.run_trials(scenario, 0, 0, 2)
                + campaign.run_trials(scenario, 0, 2, 5)
                + campaign.run_trials(scenario, 0, 5, TRIALS)
            )
            assert whole == split, name

    def test_full_campaign_matches(self):
        scenarios = sweep_range(Scenario.river(), [50.0, 330.0])
        campaign = TrialCampaign(trials_per_point=4, seed=11)
        whole = run_campaign_parallel(scenarios, campaign, workers=1)
        points = [
            BERPoint.from_trials(per_row(scenario, campaign, point_index=i))
            for i, scenario in enumerate(scenarios)
        ]
        assert whole.points == points


TILED_TRIALS = 70
"""A point of three default tiles (32 + 32 + 6 rows)."""

TILED_RANGE_M = 410.0
"""Near the range limit: every tile mixes clean, CRC-failed and missed
frames."""


TILED_CAMPAIGN = TrialCampaign(trials_per_point=TILED_TRIALS, seed=SEED)


@pytest.fixture(scope="module")
def tiled_river_loop():
    """The 70-trial river(410 m) point as a loop of 1-row calls."""
    return per_row(Scenario.river(TILED_RANGE_M), TILED_CAMPAIGN)


class TestTilesMatchPerTrial:
    def test_default_tiles_split_a_point_in_three(self):
        assert engine.TILE_ROWS == 32
        assert -(-TILED_TRIALS // engine.TILE_ROWS) == 3

    def test_three_tile_point_matches_the_loop(self, tiled_river_loop):
        got = TILED_CAMPAIGN.run_trials(Scenario.river(TILED_RANGE_M), 0)
        assert got == tiled_river_loop
        # The per-point finish joins tiles of mixed outcomes.
        assert {(r.detected, r.frame_ok) for r in got} == {
            (True, True), (True, False), (False, False)
        }

    @pytest.mark.parametrize("tile_rows", [1, 7, 32, 250])
    def test_any_tile_size_matches_the_loop(
        self, monkeypatch, tiled_river_loop, tile_rows
    ):
        monkeypatch.setattr(engine, "TILE_ROWS", tile_rows)
        got = TILED_CAMPAIGN.run_trials(Scenario.river(TILED_RANGE_M), 0)
        assert got == tiled_river_loop

    def test_dfe_point_demodulates_per_row_inside_tiles(self, monkeypatch):
        # 40 trials: a full tile and an 8-row one, each demodulated row
        # by row by the DFE chain.
        campaign = campaign_for("dfe-e16", trials_per_point=40)
        want = per_row(dfe_cell(), campaign)
        assert campaign.run_trials(dfe_cell(), 0) == want
        monkeypatch.setattr(engine, "TILE_ROWS", 7)
        assert campaign.run_trials(dfe_cell(), 0) == want

    @pytest.mark.parametrize("tile_rows", [1, 4])
    @pytest.mark.parametrize("name", list(CASES))
    def test_tiled_whole_point_reproduces_golden(
        self, monkeypatch, goldens, name, tile_rows
    ):
        monkeypatch.setattr(engine, "TILE_ROWS", tile_rows)
        build, _ = CASES[name]
        got = campaign_for(name).run_trials(build(), 0)
        assert [encode(r) for r in got] == goldens[name]


def fillers_into_tile(tile):
    """Rows to batch in front of a golden case's six so that they ride in
    the point's ``tile``-th record tile, behind 10 unrelated rows of it
    (42 for the second tile, 74 for the third)."""
    return (tile - 1) * engine.TILE_ROWS + 10


def golden_rows_last(name, fillers):
    """Run a golden case's trials behind ``fillers`` other rows and
    return the golden rows' encoded results."""
    if name == NOISE_FREE:
        scenario, campaign, include_noise = (
            Scenario.river(100.0), campaign_for("river-100"), False
        )
    else:
        build, _ = CASES[name]
        scenario, campaign, include_noise = build(), campaign_for(name), True
    rngs = [np.random.default_rng([SEED, 900 + t]) for t in range(fillers)]
    rngs += [np.random.default_rng(s) for s in campaign.trial_seeds(0)]
    payloads = [
        bytes(rng.integers(0, 256, size=campaign.payload_bytes, dtype=np.uint8))
        for rng in rngs
    ]
    receiver = (
        campaign.receiver_factory(scenario)
        if campaign.receiver_factory is not None
        else None
    )
    results = simulate_point_batch(
        scenario, payloads, rngs, node=campaign.node_factory(),
        frame_config=campaign.frame_config, receiver=receiver,
        si_suppression_db=campaign.si_suppression_db,
        include_noise=include_noise,
    )
    return [encode(r) for r in results[fillers:]]


class TestGoldensBehindFillerRows:
    @pytest.mark.parametrize("tile", [2, 3])
    @pytest.mark.parametrize("name", [*CASES, NOISE_FREE])
    def test_last_tile(self, goldens, name, tile):
        got = golden_rows_last(name, fillers_into_tile(tile))
        assert got == goldens[name]


class TestEngineDispatch:
    def test_custom_receiver_factory_falls_back(self):
        # A factory building a rake chain demodulates row by row; channel,
        # reflection and noise still run as one block.
        scenario = Scenario.river(100.0)
        campaign = campaign_for("rake-2")
        registry = MetricsRegistry()
        with use_registry(registry):
            got = campaign.run_trials(scenario, 0)
        assert got == per_row(scenario, campaign)
        assert registry.counters["repro.sim.trials.fallback_trials"] == TRIALS
        assert "repro.sim.trials.batched_trials" not in registry.counters
        assert "repro.phy.batch.batches" not in registry.counters

    def test_stock_receivers_run_the_batched_kernel(self):
        scenario = Scenario.river(100.0)
        campaign = TrialCampaign(trials_per_point=TRIALS, seed=3)
        registry = MetricsRegistry()
        with use_registry(registry):
            campaign.run_trials(scenario, 0, 0, TRIALS)
        assert registry.counters["repro.sim.trials.batched_trials"] == TRIALS
        assert "repro.sim.trials.fallback_trials" not in registry.counters
        assert registry.counters["repro.phy.batch.batches"] >= 1
        assert registry.gauges["repro.phy.batch.size"] == TRIALS

    def test_unsupported_receiver_falls_back_under_auto(self):
        scenario = dfe_cell()
        campaign = campaign_for("dfe-e16", trials_per_point=2)
        registry = MetricsRegistry()
        with use_registry(registry):
            campaign.run_trials(scenario, 0)
        assert registry.counters["repro.sim.trials.fallback_trials"] == 2
        assert "repro.sim.trials.batched_trials" not in registry.counters

    def test_custom_factory_with_stock_receiver_runs_batched(self):
        # Dispatch asks the receiver, not the factory: a custom factory
        # that builds a stock chain still runs the batched kernel.
        scenario = Scenario.river(100.0)
        stock = lambda sc: ReaderReceiver.for_scenario(sc)  # noqa: E731
        campaign = TrialCampaign(
            trials_per_point=2, seed=5, receiver_factory=stock
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            got = campaign.run_trials(scenario, 0)
        assert got == TrialCampaign(trials_per_point=2, seed=5).run_trials(
            scenario, 0
        )
        assert registry.counters["repro.sim.trials.batched_trials"] == 2
        assert "repro.sim.trials.fallback_trials" not in registry.counters


def write_goldens():
    """Record the current pipeline's results as the golden fixture."""
    data = {
        name: [encode(r) for r in case_results(name)]
        for name in [*CASES, NOISE_FREE]
    }
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_goldens()
