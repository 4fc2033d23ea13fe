"""Parallel campaign engine: determinism, caching and failure paths.

The contract under test is strong: the process-pool runner must be
*bit-identical* to the serial loop — same seeds, same float reduction
order — and the memoization layers must be pure speed, invisible in the
numbers they return.
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.acoustics.noise import NoiseConditions, total_noise_psd_db
from repro.core import Scenario
from repro.dsp import noisegen
from repro.dsp.rowblocks import _budget_scope
from repro.obs import MetricsRegistry, SpanTracer
from repro.obs.ledger import Ledger, diff_manifests
from repro.obs.manifest import EventLog, read_events
from repro.phy.receiver import ReaderReceiver
from repro.sim import cache
from repro.sim.parallel import run_campaign_parallel, run_observed_campaign
from repro.sim.results import BERPoint
from repro.sim.sweep import sweep_range
from repro.sim.trials import TrialCampaign
from repro.vanatta.node import VanAttaNode

RANGES = [50.0, 330.0]


class PointFailure(RuntimeError):
    """Raised by :func:`fails_past_300m` (module level, so it pickles)."""


def fails_past_300m(scenario):
    """A receiver factory that cannot build a receiver beyond 300 m."""
    if scenario.range_m > 300.0:
        raise PointFailure(f"no receiver at {scenario.range_m:.0f} m")
    return ReaderReceiver.for_scenario(scenario)


def dies_past_300m(scenario):
    """A receiver factory whose pool worker exits hard beyond 300 m."""
    if scenario.range_m > 300.0 and multiprocessing.parent_process() is not None:
        os._exit(1)
    return ReaderReceiver.for_scenario(scenario)


def _uncached(instruments: dict) -> dict:
    """Instruments without the process-local channel-cache split."""
    return {
        k: v for k, v in instruments.items()
        if not k.startswith("repro.sim.cache.")
    }


def _event_names(path) -> list:
    return [e["event"] for e in read_events(path) if e["event"] != "heartbeat"]


class TestParallelDeterminism:
    def test_parallel_bit_identical_to_serial(self):
        scenarios = sweep_range(Scenario.river(), RANGES)
        campaign = TrialCampaign(trials_per_point=8, seed=2023)
        serial = run_campaign_parallel(
            scenarios, campaign, label="det", workers=1
        )
        parallel = run_campaign_parallel(
            scenarios, campaign, label="det", workers=4
        )
        # Not "close" — identical. Same spawned seeds, same trial order,
        # same reduction order in BERPoint.from_trials.
        assert parallel.points == serial.points

    def test_workers_one_matches_serial_runner(self):
        scenarios = sweep_range(Scenario.river(), RANGES)
        campaign = TrialCampaign(trials_per_point=4, seed=7)
        points = [
            campaign.run_point(scenario, point_index=i)
            for i, scenario in enumerate(scenarios)
        ]
        inproc = run_campaign_parallel(scenarios, campaign, workers=1)
        assert inproc.points == points

    def test_non_picklable_campaign_falls_back_to_serial(self):
        scenarios = sweep_range(Scenario.river(), [50.0])
        campaign = TrialCampaign(
            trials_per_point=3, seed=5, node_factory=lambda: VanAttaNode()
        )
        serial = run_campaign_parallel(scenarios, campaign, workers=1)
        fallback = run_campaign_parallel(scenarios, campaign, workers=4)
        assert fallback.points == serial.points

    def test_non_picklable_campaign_with_a_pool_falls_back_too(self):
        scenarios = sweep_range(Scenario.river(), [50.0])
        campaign = TrialCampaign(
            trials_per_point=3, seed=5, node_factory=lambda: VanAttaNode()
        )
        serial = run_campaign_parallel(scenarios, campaign, workers=1)
        metrics = MetricsRegistry()
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
            pooled = run_campaign_parallel(
                scenarios, campaign, workers=2, pool=pool, metrics=metrics
            )
        assert pooled.points == serial.points
        assert metrics.gauges["repro.sim.parallel.workers"] == 1

    def test_manifest_records_the_effective_worker_count(self, tmp_path):
        scenarios = sweep_range(Scenario.river(), [50.0])
        campaign = TrialCampaign(
            trials_per_point=2, seed=5, node_factory=lambda: VanAttaNode()
        )
        events_path = tmp_path / "events.jsonl"
        _, manifest = run_observed_campaign(
            scenarios, campaign, workers=4, events_path=events_path,
            progress=False,
        )
        start = [
            e for e in read_events(events_path)
            if e["event"] == "campaign_start"
        ]
        assert manifest.workers == start[0]["workers"] == 1

    def test_sliced_trials_reassemble_to_the_full_point(self):
        scenario = Scenario.river().at_range(150.0)
        campaign = TrialCampaign(trials_per_point=6, seed=11)
        whole = campaign.run_point(scenario, point_index=0)
        parts = campaign.run_trials(scenario, 0, 0, 2) + campaign.run_trials(
            scenario, 0, 2, None
        )
        assert BERPoint.from_trials(parts) == whole

    def test_stage_timings_cover_the_engine_stages(self):
        scenarios = sweep_range(Scenario.river(), [50.0])
        tracer = SpanTracer()
        run_campaign_parallel(
            scenarios, TrialCampaign(trials_per_point=2, seed=1),
            workers=1, tracer=tracer,
        )
        totals, counts = tracer.leaf_totals()
        # Stages run once per point batch, not per trial.
        for stage in ("batch", "channel", "reflect", "noise", "demod"):
            assert counts[stage] >= 1
            assert totals[stage] >= 0.0

    def test_telemetry_does_not_perturb_results(self):
        scenarios = sweep_range(Scenario.river(), RANGES)
        campaign = TrialCampaign(trials_per_point=6, seed=2023)
        bare = run_campaign_parallel(
            scenarios, campaign, label="obs", workers=1
        )
        tracer = SpanTracer()
        metrics = MetricsRegistry()
        observed = run_campaign_parallel(
            scenarios, campaign, label="obs", workers=4,
            tracer=tracer, metrics=metrics,
        )
        # Full telemetry on, fanned out over 4 workers: still identical.
        assert observed.points == bare.points

    def test_worker_merged_spans_match_serial_counts(self):
        scenarios = sweep_range(Scenario.river(), RANGES)
        campaign = TrialCampaign(trials_per_point=6, seed=17)
        serial_tracer = SpanTracer()
        run_campaign_parallel(
            scenarios, campaign, workers=1, tracer=serial_tracer
        )
        parallel_tracer = SpanTracer()
        run_campaign_parallel(
            scenarios, campaign, workers=4, tracer=parallel_tracer
        )
        # Wall-clocks differ across processes, but the counts — how many
        # times each span path ran — must agree path for path.
        assert parallel_tracer.counts == serial_tracer.counts
        # Batched engine: one batch span per point, stages per batch.
        assert serial_tracer.counts[("point", "batch")] == 2
        assert serial_tracer.counts[("point", "batch", "demod")] == 2

    def test_per_row_demod_runs_inside_one_batch_per_point(self):
        scenarios = sweep_range(Scenario.river(), RANGES)
        campaign = TrialCampaign(
            trials_per_point=6, seed=17,
            receiver_factory=lambda sc: ReaderReceiver.for_scenario(
                sc, rake_taps=2
            ),
        )
        tracer = SpanTracer()
        run_campaign_parallel(scenarios, campaign, workers=1, tracer=tracer)
        _, counts = tracer.leaf_totals()
        # Rows demodulate one at a time, but channel and noise still run
        # once per point.
        for stage in ("batch", "channel", "noise", "demod"):
            assert counts[stage] == (2 if stage != "channel" else 4)
        assert "trial" not in counts

    def test_parallel_metrics_match_serial_totals(self):
        cache.clear_channel_cache()
        scenarios = sweep_range(Scenario.river(), RANGES)
        campaign = TrialCampaign(trials_per_point=4, seed=3)
        serial_metrics = MetricsRegistry()
        run_campaign_parallel(
            scenarios, campaign, workers=1, metrics=serial_metrics
        )
        parallel_metrics = MetricsRegistry()
        run_campaign_parallel(
            scenarios, campaign, workers=2, metrics=parallel_metrics
        )
        assert serial_metrics.counters["repro.phy.receiver.demods"] >= 8
        assert _uncached(parallel_metrics.counters) == _uncached(
            serial_metrics.counters
        )
        assert parallel_metrics.counters["repro.sim.parallel.chunks"] == 2
        assert serial_metrics.gauges["repro.sim.parallel.workers"] == 1
        assert parallel_metrics.gauges["repro.sim.parallel.workers"] == 2

    def test_serial_and_pool_runs_record_the_same_telemetry(self, tmp_path):
        scenarios = sweep_range(Scenario.river(), RANGES)
        campaign = TrialCampaign(trials_per_point=6, seed=29)
        runs = {}
        for workers in (1, 2):
            tracer, metrics = SpanTracer(), MetricsRegistry()
            events_path = tmp_path / f"w{workers}.events.jsonl"
            events = EventLog(events_path)
            try:
                result = run_campaign_parallel(
                    scenarios, campaign, workers=workers,
                    tracer=tracer, metrics=metrics, events=events,
                )
            finally:
                events.close()
            runs[workers] = (result, tracer, metrics, events_path)
        (serial, s_tracer, s_metrics, s_events) = runs[1]
        (pooled, p_tracer, p_metrics, p_events) = runs[2]
        assert pooled.points == serial.points
        assert p_tracer.counts == s_tracer.counts
        assert _uncached(p_metrics.counters) == _uncached(s_metrics.counters)
        assert set(p_metrics.gauges) == set(s_metrics.gauges)
        assert _event_names(p_events) == _event_names(s_events) == [
            "campaign_start",
            "chunk_done", "point_end",
            "chunk_done", "point_end",
            "campaign_end",
        ]
        for path in (s_events, p_events):
            timed = [
                e for e in read_events(path)
                if e["event"] in ("chunk_done", "point_end")
            ]
            assert all(e["elapsed_s"] > 0 for e in timed)
            assert "start" not in timed[0]

    def test_obs_diff_pairs_a_serial_and_a_pool_run(self):
        scenarios = sweep_range(Scenario.river(), RANGES)
        campaign = TrialCampaign(trials_per_point=4, seed=31)
        with _budget_scope(1):
            _, serial = run_observed_campaign(
                scenarios, campaign, workers=1, progress=False
            )
        _, pooled = run_observed_campaign(
            scenarios, campaign, workers=2, progress=False
        )
        # Relabelled, with twice the row-block budget: still one key.
        with _budget_scope(2):
            _, relabelled = run_observed_campaign(
                scenarios, campaign, label="other", workers=1,
                progress=False,
            )
        gauges = [
            m.metrics["gauges"]["repro.sim.parallel.row_threads"]
            for m in (serial, relabelled)
        ]
        assert gauges == [1, 2]
        for other in (pooled, relabelled):
            diff = diff_manifests(serial, other)
            assert diff["same_key"]
            assert diff["config"] == diff["scenarios"] == diff["metrics"] == []
        assert set(pooled.timings) == set(serial.timings)
        assert "point/batch/demod" in serial.timings


class TestFailurePaths:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failing_point_is_named_and_not_recorded(self, tmp_path, workers):
        scenarios = sweep_range(Scenario.river(), RANGES)
        campaign = TrialCampaign(
            trials_per_point=2, seed=5, receiver_factory=fails_past_300m
        )
        events_path = tmp_path / "events.jsonl"
        manifest_path = tmp_path / "run.manifest.json"
        ledger = Ledger(tmp_path / "ledger")
        with pytest.raises(PointFailure, match="no receiver at 330 m"):
            run_observed_campaign(
                scenarios, campaign, workers=workers, progress=False,
                events_path=events_path, manifest_path=manifest_path,
                ledger=ledger,
            )
        events = [e for e in read_events(events_path) if e["event"] != "heartbeat"]
        assert [e["event"] for e in events] == [
            "campaign_start", "chunk_done", "point_end", "point_failed",
        ]
        assert events[-1]["point"] == 1
        assert events[-1]["error"].startswith("PointFailure(")
        assert not manifest_path.exists()
        assert ledger.entries() == []

    def test_a_killed_worker_breaks_the_run_and_records_nothing(self, tmp_path):
        scenarios = sweep_range(Scenario.river(), RANGES)
        campaign = TrialCampaign(
            trials_per_point=2, seed=5, receiver_factory=dies_past_300m
        )
        events_path = tmp_path / "events.jsonl"
        manifest_path = tmp_path / "run.manifest.json"
        ledger = Ledger(tmp_path / "ledger")
        with pytest.raises(BrokenProcessPool):
            run_observed_campaign(
                scenarios, campaign, workers=2, progress=False,
                events_path=events_path, manifest_path=manifest_path,
                ledger=ledger,
            )
        # A broken pool fails every pending point, so which index the
        # failure lands on is not fixed; that it is logged is.
        events = read_events(events_path)
        failed = [e for e in events if e["event"] == "point_failed"]
        assert failed and "BrokenProcessPool" in failed[0]["error"]
        assert "campaign_end" not in [e["event"] for e in events]
        assert not manifest_path.exists()
        assert ledger.entries() == []


class TestChannelCache:
    def test_cached_taps_equal_fresh_computation(self):
        scenario = Scenario.river().at_range(250.0)
        cache.clear_channel_cache()
        cached = cache.reader_node_response(scenario)
        fresh = scenario.channel().between(
            scenario.reader.position, scenario.node.position
        )
        assert len(cached.paths) == len(fresh.paths)
        for a, b in zip(cached.paths, fresh.paths):
            assert a.delay_s == b.delay_s
            assert a.gain == b.gain
            assert a.surface_bounces == b.surface_bounces

    def test_second_lookup_is_a_hit_returning_the_same_object(self):
        scenario = Scenario.river().at_range(250.0)
        cache.clear_channel_cache()
        first = cache.reader_node_response(scenario)
        hits0, misses0, entries0, _ = cache.channel_cache_info()
        # An equal-by-value but distinct scenario object shares the entry.
        again = cache.reader_node_response(Scenario.river().at_range(250.0))
        hits1, misses1, entries1, _ = cache.channel_cache_info()
        assert again is first
        assert (hits1, misses1, entries1) == (hits0 + 1, misses0, entries0)

    def test_clear_invalidates(self):
        scenario = Scenario.river().at_range(120.0)
        cache.clear_channel_cache()
        first = cache.reader_node_response(scenario)
        cache.clear_channel_cache()
        assert cache.channel_cache_info()[:3] == (0, 0, 0)
        retraced = cache.reader_node_response(scenario)
        assert retraced is not first


class TestNoiseShapingCache:
    def test_vectorized_psd_matches_scalar_wenz(self):
        conditions = NoiseConditions()
        freqs = np.linspace(100.0, 40_000.0, 257)
        vectorized = conditions.psd_db_array(freqs)
        pointwise = np.array([total_noise_psd_db(f, conditions) for f in freqs])
        np.testing.assert_allclose(vectorized, pointwise, rtol=1e-12)

    def test_cached_noise_bitwise_matches_pointwise_path(self):
        conditions = NoiseConditions()
        n, fs, carrier = 4096, 192_000.0, 18_500.0
        noisegen.clear_noise_cache()
        cached = noisegen.colored_noise(
            n, fs, conditions.psd_db, carrier, np.random.default_rng(3)
        )
        calls = []

        def scalar_only_psd_db(frequency_hz):
            # float() rejects arrays, so this fresh (cache-missing)
            # callable forces noisegen's per-frequency loop.
            calls.append(frequency_hz)
            return conditions.psd_db(float(frequency_hz))

        pointwise = noisegen.colored_noise(
            n, fs, scalar_only_psd_db, carrier, np.random.default_rng(3)
        )
        assert len(calls) == n + 1  # one rejected array call, then per bin
        np.testing.assert_allclose(cached, pointwise, rtol=1e-10)

    def test_shaping_filter_is_reused_across_equal_conditions(self):
        noisegen.clear_noise_cache()
        rng = np.random.default_rng(0)
        noisegen.colored_noise(2048, 192_000.0, NoiseConditions().psd_db, 18_500.0, rng)
        entries_after_first, _ = noisegen.noise_cache_info()
        noisegen.colored_noise(2048, 192_000.0, NoiseConditions().psd_db, 18_500.0, rng)
        entries_after_second, _ = noisegen.noise_cache_info()
        assert entries_after_first == entries_after_second == 1
