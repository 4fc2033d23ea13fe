"""Parallel campaign engine: determinism, caching and failure paths.

The contract under test is strong: the process-pool runner must be
*bit-identical* to the serial loop — same seeds, same float reduction
order — and the memoization layers must be pure speed, invisible in the
numbers they return.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.acoustics.noise import NoiseConditions, total_noise_psd_db
from repro.core import Scenario
from repro.dsp import noisegen
from repro.memo import clear_memos
from repro.obs import MetricsRegistry, SpanTracer, collect_spans
from repro.obs.ledger import Ledger, diff_manifests
from repro.obs.manifest import EventLog, read_events
from repro.obs.probes import probes
from repro.phy import preamble
from repro.phy.receiver import ReaderReceiver
from repro.sim import cache
from repro.sim.parallel import (
    default_workers,
    run_campaign_parallel,
    run_observed_campaign,
    usable_cpus,
)
from repro.sim.results import BERPoint
from repro.sim.sweep import sweep_range
from repro.sim.trials import TrialCampaign
from repro.vanatta.node import VanAttaNode
from tests.test_sim_batched_parity import dfe_cell, dfe_receiver

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


def _run_fresh(code: str) -> str:
    """Stripped stdout of ``code`` run in a fresh interpreter on this
    checkout's ``repro``."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src, "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    return out.stdout.strip()


SCIPY_LOADED = (
    "sorted(m for m in __import__('sys').modules if m.split('.')[0] == 'scipy')"
)
"""Expression naming the SciPy modules an interpreter has loaded; it
needs no import, so a pool worker can ``eval`` it too."""

SIGTOOLS = "['scipy.signal._sigtools']"
"""The DC blocker's compiled IIR kernel: all that importing
:mod:`repro.dsp.filters` loads from SciPy."""


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

    def test_spawn_pool_workers_run_under_the_callers_probe_mode(self):
        scenarios = sweep_range(Scenario.river(), RANGES)
        campaign = TrialCampaign(trials_per_point=2, seed=5)
        checks = {}
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
            for mode in ("off", "count"):
                for workers in (1, 2):
                    metrics = MetricsRegistry()
                    with probes(mode):
                        run_campaign_parallel(
                            scenarios, campaign, workers=workers,
                            pool=pool if workers > 1 else None,
                            metrics=metrics,
                        )
                    checks[mode, workers] = metrics.counters.get(
                        "repro.obs.probes.checks", 0
                    )
        assert checks["off", 1] == checks["off", 2] == 0
        assert checks["count", 1] == checks["count", 2] > 0

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
        # Stages run once per record tile (a 2-trial point is one), not
        # per trial.
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
        # Batched engine: one batch span per point; per point, one demod
        # span per record tile (a 6-trial point is one tile) and one for
        # the per-point finish.
        assert serial_tracer.counts[("point", "batch")] == 2
        assert serial_tracer.counts[("point", "batch", "demod")] == 4

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
        # once per record tile (a 6-trial point is one).
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
        _, serial = run_observed_campaign(
            scenarios, campaign, workers=1, progress=False
        )
        _, pooled = run_observed_campaign(
            scenarios, campaign, workers=2, progress=False
        )
        # Relabelled: still one key.
        _, relabelled = run_observed_campaign(
            scenarios, campaign, label="other", workers=1, progress=False
        )
        for other in (pooled, relabelled):
            diff = diff_manifests(serial, other)
            assert diff["same_key"]
            assert diff["config"] == diff["scenarios"] == diff["metrics"] == []
        assert set(pooled.timings) == set(serial.timings)
        assert "point/batch/demod" in serial.timings


class TestUsableCpus:
    def test_affinity_mask_sets_workers(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert usable_cpus() == 1
        assert default_workers() == 1

    def test_cpu_count_where_there_is_no_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert usable_cpus() == 3
        assert default_workers() == 3


class TestOneThreadPerPoint:
    def test_a_serial_point_starts_no_thread(self):
        # Two record tiles of 32 rows: the point runs on this thread.
        before = threading.active_count()
        result = run_campaign_parallel(
            [Scenario.river(200.0)],
            TrialCampaign(trials_per_point=64, seed=3),
            workers=1,
        )
        assert result.total_trials == 64
        assert threading.active_count() == before


class TestProcessRoles:
    """No process loads the ``scipy.signal`` package. Importing
    :mod:`repro.dsp.filters` (so the runner and the link budget too)
    loads only SciPy's compiled IIR kernel, ``scipy.signal._sigtools``,
    which is all a point needs; ``scipy.special`` loads on the first
    call of ``q_inverse``. Importing ``repro``, the observability layer
    or the CLI loads no SciPy."""

    def test_non_demodulating_modules_load_no_scipy_package(self):
        code = (
            "import repro, repro.obs, repro.cli\n"
            f"print({SCIPY_LOADED})\n"
            "import repro.sim, repro.sim.parallel, repro.sim.linkbudget\n"
            "import repro.sim.confidence\n"
            f"print({SCIPY_LOADED})\n"
        )
        assert _run_fresh(code).splitlines() == ["[]", SIGTOOLS]

    def test_a_river_point_loads_only_the_iir_kernel_from_scipy(self):
        """Run serially and in a spawn-pool worker, a river point loads
        nothing of SciPy beyond the kernel that importing the runner
        already loaded."""
        code = (
            "import multiprocessing\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from repro.sim.parallel import run_campaign_parallel\n"
            "from repro.sim.scenario import Scenario\n"
            "from repro.sim.sweep import sweep_range\n"
            "from repro.sim.trials import TrialCampaign\n"
            "scenarios = sweep_range(Scenario.river(), [50.0])\n"
            "campaign = TrialCampaign(trials_per_point=2, seed=5)\n"
            "spawn = multiprocessing.get_context('spawn')\n"
            "with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:\n"
            "    run_campaign_parallel(scenarios, campaign, workers=2, pool=pool)\n"
            f"    worker = pool.submit(eval, {SCIPY_LOADED!r}).result()\n"
            "run_campaign_parallel(scenarios, campaign, workers=1)\n"
            f"print(worker, {SCIPY_LOADED})\n"
        )
        assert _run_fresh(code) == f"{SIGTOOLS} {SIGTOOLS}"

    def test_a_pool_parent_loads_only_the_iir_kernel_and_matches_serial(self):
        code = (
            "import multiprocessing\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from repro.sim.parallel import run_campaign_parallel, run_observed_campaign\n"
            "from repro.sim.scenario import Scenario\n"
            "from repro.sim.sweep import sweep_range\n"
            "from repro.sim.trials import TrialCampaign\n"
            "scenarios = sweep_range(Scenario.river(), [50.0, 330.0])\n"
            "campaign = TrialCampaign(trials_per_point=2, seed=5)\n"
            "spawn = multiprocessing.get_context('spawn')\n"
            "with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:\n"
            "    pooled, _ = run_observed_campaign(\n"
            "        scenarios, campaign, workers=2, pool=pool, progress=False)\n"
            f"loaded = {SCIPY_LOADED}\n"
            "serial = run_campaign_parallel(scenarios, campaign, workers=1)\n"
            "print(loaded, pooled.points == serial.points, len(serial.points))\n"
        )
        assert _run_fresh(code) == f"{SIGTOOLS} True 2"

    def test_q_inverse_loads_scipy_special_on_its_first_call(self):
        code = (
            "import sys\n"
            "from repro.phy.ber import q_inverse, required_snr_db\n"
            f"before = {SCIPY_LOADED}\n"
            "values = [q_inverse(1e-3), q_inverse(0.25), required_snr_db(1e-3)]\n"
            "print(before, 'scipy.special' in sys.modules,\n"
            "      'scipy.signal' in sys.modules, *map(repr, values))\n"
        )
        assert _run_fresh(code).split() == [
            SIGTOOLS, "True", "False",
            "3.0902323061678136", "0.6744897501960818", "9.79982256904398",
        ]


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
        noisegen._shaping_amplitude.clear()
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
        memo = noisegen._shaping_amplitude
        memo.clear()
        rng = np.random.default_rng(0)
        noisegen.colored_noise(2048, 192_000.0, NoiseConditions().psd_db, 18_500.0, rng)
        entries_after_first = memo.info()[2]
        noisegen.colored_noise(2048, 192_000.0, NoiseConditions().psd_db, 18_500.0, rng)
        assert entries_after_first == memo.info()[2] == 1
        assert memo.info()[:2] == (1, 1)


class TestWarmCachesEqualCold:
    @pytest.mark.parametrize(
        "scenario,options",
        [
            (Scenario.river(330.0), {}),
            (Scenario.ocean(100.0), {}),
            (Scenario.ocean(100.0, sea_state=1), {}),
            (Scenario.ocean(100.0, sea_state=5), {}),
            # E16's multipath cell: the DFE chain demodulates per row.
            (dfe_cell(), {"receiver_factory": dfe_receiver}),
        ],
        ids=["river", "ocean", "ocean-ss1", "ocean-ss5", "dfe-e16"],
    )
    def test_a_point_from_warm_memos_equals_one_from_cleared_memos(
        self, scenario, options
    ):
        campaign = TrialCampaign(trials_per_point=40, seed=7, **options)
        campaign.run_trials(scenario, 0)
        with collect_spans() as warm_spans:
            warm = campaign.run_trials(scenario, 0)
        clear_memos()
        assert preamble.preamble_template.info()[2] == 0
        with collect_spans() as cold_spans:
            cold = campaign.run_trials(scenario, 0)
        assert len(warm) == 40
        assert warm == cold
        # A memo miss records no spans, so the cold point records the
        # warm one's span paths, as many times each.
        assert cold_spans.counts == warm_spans.counts
