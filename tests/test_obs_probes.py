"""Tests for runtime physics-invariant probes (repro.obs.probes)."""

import math

import numpy as np
import pytest

import repro.sim.engine as engine_module
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.probes import (
    ProbeViolation,
    peak_component,
    probe_finite,
    probe_invariant,
    probe_mode,
    probe_signal,
    probe_unit_interval,
    probes,
    set_probe_mode,
)
from repro.sim.scenario import Scenario
from repro.phy.receiver import ReaderReceiver
from repro.sim.parallel import run_campaign_parallel
from repro.sim.trials import TrialCampaign
from repro.vanatta.node import VanAttaNode


class TestModes:
    def test_default_mode_counts(self):
        assert probe_mode() in ("off", "count", "raise")

    def test_set_and_restore(self):
        previous = set_probe_mode("raise")
        try:
            assert probe_mode() == "raise"
        finally:
            set_probe_mode(previous)
        assert probe_mode() == previous

    def test_context_manager_restores_on_error(self):
        before = probe_mode()
        with pytest.raises(RuntimeError):
            with probes("off"):
                assert probe_mode() == "off"
                raise RuntimeError("boom")
        assert probe_mode() == before

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            set_probe_mode("loud")

    def test_off_mode_skips_checks(self):
        registry = MetricsRegistry()
        with use_registry(registry), probes("off"):
            assert probe_finite("t.off", np.array([np.nan]))
        assert registry.as_dict()["counters"] == {}


class TestPeakComponent:
    def test_real_array(self):
        assert peak_component(np.array([1.0, -3.0, 2.0])) == 3.0

    def test_complex_array_bounds_magnitude(self):
        x = np.array([3 + 4j, 1 - 2j])
        peak = peak_component(x)
        true_peak = float(np.max(np.abs(x)))
        assert peak <= true_peak <= peak * math.sqrt(2.0) + 1e-12

    def test_nan_and_inf_propagate(self):
        assert math.isnan(peak_component(np.array([1.0, np.nan])))
        assert math.isinf(peak_component(np.array([1.0 + 1j, np.inf + 0j])))

    def test_empty(self):
        assert peak_component(np.array([])) == 0.0


class TestProbePrimitives:
    def test_finite_passes_and_fails(self):
        with probes("raise"):
            assert probe_finite("t.fin", np.ones(4, dtype=np.complex128))
            with pytest.raises(ProbeViolation):
                probe_finite("t.fin", np.array([1.0, np.inf]))

    def test_count_mode_records_instead_of_raising(self):
        registry = MetricsRegistry()
        with use_registry(registry), probes("count"):
            assert not probe_finite("t.count", np.array([np.nan]))
        counters = registry.as_dict()["counters"]
        assert counters["repro.obs.probes.violations"] == 1
        assert counters["repro.obs.probes.t.count.violations"] == 1

    def test_level_ceiling(self):
        limit_db = 20.0  # amplitude 10
        quiet = np.full(8, 1.0 + 0j)
        loud = np.full(8, 1e3 + 0j)
        with probes("raise"):
            assert probe_signal("t.level", quiet, level_limit_db=limit_db)
            with pytest.raises(ProbeViolation) as err:
                probe_signal("t.level", loud, level_limit_db=limit_db)
        assert "exceeds limit" in str(err.value)

    def test_unit_interval(self):
        with probes("raise"):
            assert probe_unit_interval("t.ber", 0.0)
            assert probe_unit_interval("t.ber", 1.0)
            for bad in (-0.01, 1.01, float("nan")):
                with pytest.raises(ProbeViolation):
                    probe_unit_interval("t.ber", bad)

    def test_invariant(self):
        with probes("raise"):
            assert probe_invariant("t.inv", True, "fine")
            with pytest.raises(ProbeViolation) as err:
                probe_invariant("t.inv", False, "books do not balance",
                                stage="demod")
        assert err.value.stage == "demod"
        assert "books do not balance" in str(err.value)

    def test_attribution_picks_first_corrupt_stage(self):
        clean = np.ones(4)
        corrupt = np.array([1.0, np.nan, 1.0, 1.0])
        with probes("raise"):
            with pytest.raises(ProbeViolation) as err:
                probe_signal(
                    "t.attr", corrupt, stage="noise",
                    stage_arrays=(
                        ("channel", clean),
                        ("reflect", corrupt),
                        ("channel", corrupt),
                    ),
                )
        assert err.value.stage == "reflect"


def tiny_campaign(**kwargs):
    return TrialCampaign(trials_per_point=2, seed=21, **kwargs)


def run_one_point(campaign):
    return run_campaign_parallel(
        [Scenario.river(range_m=60.0)], campaign, workers=1
    )


class TestFaultInjection:
    """A NaN smuggled into the receive chain must be caught and blamed."""

    def test_nan_noise_is_caught_and_attributed_to_noise_stage(
        self, monkeypatch
    ):
        real = engine_module.colored_noise_batch

        def poisoned(*args, **kwargs):
            noise = real(*args, **kwargs)
            noise[..., noise.shape[-1] // 2] = np.nan
            return noise

        monkeypatch.setattr(engine_module, "colored_noise_batch", poisoned)
        with probes("raise"):
            with pytest.raises(ProbeViolation) as err:
                run_one_point(tiny_campaign())
        assert err.value.probe == "sim.engine.record"
        assert err.value.stage == "noise"

    def test_nan_white_noise_is_attributed_to_noise_stage(
        self, monkeypatch
    ):
        # The record is assembled in place; blaming "channel" here would
        # mean the noise was added into the channel output itself.
        real = engine_module.white_noise_batch

        def poisoned(*args, **kwargs):
            noise = real(*args, **kwargs)
            noise[..., noise.shape[-1] // 2] = np.nan
            return noise

        monkeypatch.setattr(engine_module, "white_noise_batch", poisoned)
        with probes("raise"):
            with pytest.raises(ProbeViolation) as err:
                run_one_point(tiny_campaign())
        assert err.value.probe == "sim.engine.record"
        assert err.value.stage == "noise"

    def test_nan_reflection_is_attributed_to_reflect_stage(
        self, monkeypatch
    ):
        real = VanAttaNode.reflect

        def poisoned(self, incident, modulation, *args, **kwargs):
            reflected = real(self, incident, modulation, *args, **kwargs)
            reflected = np.asarray(reflected, dtype=np.complex128).copy()
            reflected[..., 0] = np.nan
            return reflected

        monkeypatch.setattr(VanAttaNode, "reflect", poisoned)
        with probes("raise"):
            with pytest.raises(ProbeViolation) as err:
                run_one_point(tiny_campaign())
        assert err.value.probe == "sim.engine.record"
        assert err.value.stage == "reflect"

    def test_scalar_engine_catches_nan_too(self, monkeypatch):
        # A rake chain demodulates row by row; the record probe still
        # sees the whole block first.
        real = engine_module.colored_noise_batch

        def poisoned(*args, **kwargs):
            noise = real(*args, **kwargs)
            noise[..., noise.shape[-1] // 2] = np.nan
            return noise

        monkeypatch.setattr(engine_module, "colored_noise_batch", poisoned)
        rake = tiny_campaign(
            receiver_factory=lambda sc: ReaderReceiver.for_scenario(
                sc, rake_taps=2
            )
        )
        with probes("raise"):
            with pytest.raises(ProbeViolation) as err:
                run_one_point(rake)
        assert err.value.probe == "sim.engine.record"
        assert err.value.stage == "noise"

    def test_count_mode_surfaces_the_fault_as_metrics(self, monkeypatch):
        real = engine_module.colored_noise_batch

        def poisoned(*args, **kwargs):
            noise = real(*args, **kwargs)
            noise[..., 0] = np.nan
            return noise

        monkeypatch.setattr(engine_module, "colored_noise_batch", poisoned)
        registry = MetricsRegistry()
        with use_registry(registry), probes("count"):
            run_one_point(tiny_campaign())
        counters = registry.as_dict()["counters"]
        assert counters["repro.obs.probes.violations"] >= 1
        assert (
            counters["repro.obs.probes.sim.engine.record.violations"] >= 1
        )


class TestCleanRunsStayClean:
    def test_batched_campaign_raises_nothing_under_raise_mode(self):
        with probes("raise"):
            result = run_one_point(tiny_campaign())
        assert result.points[0].trials == 2

    def test_probes_do_not_change_results(self):
        with probes("off"):
            base = run_one_point(tiny_campaign())
        with probes("raise"):
            checked = run_one_point(tiny_campaign())
        assert [p.ber for p in base.points] == [
            p.ber for p in checked.points
        ]
        assert [p.mean_snr_db for p in base.points] == [
            p.mean_snr_db for p in checked.points
        ]
