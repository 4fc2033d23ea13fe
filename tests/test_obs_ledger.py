"""Tests for the content-addressed run ledger (repro.obs.ledger)."""

import json
import os

import pytest

from repro.obs.ledger import (
    Ledger,
    diff_manifests,
    ledger_rows,
    render_diff,
    render_ledger,
    run_id,
    run_key,
)
from repro.obs.manifest import RunManifest
from repro.sim.parallel import run_observed_campaign
from repro.sim.scenario import Scenario
from repro.sim.sweep import sweep_range
from repro.sim.trials import TrialCampaign


def make_manifest(label="a", seed=7, ber=0.1, range_m=50.0, elapsed=1.0,
                  workers=1, trials=5):
    return RunManifest(
        label=label,
        seed=seed,
        version="1.0",
        created_unix=1000.0 + elapsed,
        elapsed_s=elapsed,
        workers=workers,
        campaign={"trials_per_point": trials, "engine": "auto"},
        scenarios=[{"range_m": range_m, "water": {"depth_m": 4.0}}],
        timings={"campaign": {"total_s": elapsed, "count": 1,
                              "mean_ms": elapsed * 1e3}},
        metrics={"counters": {}},
        results={"points": [{"trials": trials, "ber": ber,
                             "frame_success_rate": 1.0 - ber,
                             "detection_rate": 1.0,
                             "mean_snr_db": 12.0, "range_m": range_m,
                             "incidence_deg": 0.0}]},
        engine_versions={"phy.batch": 1},
    )


class TestRunKey:
    def test_identical_configs_share_a_key(self):
        assert run_key(make_manifest(elapsed=1.0)) == run_key(
            make_manifest(elapsed=9.0)
        )

    def test_label_and_workers_do_not_change_the_key(self):
        base = run_key(make_manifest())
        assert run_key(make_manifest(label="other")) == base
        assert run_key(make_manifest(workers=8)) == base

    def test_scenario_seed_and_engine_changes_change_the_key(self):
        base = run_key(make_manifest())
        assert run_key(make_manifest(range_m=80.0)) != base
        assert run_key(make_manifest(seed=8)) != base
        changed = make_manifest()
        changed.engine_versions = {"phy.batch": 2}
        assert run_key(changed) != base

    def test_results_do_not_change_the_key_but_change_the_run_id(self):
        a, b = make_manifest(ber=0.1), make_manifest(ber=0.3)
        assert run_key(a) == run_key(b)
        assert run_id(a) != run_id(b)

    def test_run_id_ignores_volatile_telemetry(self):
        a, b = make_manifest(elapsed=1.0), make_manifest(elapsed=5.0)
        assert run_id(a) == run_id(b)


class TestLedgerStore:
    def test_record_files_manifest_under_key(self, tmp_path):
        ledger = Ledger(tmp_path)
        rec = ledger.record(make_manifest())
        assert rec.manifest_path.exists()
        assert rec.manifest_path.parent.name == rec.key
        assert not rec.duplicate
        assert ledger.load(rec.run_id).label == "a"

    def test_repeat_runs_share_key_and_both_index(self, tmp_path):
        ledger = Ledger(tmp_path)
        r1 = ledger.record(make_manifest(elapsed=1.0))
        r2 = ledger.record(make_manifest(elapsed=2.0))
        assert r1.key == r2.key and r1.run_id == r2.run_id
        assert r2.duplicate
        assert len(ledger.entries()) == 2
        rows = ledger_rows(ledger)
        assert len(rows) == 1 and rows[0]["runs"] == 2

    def test_distinct_configs_get_distinct_rows(self, tmp_path):
        ledger = Ledger(tmp_path)
        ledger.record(make_manifest())
        ledger.record(make_manifest(range_m=90.0))
        assert len(ledger_rows(ledger)) == 2
        listing = render_ledger(ledger)
        assert "2 configuration(s)" in listing

    def test_resolve_by_prefix_and_ambiguity(self, tmp_path):
        ledger = Ledger(tmp_path)
        r1 = ledger.record(make_manifest())
        r2 = ledger.record(make_manifest(range_m=90.0))
        assert ledger.resolve(r1.run_id[:6]).run_id == r1.run_id
        assert ledger.resolve(r2.key[:10]).run_id == r2.run_id
        with pytest.raises(KeyError):
            ledger.resolve("")
        with pytest.raises(KeyError):
            ledger.resolve("zzzz")

    def test_empty_ledger(self, tmp_path):
        ledger = Ledger(tmp_path / "missing")
        assert ledger.entries() == []
        assert "empty" in render_ledger(ledger)

    def test_torn_index_line_is_tolerated(self, tmp_path):
        ledger = Ledger(tmp_path)
        rec = ledger.record(make_manifest())
        with ledger.index_path.open("a") as fh:
            fh.write('{"ts": 1, "key": "abc')  # killed mid-write
        assert [e["run_id"] for e in ledger.entries()] == [rec.run_id]

    def test_events_are_copied_into_the_store(self, tmp_path):
        events_src = tmp_path / "run.events.jsonl"
        events_src.write_text('{"ts": 1, "event": "campaign_start"}\n')
        manifest = make_manifest()
        manifest.events_path = str(events_src)
        rec = Ledger(tmp_path / "led").record(manifest)
        assert rec.events_path is not None and rec.events_path.exists()
        events_src.unlink()  # the filed copy outlives the original
        assert rec.events_path.exists()

    def test_a_failed_manifest_write_leaves_nothing_to_mistake(
        self, tmp_path, monkeypatch
    ):
        ledger = Ledger(tmp_path)
        manifest = make_manifest()
        real_replace = os.replace
        calls = []

        def fails_once(src, dst):
            calls.append(dst)
            if len(calls) == 1:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", fails_once)
        with pytest.raises(OSError, match="disk full"):
            ledger.record(manifest)
        run_dir = tmp_path / "runs" / run_key(manifest)
        assert list(run_dir.iterdir()) == []  # no manifest, no temp file
        rec = ledger.record(manifest)
        assert not rec.duplicate
        assert rec.manifest_path.parent == run_dir
        assert ledger.load(rec.run_id) == manifest

    def test_env_var_selects_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VAB_LEDGER_DIR", str(tmp_path / "envled"))
        assert Ledger().root == tmp_path / "envled"


class TestDiff:
    def test_scenario_metric_and_timing_deltas(self):
        a = make_manifest(range_m=50.0, ber=0.1, elapsed=1.0)
        b = make_manifest(range_m=80.0, ber=0.2, elapsed=2.0)
        diff = diff_manifests(a, b)
        assert not diff["same_key"]
        fields = {d["field"] for d in diff["scenarios"]}
        assert "range_m" in fields
        metrics = {d["metric"]: d for d in diff["metrics"]}
        assert metrics["ber"]["delta"] == pytest.approx(0.1)
        assert any(t["stage"] == "campaign" for t in diff["timings"])
        text = render_diff(diff)
        assert "range_m" in text and "ber" in text and "campaign" in text

    def test_identical_runs_diff_clean(self):
        diff = diff_manifests(make_manifest(), make_manifest())
        assert diff["same_key"]
        assert not diff["scenarios"] and not diff["metrics"]
        assert "no differences" in render_diff(diff)

    def test_campaign_config_delta_reported(self):
        a = make_manifest(trials=5)
        b = make_manifest(trials=50)
        diff = diff_manifests(a, b)
        assert any(
            d["field"] == "campaign.trials_per_point" for d in diff["config"]
        )


class TestLedgerEndToEnd:
    @pytest.fixture(scope="class")
    def sweep_pair(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("ledger-e2e")
        ledger = Ledger(tmp / "store")
        scenarios = sweep_range(Scenario.river(), [50.0, 150.0])
        campaign = TrialCampaign(trials_per_point=2, seed=11)
        _, m1 = run_observed_campaign(
            scenarios, campaign, label="e2e", workers=1,
            ledger=ledger, progress=False,
        )
        _, m2 = run_observed_campaign(
            scenarios, campaign, label="e2e", workers=1,
            ledger=ledger, progress=False,
        )
        return ledger, m1, m2

    def test_same_sweep_twice_one_entry_two_runs(self, sweep_pair):
        ledger, m1, m2 = sweep_pair
        assert run_key(m1) == run_key(m2)
        rows = ledger_rows(ledger)
        assert len(rows) == 1
        assert rows[0]["runs"] == 2

    def test_manifest_records_engine_versions(self, sweep_pair):
        _, m1, _ = sweep_pair
        assert m1.engine_versions is not None
        assert "phy.batch" in m1.engine_versions
        assert "analysis.units" in m1.engine_versions

    def test_stored_manifest_loads_equal(self, sweep_pair):
        ledger, m1, _ = sweep_pair
        rec = ledger.resolve(run_key(m1)[:12])
        stored = json.loads(rec.manifest_path.read_text())
        assert stored["seed"] == m1.seed
        assert stored["results"] == m1.results
