"""Tests for the content-addressed run ledger (repro.obs.ledger)."""

import ast
import dataclasses
import enum
import functools
import importlib
import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.obs.ledger import (
    Ledger,
    diff_manifests,
    ledger_rows,
    render_diff,
    render_ledger,
    run_id,
    run_key,
)
from repro.obs.manifest import RunManifest, config_snapshot, scenario_snapshot
from repro.phy.frame import FrameConfig
from repro.phy.receiver import ReaderReceiver
from repro.sim.parallel import run_observed_campaign
from repro.sim.scenario import Scenario
from repro.sim.sweep import sweep_range
from repro.sim.trials import TrialCampaign
from repro.vanatta.array import VanAttaArray
from repro.vanatta.node import VanAttaNode

REPO_ROOT = Path(__file__).resolve().parent.parent


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


def file_distinct_manifests(root, writer, count):
    """File ``count`` manifests no other writer files (runs in a child)."""
    ledger = Ledger(root)
    for i in range(count):
        ledger.record(make_manifest(seed=writer * 10_000 + i))


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

    def test_run_id_prefix_shared_under_one_key_is_ambiguous(self, tmp_path):
        ledger = Ledger(tmp_path)
        key = None
        by_first: dict = {}
        clash = None
        for i in range(200):
            rec = ledger.record(make_manifest(ber=i / 1000.0))
            key = rec.key
            first = rec.run_id[0]
            if first in by_first and not key.startswith(first):
                clash = (first, by_first[first], rec.run_id)
                break
            by_first[first] = rec.run_id
        assert clash is not None
        prefix, older, newer = clash
        with pytest.raises(KeyError) as err:
            ledger.resolve(prefix)
        assert older in str(err.value) and newer in str(err.value)
        # A key prefix still resolves to the newest run.
        assert ledger.resolve(key[:8]).run_id == newer
        assert ledger.resolve(newer).run_id == newer

    def test_concurrent_writers_lose_no_index_line(self, tmp_path):
        writers = [
            multiprocessing.Process(
                target=file_distinct_manifests, args=(tmp_path, w, 50)
            )
            for w in range(3)
        ]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join(timeout=120)
        assert [proc.exitcode for proc in writers] == [0, 0, 0]
        lines = Ledger(tmp_path).index_path.read_text().splitlines()
        assert len(lines) == 150
        entries = [json.loads(line) for line in lines]
        assert len({e["run_id"] for e in entries}) == 150

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
        assert "phy.batch" in m1.engine_versions
        assert not [k for k in m1.engine_versions if k.startswith("analysis.")]

    def test_every_engine_version_constant_is_stamped(self, sweep_pair):
        _, m1, _ = sweep_pair
        constants = engine_version_constants()
        assert "phy.batch" in constants  # the walk reached the kernels
        for module, version in constants.items():
            assert m1.engine_versions.get(module) == version, module

    def test_stored_manifest_loads_equal(self, sweep_pair):
        ledger, m1, _ = sweep_pair
        rec = ledger.resolve(run_key(m1)[:12])
        stored = json.loads(rec.manifest_path.read_text())
        assert stored["seed"] == m1.seed
        assert stored["results"] == m1.results


def engine_version_constants():
    """Module (without ``repro.``) -> value of each module-level
    ``*_ENGINE_VERSION`` defined there, over every ``repro`` module
    outside the lint stack (each one is imported)."""
    root = Path(repro.__file__).resolve().parent
    found = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        if parts[0] == "analysis" or parts[-1] == "__main__":
            continue
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = importlib.import_module(".".join(("repro",) + parts))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id.endswith(
                    "_ENGINE_VERSION"
                ):
                    found[".".join(parts)] = getattr(module, target.id)
    return found


def observed_key(campaign, scenarios=None):
    _, manifest = run_observed_campaign(
        [Scenario.river()] if scenarios is None else scenarios,
        campaign, workers=1, progress=False,
    )
    return run_key(manifest)


def rake_receiver(scenario):
    return ReaderReceiver.for_scenario(scenario, rake_taps=2)


class TestRunIdentity:
    """The key covers the framing and nothing from the lint stack."""

    def test_framing_changes_the_key(self):
        plain = TrialCampaign(trials_per_point=4)
        longer = TrialCampaign(
            trials_per_point=4, frame_config=FrameConfig(preamble_repeats=4)
        )
        assert observed_key(plain) != observed_key(longer)

    def test_node_and_receiver_factories_change_the_key(self):
        scenarios = sweep_range(Scenario.river(), [450.0, 600.0])
        campaigns = [
            TrialCampaign(trials_per_point=4),
            TrialCampaign(
                trials_per_point=4,
                node_factory=functools.partial(
                    VanAttaNode, array=VanAttaArray.uniform(8)
                ),
            ),
            TrialCampaign(trials_per_point=4, receiver_factory=rake_receiver),
        ]
        keys = {observed_key(c, scenarios) for c in campaigns}
        assert len(keys) == 3

    def test_a_lint_engine_version_bump_keeps_the_key(self, monkeypatch):
        from repro.analysis import engines

        campaign = TrialCampaign(trials_per_point=4)
        before = observed_key(campaign)
        bumped = tuple(
            replace(e, version="9.9.9") if e.name == "effects" else e
            for e in engines.ENGINES
        )
        monkeypatch.setattr(engines, "ENGINES", bumped)
        assert observed_key(campaign) == before

    def test_campaign_runs_import_no_lint_module(self, tmp_path):
        script = (
            "import json, runpy, sys\n"
            "from repro.sim.parallel import run_observed_campaign\n"
            "from repro.sim.scenario import Scenario\n"
            "from repro.sim.trials import TrialCampaign\n"
            "run_observed_campaign([Scenario.river()],"
            " TrialCampaign(trials_per_point=2), workers=1, progress=False,"
            " ledger=sys.argv[1])\n"
            "sys.argv = ['repro', 'sweep', '--points', '2', '--trials', '2',"
            " '--no-progress', '--ledger', sys.argv[2]]\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit as done:\n"
            "    assert not done.code, done.code\n"
            "print(json.dumps(sorted("
            "m for m in sys.modules if m.startswith('repro.analysis'))))\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        proc = subprocess.run(
            [sys.executable, "-c", script,
             str(tmp_path / "api"), str(tmp_path / "cli")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []
        for store in ("api", "cli"):
            assert len(Ledger(tmp_path / store).entries()) == 1, store


def config_manifest(scenario, campaign):
    """The manifest a run of ``campaign`` at ``scenario`` would file,
    built without running a trial (the observations left empty)."""
    return RunManifest(
        label="config",
        seed=campaign.seed,
        version=repro.__version__,
        created_unix=0.0,
        elapsed_s=0.0,
        workers=1,
        campaign=campaign.snapshot(),
        scenarios=[scenario_snapshot(scenario)],
        engine_versions={"phy.batch": 1},
    )


def bumped(leaf):
    """``leaf`` changed, for a scalar leaf; None for anything else."""
    if isinstance(leaf, enum.Enum):
        members = list(type(leaf))
        return members[(members.index(leaf) + 1) % len(members)]
    if isinstance(leaf, bool):
        return not leaf
    if isinstance(leaf, int):
        return leaf + 1
    if isinstance(leaf, float):
        return leaf / 2 if leaf else 0.5  # stays inside (0, 1) bounds
    if isinstance(leaf, str):
        return leaf + "~"
    return None


def perturbations(value, path="$"):
    """``(path, build)`` for every scalar leaf under ``value``.

    ``build()`` returns a copy of ``value`` with that one leaf changed,
    rebuilt through the dataclass constructors, so it raises wherever a
    constructor rejects the new value. Descends into dataclasses,
    tuples, numpy arrays and ``functools.partial`` keywords.
    """
    new = bumped(value)
    if new is not None:
        yield path, lambda: new
    elif isinstance(value, np.ndarray):
        for i in range(value.size):
            def build_array(i=i):
                copy = value.copy()
                copy.flat[i] = bumped(copy.flat[i].item())
                return copy
            yield f"{path}[{i}]", build_array
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            for sub, build in perturbations(item, f"{path}[{i}]"):
                yield sub, lambda i=i, build=build: (
                    value[:i] + (build(),) + value[i + 1:]
                )
    elif isinstance(value, functools.partial):
        for name, item in value.keywords.items():
            for sub, build in perturbations(item, f"{path}.{name}"):
                yield sub, lambda name=name, build=build: functools.partial(
                    value.func, *value.args,
                    **{**value.keywords, name: build()},
                )
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            for sub, build in perturbations(
                getattr(value, f.name), f"{path}.{f.name}"
            ):
                yield sub, lambda f=f, build=build: dataclasses.replace(
                    value, **{f.name: build()}
                )


def node_fields():
    node = VanAttaNode()
    return {
        f.name: getattr(node, f.name)
        for f in dataclasses.fields(VanAttaNode)
    }


class TestKeyCoverage:
    """Every scalar input of a run reaches its key, checked without
    running a trial: the key is built from ``TrialCampaign.snapshot``
    and ``scenario_snapshot``."""

    SCENARIO = Scenario.river()
    CAMPAIGN = TrialCampaign(
        trials_per_point=4,
        node_factory=functools.partial(VanAttaNode, **node_fields()),
    )

    def check_every_leaf(self, root, manifest_of):
        base = manifest_of(root)
        key = run_key(base)
        changed, rejected = [], []
        for path, build in perturbations(root):
            try:
                perturbed = build()
            except ValueError:
                rejected.append(path)
                continue
            other = manifest_of(perturbed)
            assert run_key(other) != key, path
            diff = diff_manifests(base, other)
            assert diff["config"] or diff["scenarios"], path
            changed.append(path)
        return changed, rejected

    def test_every_scenario_leaf_changes_the_key(self):
        changed, rejected = self.check_every_leaf(
            self.SCENARIO, lambda sc: config_manifest(sc, self.CAMPAIGN)
        )
        assert rejected == []
        assert "$.water.depth_m" in changed and "$.name" in changed
        assert len(changed) == 27

    def test_every_campaign_frame_and_node_leaf_changes_the_key(self):
        changed, rejected = self.check_every_leaf(
            self.CAMPAIGN, lambda c: config_manifest(self.SCENARIO, c)
        )
        # VanAttaArray refuses pairs that repeat or leave out an element.
        assert rejected == [
            f"$.node_factory.array.pairs[{p}][{e}]"
            for p in (0, 1) for e in (0, 1)
        ]
        for leaf in (
            "$.seed", "$.payload_bytes", "$.si_suppression_db",
            "$.frame_config.line_code", "$.frame_config.scramble",
            "$.node_factory.array.positions_m[3]",
            "$.node_factory.array.pairing",
            "$.node_factory.switch.off_isolation_db",
            "$.node_factory.node_id",
        ):
            assert leaf in changed, leaf
        assert len(changed) == 53


def module_level_receiver(scenario):
    return ReaderReceiver.for_scenario(scenario)


class CallCounter:
    """A callable factory the walk has no canonical form for."""

    def __init__(self):
        self.calls = 0

    def __call__(self, scenario):
        self.calls += 1
        return ReaderReceiver.for_scenario(scenario)


def import_e16():
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        import bench_e16_equalizer
    finally:
        sys.path.pop(0)
    return bench_e16_equalizer


class TestFactoryIdentity:
    def test_classes_and_module_functions_record_their_names(self):
        record = TrialCampaign(
            receiver_factory=module_level_receiver
        ).snapshot()
        assert record["node_factory"] == "repro.vanatta.node.VanAttaNode"
        assert record["receiver_factory"] == (
            f"{__name__}.module_level_receiver"
        )

    def test_a_partial_records_its_function_and_walked_arguments(self):
        array = VanAttaArray.uniform(8)
        record = TrialCampaign(
            node_factory=functools.partial(VanAttaNode, array=array)
        ).snapshot()
        assert record["node_factory"] == {
            "function": "repro.vanatta.node.VanAttaNode",
            "args": [],
            "keywords": {"array": config_snapshot(array)},
        }
        assert record["node_factory"]["keywords"]["array"]["pairing"] == (
            "cross_polarity"
        )

    def test_closures_record_name_line_closure_and_defaults(self):
        e16 = import_e16()
        plain, equalised = (
            TrialCampaign(receiver_factory=f).snapshot()["receiver_factory"]
            for f in (e16.make_receiver(0), e16.make_receiver(24))
        )
        assert plain["function"] == (
            "bench_e16_equalizer.make_receiver.<locals>.factory"
        )
        assert plain["line"] == equalised["line"] > 0
        assert plain["closure"] == {"equalizer_taps": 0, "timing_search": 0}
        assert equalised["closure"]["equalizer_taps"] == 24
        scenario = Scenario.river()
        assert run_key(config_manifest(
            scenario, TrialCampaign(receiver_factory=e16.make_receiver(0))
        )) != run_key(config_manifest(
            scenario, TrialCampaign(receiver_factory=e16.make_receiver(24))
        ))

        def with_default(scenario, taps=3):
            return taps
        assert TrialCampaign(
            receiver_factory=with_default
        ).snapshot()["receiver_factory"]["defaults"] == [3]

    def test_no_factory_is_called_to_build_the_key(self):
        def refuses(*_):
            raise AssertionError("a factory ran to build the key")
        record = TrialCampaign(
            node_factory=refuses, receiver_factory=lambda sc: refuses()
        ).snapshot()
        assert record["node_factory"]["function"].endswith("refuses")

    def test_a_factory_without_a_canonical_form_fails_before_any_trial(
        self, tmp_path
    ):
        factory = CallCounter()
        campaign = TrialCampaign(trials_per_point=2, receiver_factory=factory)
        with pytest.raises(TypeError, match="CallCounter"):
            run_observed_campaign(
                [Scenario.river()], campaign, workers=1, progress=False,
                events_path=tmp_path / "run.events.jsonl",
                manifest_path=tmp_path / "run.manifest.json",
                ledger=tmp_path / "ledger",
            )
        assert factory.calls == 0
        assert list(tmp_path.iterdir()) == []
