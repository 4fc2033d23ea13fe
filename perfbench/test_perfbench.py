"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

Runs are shrunk (few trials, one pass, a three-file lint corpus) so the
whole file takes well under a minute; the full-size golden checks run one
pass per workload.
"""

from __future__ import annotations

import json
import sys
import tarfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

TINY_SEED = 5  # not the golden seed: tiny runs check invariants only


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload to a few trials / files and one pass."""
    for cls in (workloads.RiverBatched, workloads.RiverParallelObserved):
        monkeypatch.setattr(cls, "trials_per_point", 6)
    monkeypatch.setattr(workloads.MultipathDfe, "trials_per_point", 2)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "MIN_TRACED_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    monkeypatch.setattr(run, "SETUP_PROBE_SECONDS", 0.0)
    corpus = tmp_path / "corpus.tar.gz"
    with tarfile.open(workloads.CORPUS_PATH) as src, tarfile.open(corpus, "w:gz") as dst:
        for name in ("repro/__init__.py", "repro/rng.py", "repro/sim/cache.py"):
            member = src.getmember(name)
            dst.addfile(member, src.extractfile(member))
    monkeypatch.setattr(workloads, "CORPUS_PATH", corpus)
    goldens = json.loads(workloads.GOLDENS_PATH.read_text())
    goldens["lint_tree"] = {"files": 3}
    golden_path = tmp_path / "goldens.json"
    golden_path.write_text(json.dumps(goldens))
    monkeypatch.setattr(workloads, "GOLDENS_PATH", golden_path)
    for key in (*run.THREAD_ENV, "VAB_PROBES"):
        monkeypatch.delenv(key, raising=False)
    return golden_path


def run_main(capsys, workload, trace, seed=TINY_SEED):
    code = run.main([
        "--workload", workload, "--seed", str(seed),
        "--seconds", "0", "--trace", str(trace),
    ])
    lines = capsys.readouterr().out.splitlines()
    return code, json.loads(lines[-2])["conditions"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(tiny, capsys, workload, trace):
    code, conditions, result = run_main(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = dict(run.PER_LAYER if trace else run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(
        isinstance(v["value"], (int, float)) for v in result["metrics"].values()
    )
    assert conditions["probe_mode"] == "count"
    assert conditions["thread_env"]["OMP_NUM_THREADS"] == "1"
    assert 1 <= conditions["workers"] <= (run.os.cpu_count() or 1)


def test_pooled_run_leaves_no_child_running(tiny, capsys):
    code, _, _ = run_main(capsys, "river_parallel_observed", 0)
    assert code == 0
    assert run.child_pids() == []  # pool workers and resource tracker


def test_traced_river_run_takes_per_trial_layers_from_its_companion(tiny, capsys):
    code, conditions, result = run_main(capsys, "river_batched", 1)
    assert code == 0 and result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["phy.demod.slice.calls"] > 0  # the batched engine has none
    assert metrics["phy.demod.rake.self_s"] > 0
    assert metrics["dsp.noise.self_s"] > 0  # batched layers from the main run
    assert conditions["passes"]["companion_traced"] >= 1


def test_traced_run_reports_layers_and_coverage(tiny, capsys):
    _, conditions, result = run_main(capsys, "multipath_dfe", 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["phy.demod.slice.calls"] > 0  # per-trial path ran
    assert metrics["phy.demod.rake.self_s"] > 0
    assert 0.5 < metrics["trace.coverage"] <= 1.0
    assert conditions["trace_missing_targets"] == []
    doc = json.loads((ROOT / conditions["trace_file"]).read_text())
    from repro.obs.trace import validate_trace_events

    assert validate_trace_events(doc) > 0


def test_corrupted_golden_is_a_failure_not_a_crash(tiny, capsys):
    tiny.write_text("{ not json")
    code, _, result = run_main(
        capsys, "river_batched", 0, seed=workloads.DEFAULT_SEED
    )
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


@pytest.mark.parametrize("reference, failed", [
    (workloads.CORRUPT, 8),
    ("garbage", 8),
    ([{"ber": "x"}] * 8, 8),
    ([None, 3] + [{}] * 6, 7),  # a None entry checks invariants only
])
def test_malformed_references_fail_without_raising(reference, failed):
    w = workloads.RiverBatched.__new__(workloads.RiverBatched)
    w.scenarios = [type("S", (), {"range_m": r})() for r in range(8)]
    digest = [
        {"range_m": r, "trials": w.trials_per_point, "ber": 0.0,
         "frame_success_rate": 1.0, "detection_rate": 1.0, "mean_snr_db": 9.0}
        for r in range(8)
    ]
    assert w.check(digest, reference) == (8, failed)
    assert w.check(digest, None) == (8, 0)


def test_invariants_catch_frame_without_detection():
    point = {"range_m": 1.0, "trials": 4, "ber": 0.0,
             "frame_success_rate": 1.0, "detection_rate": 0.5, "mean_snr_db": 1.0}
    assert not workloads.point_ok(point, 1.0, 4, None)
    assert not workloads.point_ok(dict(point, detection_rate=1.0, ber=1.5), 1.0, 4, None)
    assert workloads.point_ok(dict(point, detection_rate=1.0), 1.0, 4, None)


@pytest.mark.parametrize("cls", [
    workloads.RiverBatched, workloads.MultipathDfe, workloads.RiverParallelObserved,
])
def test_default_seed_matches_goldens(tmp_path, cls):
    w = cls(workloads.DEFAULT_SEED, tmp_path)
    try:
        digest = w.run_pass(w.cycle[0])
        attempted, failed = w.check(digest, w.reference(workloads.load_goldens()))
    finally:
        w.close()
        run.stop_resource_tracker()
    assert failed == 0 and attempted == len(w.scenarios)


def test_no_patched_function_remains_after_a_traced_pass():
    import repro.sim.parallel  # noqa: F401 - load every campaign module

    def originals():
        out = {}
        for module_name, attr, _, _ in tracer_mod.TARGETS:
            owner = sys.modules.get(module_name)
            if owner is None:
                continue
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = vars(owner)[part]
            out[(module_name, attr)] = vars(owner)[leaf]
        return out

    before = originals()
    t = tracer_mod.Tracer()

    class Boom(workloads.Workload):
        cycle = ("sweep",)

        def run_pass(self, kind):
            if t.patched_targets():  # the traced pass fails half-way
                raise RuntimeError("boom")
            return []

        def check(self, digest, reference):
            return 1, 0

    checker = run.Checker(Boom(), None)
    with pytest.raises(RuntimeError, match="boom"):
        run.run_traced(Boom(), checker, 0.0, t)
    t.install()
    t.restore()
    assert t.patched_targets() == []
    after = originals()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == [n for n in workloads.WORKLOADS if n in names]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_library_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "river_batched", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""
