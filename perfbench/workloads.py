"""The benchmark's workloads: set-up, one timed pass, and its check.

Each workload is a closed-loop batch job: one caller in one process
issues a pass, waits for it, checks it, and issues the next. Set-up (the
constructor) imports the library, builds the inputs from the seed, and
runs a warm-up so channel, noise-shaping and engine caches are full
before timing. ``repro`` is imported inside the constructors so that its
import time counts as set-up.

A pass returns a *digest*: plain data that :meth:`check` compares with
the recorded golden (at :data:`DEFAULT_SEED`) or with the first pass of
the run (any other seed), after checking structural invariants.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tarfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
GOLDENS_PATH = HERE / "goldens.json"
CORPUS_PATH = HERE / "corpus.tar.gz"

DEFAULT_SEED = 2023
"""Seed whose per-point results are recorded in ``goldens.json``."""

RIVER_RANGES = (50.0, 600.0, 8)
RIVER_TRIALS = 250
"""Trials per point: a campaign-scale ``(trials, samples)`` block."""

DFE_DEPTH_M = 6.0
DFE_GEOMETRIES = (
    (120.0, 0.25),
    (120.0, 0.5),
    (200.0, 0.25),
    (200.0, 0.75),
    (280.0, 0.5),
)
"""(range m, reader/node depth as a fraction of the column): the E16 cells."""
DFE_TRIALS = 100

WARMUP_TRIALS = 4
"""Trials per point of the set-up sweep that fills the per-point caches."""

PARALLEL_WORKERS = 2
LINT_WARM_PASSES = 4
"""Warm-cache lint runs after each cold run."""

TOLERANCE = 1e-9


def load_goldens() -> Dict[str, Any]:
    """The recorded goldens; empty when the file is missing or corrupt."""
    try:
        data = json.loads(GOLDENS_PATH.read_text())
    except (OSError, ValueError):
        return {}
    return data if isinstance(data, dict) else {}


def point_digest(point: Any) -> Dict[str, Any]:
    """What a BER point is checked on (non-finite SNR stored as None)."""
    snr = point.mean_snr_db
    return {
        "range_m": point.range_m,
        "trials": point.trials,
        "ber": point.ber,
        "frame_success_rate": point.frame_success_rate,
        "detection_rate": point.detection_rate,
        "mean_snr_db": snr if math.isfinite(snr) else None,
    }


def _same(value: Any, expected: Any) -> bool:
    if expected is None or value is None:
        return value is None and expected is None
    if isinstance(expected, bool) or not isinstance(expected, (int, float)):
        return False
    return math.isclose(value, expected, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


def point_ok(
    point: Dict[str, Any],
    range_m: float,
    trials: int,
    reference: Optional[Any],
) -> bool:
    """Structural invariants, then agreement with ``reference`` if any."""
    ber, frames, detected = (
        point["ber"], point["frame_success_rate"], point["detection_rate"]
    )
    if point["trials"] != trials or not _same(point["range_m"], range_m):
        return False
    # frame_ok implies detected, so the frame rate cannot exceed it.
    if not (0.0 <= ber <= 1.0 and 0.0 <= frames <= detected <= 1.0):
        return False
    if reference is None:
        return True
    if not isinstance(reference, dict):
        return False
    return all(_same(point[key], reference.get(key)) for key in point)


CORRUPT = object()
"""Stands in for a golden that is missing or unreadable: every check fails."""


class Workload:
    """One benchmark workload; the constructor is its set-up.

    Attributes:
        cycle: the pass kinds of one timed cycle, main kind first. The
            main kind is what ``wall_s`` times and what the tracer traces.
        items_per_pass: work items (trials, files) in one pass.
        pool: worker processes owned by the workload, if any.
        companion: name of a workload whose traced run completes this
            one's per-layer metrics (``run.COMPANION_METRICS``), or "".
    """

    name = ""
    golden_key = ""
    cycle: Tuple[str, ...] = ("sweep",)
    items_per_pass = 0
    pool: Any = None
    companion = ""

    def reference(self, goldens: Dict[str, Any]) -> Any:
        """What passes are compared with; None means the run's first pass."""
        return goldens.get(self.golden_key, CORRUPT)

    def run_pass(self, kind: str) -> Any:
        raise NotImplementedError

    def pass_metrics(self, kind: str) -> Dict[str, float]:
        """Per-layer values the last pass produced outside the tracer."""
        return {}

    def check(self, digest: Any, reference: Any) -> Tuple[int, int]:
        """(items attempted, items failed) of one pass."""
        raise NotImplementedError

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None


class CampaignWorkload(Workload):
    """A BER-versus-range sweep run through the campaign runner."""

    trials_per_point = RIVER_TRIALS
    workers = 1

    def __init__(self, seed: int, work_dir: Path) -> None:
        from repro.sim.cache import channel_cache_info
        from repro.sim.parallel import run_campaign_parallel
        from repro.sim.trials import TrialCampaign

        self.seed = seed
        self.work_dir = work_dir
        self._run = run_campaign_parallel
        self._cache_info = channel_cache_info
        self.scenarios = self.build_scenarios()
        self.campaign = TrialCampaign(
            trials_per_point=self.trials_per_point, seed=seed,
            **self.campaign_options(),
        )
        self.items_per_pass = len(self.scenarios) * self.trials_per_point
        self.start_pool()
        warmup = dataclasses.replace(
            self.campaign, trials_per_point=WARMUP_TRIALS
        )
        try:
            self._run(self.scenarios, warmup, workers=self.workers, pool=self.pool)
        except BaseException:
            self.close()  # the caller gets no workload to close
            raise
        self.cache_delta = (0, 0)

    def build_scenarios(self) -> List[Any]:
        from repro.sim.scenario import Scenario
        from repro.sim.sweep import log_ranges, sweep_range

        return sweep_range(Scenario.river(), log_ranges(*RIVER_RANGES))

    def campaign_options(self) -> Dict[str, Any]:
        return {}

    def start_pool(self) -> None:
        """Create worker processes (none for serial workloads)."""

    def sweep(self) -> Any:
        return self._run(self.scenarios, self.campaign, workers=1)

    def reference(self, goldens: Dict[str, Any]) -> Any:
        if self.seed != DEFAULT_SEED:
            return None
        return goldens.get(self.golden_key, CORRUPT)

    def run_pass(self, kind: str) -> List[Dict[str, Any]]:
        hits0, misses0, _, _ = self._cache_info()
        result = self.sweep()
        hits1, misses1, _, _ = self._cache_info()
        self.cache_delta = (hits1 - hits0, misses1 - misses0)
        return [point_digest(p) for p in result.points]

    def pass_metrics(self, kind: str) -> Dict[str, float]:
        hits, misses = self.cache_delta
        lookups = hits + misses
        return {"sim.cache.hit_ratio": hits / lookups if lookups else 0.0}

    def check(self, digest: List[Dict[str, Any]], reference: Any) -> Tuple[int, int]:
        """(points attempted, points failed) of one pass."""
        ranges = [s.range_m for s in self.scenarios]
        if reference is None:
            reference = [None] * len(ranges)
        elif not isinstance(reference, list) or len(reference) != len(ranges):
            return len(ranges), len(ranges)
        failed = sum(
            not (
                i < len(digest)
                and point_ok(digest[i], range_m, self.trials_per_point, reference[i])
            )
            for i, range_m in enumerate(ranges)
        )
        return len(ranges), failed


class RiverBatched(CampaignWorkload):
    """The paper's headline sweep on the batched engine, serially."""

    name = "river_batched"
    golden_key = "river_batched"
    companion = "multipath_dfe"


def dfe_receiver(scenario: Any) -> Any:
    """E16's receive chain: DFE plus timing search (per-trial engine)."""
    from repro.phy.receiver import ReaderReceiver

    return ReaderReceiver.for_scenario(
        scenario, equalizer_taps=24, timing_search=4
    )


class MultipathDfe(CampaignWorkload):
    """E16 cells: image-method multipath, equalised per-trial fallback."""

    name = "multipath_dfe"
    golden_key = "multipath_dfe"
    trials_per_point = DFE_TRIALS

    def build_scenarios(self) -> List[Any]:
        from repro.geometry.placement import Pose
        from repro.geometry.vec3 import Vec3
        from repro.sim.scenario import Scenario

        scenarios = []
        for range_m, fraction in DFE_GEOMETRIES:
            z = DFE_DEPTH_M * fraction
            base = Scenario.river(range_m=range_m)
            scenarios.append(dataclasses.replace(
                base,
                water=dataclasses.replace(base.water, depth_m=DFE_DEPTH_M),
                reader=Pose(Vec3(0.0, 0.0, z)),
                node=Pose(Vec3(range_m, 0.0, z), 180.0),
                max_bounces=2,
                name="multipath-eq",
            ))
        return scenarios

    def campaign_options(self) -> Dict[str, Any]:
        return {"receiver_factory": dfe_receiver}


class RiverParallelObserved(CampaignWorkload):
    """The river sweep through the observed runner on a process pool."""

    name = "river_parallel_observed"
    golden_key = "river_batched"  # parallel must equal serial

    def start_pool(self) -> None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from repro.sim.parallel import run_observed_campaign

        self._observed = run_observed_campaign
        self.workers = min(PARALLEL_WORKERS, os.cpu_count() or 1)
        self.pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("spawn"),
        )
        self.passes = 0
        self.events: List[dict] = []
        self.manifest: Any = None

    def sweep(self) -> Any:
        from repro.obs.manifest import read_events

        self.passes += 1
        events_path = self.work_dir / f"events-{self.passes}.jsonl"
        result, self.manifest = self._observed(
            self.scenarios,
            self.campaign,
            label=self.name,
            workers=self.workers,
            pool=self.pool,
            manifest_path=self.work_dir / "run.manifest.json",
            events_path=events_path,
            progress=False,
            ledger=self.work_dir / "ledger",
        )
        self.events = read_events(events_path)
        return result

    def pass_metrics(self, kind: str) -> Dict[str, float]:
        """Pool, writer and worker-side counters of the last pass.

        The physics runs in the workers, out of the tracer's reach; the
        manifest carries the workers' merged counters instead.
        """
        chunks = [e for e in self.events if e.get("event") == "chunk_done"]
        end = [e for e in self.events if e.get("event") == "campaign_end"]
        wall = end[-1]["elapsed_s"] if end else 0.0
        busy = sum(e.get("elapsed_s") or 0.0 for e in chunks)
        capacity = wall * self.workers
        counters = self.manifest.metrics.get("counters", {})

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        hits = counters.get("repro.sim.cache.hits", 0)
        misses = counters.get("repro.sim.cache.misses", 0)
        demods = counters.get("repro.phy.receiver.demods", 0)
        detected = demods - counters.get("repro.phy.receiver.detect_failures", 0)
        crc_ok = detected - counters.get("repro.phy.receiver.crc_failures", 0)
        return {
            "sim.parallel.chunks": len(chunks),
            "sim.parallel.busy_s": busy,
            "sim.parallel.idle_s": capacity - busy,
            "sim.parallel.scaling_efficiency": ratio(busy, capacity),
            "obs.events.count": len(self.events),
            "sim.cache.hit_ratio": ratio(hits, hits + misses),
            "phy.demod.detect_ratio": ratio(detected, demods),
            "phy.demod.crc_ok_ratio": ratio(crc_ok, detected),
        }


class LintTree(Workload):
    """``lint_paths(units=True)`` over a pinned snapshot of library code.

    Each cycle is one cold run into a fresh cache file (the engines
    analyse and write every file) and :data:`LINT_WARM_PASSES` warm runs
    that reuse it. The input does not depend on the seed.
    """

    name = "lint_tree"
    golden_key = "lint_tree"
    cycle = ("cold",) + ("warm",) * LINT_WARM_PASSES

    def __init__(self, seed: int, work_dir: Path) -> None:
        # Import every engine now: lint_paths imports them lazily, and
        # that one-off cost belongs to set-up, not to the first cold run.
        import repro.analysis.effects  # noqa: F401
        import repro.analysis.shapes  # noqa: F401
        import repro.analysis.units  # noqa: F401
        from repro.analysis import linter

        self.seed = seed
        self.work_dir = work_dir
        self.linter = linter
        corpus = work_dir / "corpus"
        with tarfile.open(CORPUS_PATH) as tar:
            tar.extractall(corpus, filter="data")
        self.root = corpus / "repro"
        self.items_per_pass = sum(1 for _ in self.root.rglob("*.py"))
        self.cache: Optional[Path] = None
        self.colds = 0
        self.report: Any = None

    def run_pass(self, kind: str) -> Dict[str, int]:
        if kind == "cold":
            self.colds += 1
            cache_dir = self.work_dir / f"cache-{self.colds}"
            cache_dir.mkdir()
            self.cache = cache_dir / "units.json"
        # Lint a relative path from the corpus directory: discovery skips
        # any path with a dot-directory in it, and the checkout may sit
        # under one.
        cwd = os.getcwd()
        os.chdir(self.root.parent)
        try:
            report = self.linter.lint_paths(
                [self.root.name], units=True, units_cache=self.cache, jobs=1
            )
        finally:
            os.chdir(cwd)
        self.report = report
        dirty = {f.path for f in report.findings} | {f.path for f in report.errors}
        return {"files": report.files, "dirty_files": len(dirty)}

    def pass_metrics(self, kind: str) -> Dict[str, float]:
        report = self.report
        stats = [report.units_stats, report.shapes_stats, report.effects_stats]
        reuse = [s["reused"] / s["files"] for s in stats if s and s.get("files")]
        metrics = {"analysis.files": report.files}
        if kind == "warm":
            metrics["analysis.cache.reuse_ratio"] = sum(reuse) / len(reuse) if reuse else 0.0
        return metrics

    def check(self, digest: Dict[str, int], reference: Any) -> Tuple[int, int]:
        """(files attempted, files failed): every file linted, none dirty."""
        expected = self.items_per_pass
        try:
            golden_files = int(reference["files"])
        except (KeyError, TypeError, ValueError):
            return expected, expected
        if golden_files != expected:
            return expected, expected
        missing = abs(expected - digest["files"])
        return expected, min(expected, missing + digest["dirty_files"])


WORKLOADS = {
    w.name: w for w in (RiverBatched, MultipathDfe, RiverParallelObserved, LintTree)
}
