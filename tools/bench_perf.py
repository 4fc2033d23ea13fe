"""Perf-regression harness for the Monte-Carlo campaign engine.

Measures trials/sec of four execution arms on the same seeded campaign
(a river BER-vs-range sweep, the shape of the paper's headline figure):

* ``seed_baseline`` — the seed repo's serial path, emulated by disabling
  the channel-response and noise-shaping caches, forcing per-frequency
  Wenz evaluation, and rebuilding the receiver per trial. (The baseline
  still gets this PR's O(n) DC blocker and memoized preamble templates,
  so reported speedups are *conservative* relative to the true seed.)
* ``serial_fallback`` — the cached engine driven as a loop of 1-row
  ``simulate_trial`` calls (per-point invariants hoisted), one process:
  the per-row cost the whole-point batch amortises.
* ``optimized_serial`` — the cached engine on the batched point path
  (one ``(trials, samples)`` block per point), one process.
* ``optimized_parallel`` — the batched engine sharded by point over a
  ``ProcessPoolExecutor``.

A ``lint_warm`` arm (:func:`run_lint_warm_bench`) times the
three-engine ``vablint`` run over ``src/repro`` served entirely from
warm incremental caches (files/sec), so ``bench_compare`` can alert
when the warm lint path gets more than 2x slower.

A fifth pair of arms benchmarks the Van Atta array-factor kernel
(``arrayfactor`` vs the ``arrayfactor_loop`` per-pair reference; see
:func:`run_arrayfactor_bench`): a monostatic pattern sweep of a
1024-element array over 181 angles, with a >=50x speedup floor and a
batched-vs-loop parity check enforced on full runs.

Also records per-stage wall-clock (channel / reflect / noise / demod)
from the serial arm's span tracer (:meth:`SpanTracer.leaf_totals`), the
run's metrics-registry snapshot (cache hits/misses, receiver failures,
batch sizes — see :mod:`repro.obs.metrics`), and verifies two
bit-identity contracts — parallel == serial, and whole-point batch ==
the 1-row ``simulate_trial`` loop — then writes
everything (stamped with the batched kernel's
``batched_engine_version``) to the next ``BENCH_<n>.json`` — the files
``tools/bench_compare.py`` diffs to machine-check the perf trajectory.

Run from the repository root::

    PYTHONPATH=src python tools/bench_perf.py            # full campaign
    PYTHONPATH=src python tools/bench_perf.py --smoke    # tiny-N sanity

The pytest smoke test (``-m bench_smoke``) drives :func:`run_bench`
directly with tiny N so executor regressions surface in tier-1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import tree_fingerprint
from repro.dsp import noisegen
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.obs.probes import probe_mode
from repro.phy.batch import BATCHED_ENGINE_VERSION
from repro.phy.receiver import ReaderReceiver
from repro.vanatta.array import VanAttaArray
from repro.vanatta.fastfield import (
    FASTFIELD_ENGINE_VERSION,
    ArrayFactorEngine,
    reference_response,
)
from repro.sim import cache
from repro.sim.engine import simulate_trial
from repro.sim.parallel import run_campaign_parallel
from repro.sim.results import BERPoint, CampaignResult
from repro.sim.scenario import Scenario
from repro.sim.sweep import sweep_range
from repro.sim.trials import TrialCampaign

DEFAULT_RANGES_M = [50.0, 150.0, 250.0, 330.0, 450.0, 600.0]


def bench_paths(root: Path) -> List[Path]:
    """Existing BENCH_<n>.json files under ``root``, ordered by n."""
    indexed = []
    for path in root.glob("BENCH_*.json"):
        suffix = path.stem[len("BENCH_"):]
        if suffix.isdigit():
            indexed.append((int(suffix), path))
    return [path for _, path in sorted(indexed)]


def next_bench_path(root: Path) -> Path:
    """The next free BENCH_<n>.json slot (keeps the perf trajectory)."""
    existing = bench_paths(root)
    n = int(existing[-1].stem[len("BENCH_"):]) + 1 if existing else 1
    return root / f"BENCH_{n}.json"


def lint_gate(allow_dirty: bool) -> Optional[dict]:
    """Lint-fingerprint the library tree before recording a benchmark.

    ``BENCH_<n>.json`` files are the repo's durable perf trajectory;
    recording one from a tree that fails ``vablint`` (non-deterministic
    RNG use, unit mix-ups, wall-clock in the sim path) would bake
    unreproducible numbers into history. Returns the fingerprint record
    to embed — stamped with every dataflow engine's version so each
    BENCH file pins which checkers vetted the tree — or ``None`` when the tree is dirty and ``allow_dirty`` is
    false (the caller must refuse to write).
    """
    from repro.analysis.engines import ENGINES

    record = tree_fingerprint([REPO_ROOT / "src" / "repro"])
    if not record["clean"] and not allow_dirty:
        return None
    for engine in ENGINES:
        record[f"{engine.name}_engine_version"] = engine.version
    return record


@contextmanager
def seed_baseline_mode() -> Iterator[None]:
    """Disable every campaign-level cache (emulate the seed hot path)."""
    old_pointwise = noisegen.set_pointwise_psd(True)
    old_noise_cache = noisegen.set_noise_cache_enabled(False)
    old_channel_cache = cache.set_channel_cache_enabled(False)
    noisegen.clear_noise_cache()
    cache.clear_channel_cache()
    try:
        yield
    finally:
        noisegen.set_pointwise_psd(old_pointwise)
        noisegen.set_noise_cache_enabled(old_noise_cache)
        cache.set_channel_cache_enabled(old_channel_cache)


def run_baseline(
    scenarios: Sequence[Scenario], campaign: TrialCampaign
) -> int:
    """The seed's per-trial loop: nothing hoisted, nothing cached.

    Mirrors the seed ``TrialCampaign.run_point``: the node is built once
    per point but the receiver and the channel response are recomputed
    inside every trial, and the Wenz PSD is evaluated per FFT bin in
    Python.
    """
    n = 0
    with seed_baseline_mode():
        for i, scenario in enumerate(scenarios):
            children = campaign.trial_seeds(i)
            node = campaign.node_factory()
            for child in children:
                rng = np.random.default_rng(child)
                payload = bytes(
                    rng.integers(0, 256, size=campaign.payload_bytes, dtype=np.uint8)
                )
                simulate_trial(
                    scenario,
                    node=node,
                    payload=payload,
                    rng=rng,
                    frame_config=campaign.frame_config,
                    receiver=None,
                    si_suppression_db=campaign.si_suppression_db,
                )
                n += 1
    return n


def run_per_row(
    scenarios: Sequence[Scenario], campaign: TrialCampaign, label: str
) -> CampaignResult:
    """The campaign as a loop of 1-row ``simulate_trial`` calls.

    Per-point invariants (node, receiver, channel response) are hoisted
    as a campaign would; every trial then pays the pipeline's per-call
    overhead alone. The reference of the ``batched_bit_identical`` gate.
    """
    out = CampaignResult(label=label)
    for i, scenario in enumerate(scenarios):
        node = campaign.node_factory()
        receiver = ReaderReceiver.for_scenario(scenario, campaign.frame_config)
        response = cache.reader_node_response(scenario)
        results = []
        for child in campaign.trial_seeds(i):
            rng = np.random.default_rng(child)
            payload = bytes(
                rng.integers(0, 256, size=campaign.payload_bytes, dtype=np.uint8)
            )
            results.append(simulate_trial(
                scenario,
                node=node,
                payload=payload,
                rng=rng,
                frame_config=campaign.frame_config,
                receiver=receiver,
                si_suppression_db=campaign.si_suppression_db,
                response=response,
            ))
        out.add(BERPoint.from_trials(results))
    return out


def stage_timings(tracer: SpanTracer) -> dict:
    """Per-stage view of a tracer: {stage: {total_s, count, mean_ms}}."""
    totals, counts = tracer.leaf_totals()
    return {
        name: {
            "total_s": round(totals[name], 6),
            "count": counts[name],
            "mean_ms": round(1e3 * totals[name] / max(counts[name], 1), 6),
        }
        for name in sorted(totals)
    }


def _arm(elapsed_s: float, trials: int) -> dict:
    return {
        "elapsed_s": round(elapsed_s, 4),
        "trials": trials,
        "trials_per_sec": round(trials / elapsed_s, 2) if elapsed_s > 0 else None,
    }


ARRAYFACTOR_ELEMENTS = 1024
ARRAYFACTOR_ANGLES = 181
ARRAYFACTOR_FREQUENCY_HZ = 18_500.0
ARRAYFACTOR_MIN_SPEEDUP = 50.0
"""Floor on batched-over-loop array-factor speedup at the full
benchmark size (the E21 perf gate); `main` exits non-zero below it."""


def run_arrayfactor_bench(
    num_elements: int = ARRAYFACTOR_ELEMENTS,
    num_angles: int = ARRAYFACTOR_ANGLES,
    repeats: int = 5,
) -> dict:
    """The array-factor arm: per-pair loop vs the batched kernel.

    Scores a monostatic pattern sweep (``num_angles`` angles) of a
    ``num_elements``-element Van Atta on both paths. One "trial" is
    one complex field-point evaluation, so ``trials_per_sec`` is
    directly comparable across record generations, and the batched arm
    is averaged over ``repeats`` sweeps (it is far too fast to time
    once). Includes a batched-vs-loop parity verdict (<= 1e-9 per
    element) mirroring the campaign arms' bit-identity checks.
    """
    array = VanAttaArray.uniform(
        num_elements, frequency_hz=ARRAYFACTOR_FREQUENCY_HZ, sound_speed=1500.0
    )
    thetas = np.linspace(-60.0, 60.0, num_angles)
    engine = ArrayFactorEngine.from_linear(array)
    engine.monostatic_batch(ARRAYFACTOR_FREQUENCY_HZ, thetas)  # warm

    t0 = time.perf_counter()
    for _ in range(repeats):
        batched = engine.monostatic_batch(ARRAYFACTOR_FREQUENCY_HZ, thetas)
    batched_arm = _arm(time.perf_counter() - t0, num_angles * repeats)

    t0 = time.perf_counter()
    looped = np.array(
        [
            reference_response(
                array, ARRAYFACTOR_FREQUENCY_HZ, float(t), float(t), 1500.0
            )
            for t in thetas
        ]
    )
    loop_arm = _arm(time.perf_counter() - t0, num_angles)

    for arm in (batched_arm, loop_arm):
        arm["elements"] = num_elements
        arm["angles"] = num_angles
    batched_rate = batched_arm["trials_per_sec"] or 0.0
    loop_rate = loop_arm["trials_per_sec"] or 1e-9
    parity = bool(
        np.abs(batched - looped).max() <= 1e-9 * max(num_elements, 1)
    )
    return {
        "arrayfactor": batched_arm,
        "arrayfactor_loop": loop_arm,
        "arrayfactor_speedup": round(batched_rate / loop_rate, 2),
        "arrayfactor_parity": parity,
    }


LINT_WARM_REPEATS = 3


def run_lint_warm_bench(
    target: Optional[Path] = None, repeats: int = LINT_WARM_REPEATS
) -> dict:
    """The ``lint_warm`` arm: warm-cache full-tree three-engine lint.

    Primes the shared units/shapes/effects engine cache in a throwaway
    directory, then times ``repeats`` fully-warm runs over ``target``
    (default ``src/repro``). One "trial" is one file served per run, so
    ``trials_per_sec`` is files/sec and comparable across record
    generations. This guards the warm path itself: a cache-key or
    dependent-closure bug that forces spurious re-analysis shows up
    here as a throughput collapse long before anyone notices CI
    slowing down.
    """
    import tempfile

    from repro.analysis import lint_paths

    if target is None:
        target = REPO_ROOT / "src" / "repro"
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / ".vablint_units_cache.json"
        lint_paths([target], units=True, units_cache=cache)  # prime
        t0 = time.perf_counter()
        for _ in range(repeats):
            report = lint_paths([target], units=True, units_cache=cache)
        arm = _arm(time.perf_counter() - t0, report.files * repeats)
    arm["files"] = report.files
    arm["repeats"] = repeats
    reused = sum(stats["reused"] for stats in report.engine_stats.values())
    # 3 engines x files on a healthy warm run; anything less means the
    # caches are not actually serving the tree.
    arm["cache_hits_per_run"] = reused
    return arm


def run_bench(
    trials_per_point: int = 25,
    ranges_m: Optional[List[float]] = None,
    workers: int = 4,
    seed: int = 2023,
    bench_name: str = "BENCH_1",
    arrayfactor_elements: int = ARRAYFACTOR_ELEMENTS,
    arrayfactor_angles: int = ARRAYFACTOR_ANGLES,
) -> dict:
    """Run all campaign arms plus the array-factor arm; return the record."""
    if ranges_m is None:
        ranges_m = list(DEFAULT_RANGES_M)
    scenarios = sweep_range(Scenario.river(), ranges_m)
    campaign = TrialCampaign(trials_per_point=trials_per_point, seed=seed)

    # Warm imports / BLAS / code paths so no arm pays first-call costs.
    run_campaign_parallel(
        scenarios[:1], TrialCampaign(trials_per_point=2, seed=seed), workers=1
    )
    run_baseline(scenarios[:1], TrialCampaign(trials_per_point=2, seed=seed))

    t0 = time.perf_counter()
    n_base = run_baseline(scenarios, campaign)
    baseline = _arm(time.perf_counter() - t0, n_base)

    # Per-row arm: the cached engine one trial per call — the reference
    # both for the batched speedup and for the batched == per-row
    # bit-identity gate.
    cache.clear_channel_cache()
    noisegen.clear_noise_cache()
    run_per_row(
        scenarios[:1], dataclasses.replace(campaign, trials_per_point=2),
        label="warm",
    )
    t0 = time.perf_counter()
    fallback = run_per_row(scenarios, campaign, label="bench-fallback")
    fallback_arm = _arm(time.perf_counter() - t0, fallback.total_trials)

    cache.clear_channel_cache()
    noisegen.clear_noise_cache()
    serial_tracer = SpanTracer()
    serial_metrics = MetricsRegistry()
    t0 = time.perf_counter()
    serial = run_campaign_parallel(
        scenarios, campaign, label="bench-serial", workers=1,
        tracer=serial_tracer, metrics=serial_metrics,
    )
    serial_arm = _arm(time.perf_counter() - t0, serial.total_trials)

    # Steady-state parallel throughput: fork and warm the workers on a
    # tiny campaign first so the timed run measures the engine, not
    # process startup (the serial arms got the same treatment above).
    with ProcessPoolExecutor(max_workers=workers) as pool:
        run_campaign_parallel(
            scenarios[:1], TrialCampaign(trials_per_point=2, seed=seed),
            workers=workers, pool=pool,
        )
        t0 = time.perf_counter()
        parallel = run_campaign_parallel(
            scenarios, campaign, label="bench-parallel", workers=workers,
            pool=pool,
        )
        parallel_arm = _arm(time.perf_counter() - t0, parallel.total_trials)
    parallel_arm["workers"] = workers

    arrayfactor = run_arrayfactor_bench(
        num_elements=arrayfactor_elements, num_angles=arrayfactor_angles
    )

    identical = serial.points == parallel.points
    batched_identical = serial.points == fallback.points
    base_rate = baseline["trials_per_sec"] or 1e-9
    fallback_rate = fallback_arm["trials_per_sec"] or 1e-9
    metrics = serial_metrics.as_dict()
    counters = metrics["counters"]
    return {
        "bench": bench_name,
        "name": "monte-carlo-campaign-engine",
        "batched_engine_version": BATCHED_ENGINE_VERSION,
        "fastfield_engine_version": FASTFIELD_ENGINE_VERSION,
        "config": {
            "trials_per_point": trials_per_point,
            "points": len(ranges_m),
            "ranges_m": ranges_m,
            "workers": workers,
            "seed": seed,
            "scenario": "river",
            # Probe mode is part of the measurement conditions: the
            # runtime invariant probes ride the hot path, so the perf
            # trajectory records what they were set to.
            "probes": probe_mode(),
        },
        "seed_baseline": baseline,
        "serial_fallback": fallback_arm,
        "optimized_serial": serial_arm,
        "optimized_parallel": parallel_arm,
        "arrayfactor": arrayfactor["arrayfactor"],
        "arrayfactor_loop": arrayfactor["arrayfactor_loop"],
        "arrayfactor_parity": arrayfactor["arrayfactor_parity"],
        "speedup": {
            "arrayfactor_over_loop": arrayfactor["arrayfactor_speedup"],
            "serial_over_baseline": round(
                (serial_arm["trials_per_sec"] or 0.0) / base_rate, 2
            ),
            "parallel_over_baseline": round(
                (parallel_arm["trials_per_sec"] or 0.0) / base_rate, 2
            ),
            "batched_over_fallback": round(
                (serial_arm["trials_per_sec"] or 0.0) / fallback_rate, 2
            ),
        },
        "stage_timings": stage_timings(serial_tracer),
        "metrics": metrics,
        "cache": {
            "hits": counters.get("repro.sim.cache.hits", 0),
            "misses": counters.get("repro.sim.cache.misses", 0),
            "evictions": counters.get("repro.sim.cache.evictions", 0),
        },
        "parallel_bit_identical": identical,
        "batched_bit_identical": batched_identical,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trials", type=int, default=25,
                        help="trials per operating point (default 25)")
    parser.add_argument("--points", type=int, default=len(DEFAULT_RANGES_M),
                        help="number of range points (default 6)")
    parser.add_argument("--workers", type=int, default=4,
                        help="parallel arm worker processes (default 4)")
    parser.add_argument("--seed", type=int, default=2023,
                        help="campaign master seed (default 2023)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output JSON path (default: the next free "
                             "BENCH_<n>.json at the repo root)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-N sanity run; prints but does not write")
    parser.add_argument("--allow-dirty-lint", action="store_true",
                        dest="allow_dirty_lint",
                        help="record the benchmark even if vablint reports "
                             "findings on src/repro (discouraged)")
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    if args.points < 1:
        parser.error("--points must be >= 1")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.out is None:
        args.out = next_bench_path(REPO_ROOT)

    lint_record = None
    if not args.smoke:
        lint_record = lint_gate(args.allow_dirty_lint)
        if lint_record is None:
            print(
                "ERROR: refusing to record a benchmark from a dirty-lint "
                "tree.\nRun `python tools/vablint.py src/repro` and fix the "
                "findings (or pass --allow-dirty-lint to override).",
                file=sys.stderr,
            )
            return 1

    if args.smoke:
        record = run_bench(trials_per_point=3, ranges_m=[50.0, 330.0],
                           workers=2, seed=args.seed, bench_name="BENCH_smoke",
                           arrayfactor_elements=128, arrayfactor_angles=37)
    else:
        ranges = list(np.interp(
            np.linspace(0, len(DEFAULT_RANGES_M) - 1, args.points),
            np.arange(len(DEFAULT_RANGES_M)), DEFAULT_RANGES_M,
        )) if args.points != len(DEFAULT_RANGES_M) else list(DEFAULT_RANGES_M)
        record = run_bench(trials_per_point=args.trials, ranges_m=ranges,
                           workers=args.workers, seed=args.seed,
                           bench_name=args.out.stem)

    # The warm-lint arm rides every record (smoke included): it times
    # the three-engine lint served entirely from warm incremental
    # caches, so bench_compare can alert when the warm path degrades.
    record["lint_warm"] = run_lint_warm_bench()

    if lint_record is not None:
        record["lint"] = lint_record
    print(json.dumps(record, indent=2))
    if not args.smoke:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.out}")
    if not record["parallel_bit_identical"]:
        print("ERROR: parallel campaign diverged from serial", file=sys.stderr)
        return 1
    if not record["batched_bit_identical"]:
        print(
            "ERROR: batched campaign diverged from the 1-row simulate_trial loop",
            file=sys.stderr,
        )
        return 1
    if not record["arrayfactor_parity"]:
        print(
            "ERROR: batched array factor diverged from the per-pair loop",
            file=sys.stderr,
        )
        return 1
    if (not args.smoke
            and record["speedup"]["arrayfactor_over_loop"]
            < ARRAYFACTOR_MIN_SPEEDUP):
        print(
            "ERROR: array-factor speedup "
            f"{record['speedup']['arrayfactor_over_loop']:.1f}x below the "
            f"{ARRAYFACTOR_MIN_SPEEDUP:.0f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
