"""Parallel, cache-warm, observable execution of Monte-Carlo campaigns.

The paper's evidence rests on >1,500 field trials; reproducing that
statistical weight in simulation means running campaigns orders of
magnitude larger than the seed's serial loop allowed. This module
distributes a campaign's trials across a ``ProcessPoolExecutor`` while
keeping the results **bit-identical** to the serial runner:

* Seeding stays on the ``SeedSequence.spawn`` discipline — trial ``t``
  of point ``p`` always draws from ``SeedSequence((seed, p)).spawn(n)[t]``
  regardless of which worker runs it or in what order chunks finish
  (see :meth:`TrialCampaign.trial_seeds`).
* Results are re-assembled in trial order before aggregation, so the
  floating-point reductions in :meth:`BERPoint.from_trials` see the same
  operand order as the serial loop.
* Campaigns are sharded by whole operating point: one chunk is one
  ``(trials, samples)`` point batch, so the span and chunk counts are
  scheduling-independent too.

Workers warm their own process-local caches (channel responses, Wenz
shaping filters), so per-point invariants are computed once per worker,
not once per trial. ``workers=1`` is the in-process serial path — no
pool, no pickling — which is also the fallback when a campaign carries
a non-picklable factory (with or without a supplied pool).

Telemetry rides the same machinery: pass ``tracer=`` (hierarchical
spans), ``metrics=`` (a registry), and/or ``events=`` (a JSONL event
log) and each worker chunk collects process-locally, ships its tracer
and metrics snapshot home with the results, and the parent merges them
in trial order — so telemetry, like the results, is independent of
scheduling. :func:`run_observed_campaign` bundles all of it and emits a
:class:`~repro.obs.manifest.RunManifest`.

Example::

    scenarios = sweep_range(Scenario.river(), log_ranges(50, 600, 8))
    result, manifest = run_observed_campaign(
        scenarios, TrialCampaign(trials_per_point=250), workers=4,
        manifest_path="river.manifest.json",
        events_path="river.events.jsonl",
    )
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.contracts import Effectful
from repro.dsp.rowblocks import _budget_scope, row_budget, usable_cpus
from repro.obs.ledger import Ledger
from repro.obs.manifest import EventLog, RunManifest, scenario_snapshot, wall_clock_unix
from repro.obs.metrics import MetricsRegistry, counter, gauge, use_registry
from repro.obs.progress import ProgressReporter
from repro.obs.spans import SpanTracer, collect_spans
from repro.sim.engine import TrialResult
from repro.sim.results import BERPoint, CampaignResult
from repro.sim.scenario import Scenario
from repro.sim.trials import TrialCampaign

CHUNKS_COUNTER = counter(
    "repro.sim.parallel.chunks", "worker chunks dispatched to the pool"
)
CAMPAIGNS_COUNTER = counter(
    "repro.sim.parallel.campaigns", "campaigns executed by the runner"
)
WORKERS_GAUGE = gauge(
    "repro.sim.parallel.workers", "worker processes of the last campaign"
)
ROW_THREADS_GAUGE = gauge(
    "repro.sim.parallel.row_threads",
    "row-block thread budget per point of the last campaign",
)
UTILIZATION_GAUGE = gauge(
    "repro.sim.parallel.worker_utilization",
    "pool busy-fraction of the last campaign (chunk-seconds / wall * workers)",
)


def default_workers() -> Effectful[int, "reads:host"]:
    """Worker count when unspecified: all usable cores, capped at 8.

    Usable cores are the process's affinity mask
    (:func:`repro.dsp.rowblocks.usable_cpus`), so a CPU-restricted
    container starts no more workers than it may run. The host read
    only tunes scheduling (chunk fan-out), never results: trial
    outcomes are seeded per-trial, so any worker count replays the same
    numbers.  The ``reads:host`` grant records exactly that.
    """
    return max(1, min(usable_cpus(), 8))


def _chunk_row_threads(workers: int) -> Effectful[int, "reads:host"]:
    """Row-block budget of one pool chunk: the usable cores left to it
    when ``workers`` chunks run at once (1 once the pool fills them)."""
    return max(1, usable_cpus() // max(1, workers))


def _run_chunk(
    campaign: TrialCampaign,
    scenario: Scenario,
    point_index: int,
    collect: bool,
    row_threads: int,
) -> Tuple[List[TrialResult], Optional[dict]]:
    """Worker entry: run all of one point's trials.

    The chunk's row-independent kernels run on at most ``row_threads``
    threads (:mod:`repro.dsp.rowblocks`), the budget the parent left
    each worker. When collecting, the chunk's spans land in a fresh
    tracer and its metrics in a fresh registry; both cross the process
    boundary with the results so the parent can merge in trial order.
    """
    with _budget_scope(row_threads):
        if not collect:
            return campaign.run_trials(scenario, point_index), None
        tracer = SpanTracer()
        registry = MetricsRegistry()
        t0 = time.perf_counter()
        with use_registry(registry), collect_spans(tracer):
            results = campaign.run_trials(scenario, point_index)
    telemetry = {
        "tracer": tracer,
        "metrics": registry.as_dict(),
        "elapsed_s": time.perf_counter() - t0,
    }
    return results, telemetry


def _is_picklable(campaign: TrialCampaign) -> bool:
    """Whether the campaign can cross a process boundary."""
    try:
        pickle.dumps(campaign)
        return True
    except Exception:
        return False


def _emit(events: Optional[EventLog], event: str, **fields) -> None:
    if events is not None:
        events.emit(event, **fields)


def _point_fields(point: BERPoint) -> dict:
    return {
        "range_m": point.range_m,
        "trials": point.trials,
        "ber": point.ber,
        "frame_success_rate": point.frame_success_rate,
        "detection_rate": point.detection_rate,
    }


def run_campaign_parallel(
    scenarios: Sequence[Scenario],
    campaign: Optional[TrialCampaign] = None,
    label: str = "campaign",
    workers: Optional[int] = None,
    pool: Optional[ProcessPoolExecutor] = None,
    tracer: Optional[SpanTracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    events: Optional[EventLog] = None,
    progress: Optional[ProgressReporter] = None,
) -> CampaignResult:
    """Run a campaign, one point per chunk, across worker processes.

    Args:
        scenarios: one scenario per operating point (e.g. a range sweep).
        campaign: campaign configuration (defaults if omitted).
        label: name recorded on the result.
        workers: process count; ``None`` = :func:`default_workers`,
            ``1`` = serial in-process execution (no pool).
        pool: an existing executor to reuse (left open on return).
            Back-to-back campaigns — sweeps over sweeps, the perf
            harness's timed arms — amortise worker startup and keep
            worker caches warm by sharing one pool. Omitted, a pool is
            created and torn down per call. A campaign that cannot be
            pickled runs serially in-process even when a pool is given.
        tracer: optional hierarchical span tracer; worker-chunk spans
            are merged into it in trial order (per-stage totals:
            :meth:`~repro.obs.spans.SpanTracer.leaf_totals`).
        metrics: optional metrics registry; worker-chunk metric
            snapshots are merged into it in trial order, and the runner
            records its own instruments (chunks, workers, utilization)
            there too.
        events: optional JSONL event log; the runner emits
            ``campaign_start`` / ``chunk_done`` / ``point_end`` /
            ``campaign_end`` events as the run progresses.
        progress: optional live progress reporter; advanced as trial
            chunks *complete* (from executor callbacks, not the
            deterministic harvest loop), so the display is live while
            results and telemetry stay scheduling-independent.

    Returns:
        Aggregated results, one :class:`BERPoint` per scenario, in
        order — bit-identical for any worker count and the same
        campaign seed, with or without telemetry.
    """
    if campaign is None:
        campaign = TrialCampaign()
    if workers is None:
        workers = default_workers()

    collect = tracer is not None or metrics is not None
    t_start = time.perf_counter()

    serial = (
        pool is None and (workers <= 1 or len(scenarios) == 0)
    ) or not _is_picklable(campaign)
    effective_workers = 1 if serial else workers
    row_threads = row_budget() if serial else _chunk_row_threads(workers)
    if progress is not None:
        progress.start()
    _emit(
        events,
        "campaign_start",
        label=label,
        points=len(scenarios),
        trials_per_point=campaign.trials_per_point,
        seed=campaign.seed,
        workers=effective_workers,
    )

    try:
        if serial:
            out = CampaignResult(label=label)
            for i, scenario in enumerate(scenarios):
                t0 = time.perf_counter()
                if collect:
                    point_tracer = SpanTracer()
                    metrics_ctx = (
                        use_registry(metrics)
                        if metrics is not None
                        else nullcontext()
                    )
                    with metrics_ctx, collect_spans(point_tracer):
                        point = campaign.run_point(scenario, point_index=i)
                    if tracer is not None:
                        tracer.merge(point_tracer)
                else:
                    point = campaign.run_point(scenario, point_index=i)
                out.add(point)
                if progress is not None:
                    progress.advance(point.trials)
                _emit(
                    events,
                    "point_end",
                    point=i,
                    elapsed_s=round(time.perf_counter() - t0, 6),
                    **_point_fields(point),
                )
        else:
            own_pool = pool is None
            if own_pool:
                pool = ProcessPoolExecutor(max_workers=workers)
            busy_s = 0.0
            per_point: List[List[TrialResult]] = []
            point_busy_s: List[Optional[float]] = []
            try:
                def _advance_on_done(future) -> None:
                    # Runs on the executor's callback thread the moment
                    # a chunk lands — independent of the ordered harvest
                    # below, which is what keeps results deterministic.
                    if future.cancelled() or future.exception() is not None:
                        return
                    chunk_results, _ = future.result()
                    progress.advance(len(chunk_results))

                jobs = []
                for i, scenario in enumerate(scenarios):
                    job = pool.submit(
                        _run_chunk, campaign, scenario, i, collect, row_threads
                    )
                    if progress is not None:
                        job.add_done_callback(_advance_on_done)
                    jobs.append(job)
                # Iterate in submission (= trial) order so telemetry
                # merges are as deterministic as the results.
                for point_index, job in enumerate(jobs):
                    results, telemetry = job.result()
                    chunk_elapsed = None
                    if telemetry is not None:
                        if tracer is not None:
                            tracer.merge(telemetry["tracer"])
                        if metrics is not None:
                            metrics.merge_snapshot(telemetry["metrics"])
                        chunk_elapsed = telemetry["elapsed_s"]
                        busy_s += chunk_elapsed
                    per_point.append(results)
                    point_busy_s.append(chunk_elapsed)
                    _emit(
                        events,
                        "chunk_done",
                        point=point_index,
                        start=0,
                        trials=len(results),
                        elapsed_s=chunk_elapsed,
                    )
            finally:
                if own_pool:
                    pool.shutdown()

            out = CampaignResult(label=label)
            for i, (results, elapsed) in enumerate(zip(per_point, point_busy_s)):
                point = BERPoint.from_trials(results)
                out.add(point)
                _emit(
                    events,
                    "point_end",
                    point=i,
                    elapsed_s=round(elapsed, 6) if elapsed is not None else None,
                    **_point_fields(point),
                )
            if metrics is not None:
                wall = time.perf_counter() - t_start
                with use_registry(metrics):
                    CHUNKS_COUNTER.inc(len(jobs))
                    UTILIZATION_GAUGE.set(
                        busy_s / (wall * workers) if wall > 0 else 0.0
                    )
    finally:
        if progress is not None:
            progress.finish()

    if metrics is not None:
        with use_registry(metrics):
            CAMPAIGNS_COUNTER.inc()
            WORKERS_GAUGE.set(effective_workers)
            ROW_THREADS_GAUGE.set(row_threads)
    _emit(
        events,
        "campaign_end",
        label=label,
        elapsed_s=round(time.perf_counter() - t_start, 6),
        total_trials=out.total_trials,
    )
    return out


def run_observed_campaign(
    scenarios: Sequence[Scenario],
    campaign: Optional[TrialCampaign] = None,
    label: str = "campaign",
    workers: Optional[int] = None,
    pool: Optional[ProcessPoolExecutor] = None,
    manifest_path: Optional[Union[str, Path]] = None,
    events_path: Optional[Union[str, Path]] = None,
    lint_fingerprint: bool = False,
    progress: Optional[bool] = None,
    ledger: Optional[Union[bool, str, Path, Ledger]] = None,
) -> Tuple[CampaignResult, RunManifest]:
    """Run a campaign with full telemetry and return (result, manifest).

    The manifest captures the seed, scenario snapshots, package and
    numeric-engine versions, span timings, and metrics of the run;
    pass ``manifest_path`` to persist it (JSON, see
    :func:`repro.sim.export.save_manifest`) and ``events_path`` to
    stream a JSONL event log alongside. Results remain bit-identical
    to the unobserved runners.

    ``progress`` controls the live stderr progress line (``None`` =
    on in a TTY, off in CI/pipes; see :mod:`repro.obs.progress`).
    Heartbeat events always land in the event log when one is open.

    ``ledger`` files the finished manifest in a content-addressed run
    store (:class:`repro.obs.ledger.Ledger`): ``True`` uses the
    default root (``$VAB_LEDGER_DIR`` or ``~/.repro/ledger``), a path
    uses that root, a :class:`Ledger` is used as-is.

    With ``lint_fingerprint=True`` the manifest also records the
    :func:`repro.analysis.tree_fingerprint` of the installed ``repro``
    tree — a hash of the exact library sources plus a clean/dirty lint
    verdict, so a result can later be traced to a tree that provably
    honoured the determinism contract.
    """
    from repro import __version__
    from repro.analysis.engines import engine_versions
    from repro.phy.batch import BATCHED_ENGINE_VERSION
    from repro.sim.export import campaign_to_dict, save_manifest
    from repro.vanatta.fastfield import FASTFIELD_ENGINE_VERSION

    if campaign is None:
        campaign = TrialCampaign()
    if workers is None:
        workers = default_workers()
    tracer = SpanTracer()
    metrics = MetricsRegistry()
    events = EventLog(events_path) if events_path is not None else None
    reporter = ProgressReporter(
        total_trials=len(scenarios) * campaign.trials_per_point,
        label=label,
        enabled=progress,
        events=events,
    )
    if not reporter.enabled and events is None:
        reporter = None  # nothing to display, nowhere to heartbeat
    created = wall_clock_unix()
    t0 = time.perf_counter()
    try:
        result = run_campaign_parallel(
            scenarios,
            campaign,
            label=label,
            workers=workers,
            pool=pool,
            tracer=tracer,
            metrics=metrics,
            events=events,
            progress=reporter,
        )
    finally:
        if events is not None:
            events.close()
    lint_record = None
    if lint_fingerprint:
        from repro.analysis import tree_fingerprint

        lint_record = tree_fingerprint([Path(__file__).resolve().parent.parent])
    manifest = RunManifest(
        label=label,
        seed=campaign.seed,
        version=__version__,
        created_unix=round(created, 6),
        elapsed_s=round(time.perf_counter() - t0, 6),
        # The count that ran: a serial fallback records 1, not the request.
        workers=int(WORKERS_GAUGE.value(metrics)),
        campaign={
            "trials_per_point": campaign.trials_per_point,
            "payload_bytes": campaign.payload_bytes,
            "si_suppression_db": campaign.si_suppression_db,
        },
        scenarios=[scenario_snapshot(s) for s in scenarios],
        timings=tracer.as_dict(),
        metrics=metrics.as_dict(),
        results=campaign_to_dict(result),
        events_path=str(events_path) if events_path is not None else None,
        lint=lint_record,
        engine_versions={
            "phy.batch": BATCHED_ENGINE_VERSION,
            **engine_versions(),
            "vanatta.fastfield": FASTFIELD_ENGINE_VERSION,
        },
    )
    if manifest_path is not None:
        save_manifest(manifest, manifest_path)
    if ledger is not None and ledger is not False:
        store = (
            ledger
            if isinstance(ledger, Ledger)
            else Ledger(None if ledger is True else ledger)
        )
        store.record(manifest)
    return result, manifest
