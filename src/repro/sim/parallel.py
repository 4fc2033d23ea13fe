"""Parallel, cache-warm, observable execution of Monte-Carlo campaigns.

The paper's evidence rests on >1,500 field trials; reproducing that
statistical weight in simulation means running campaigns orders of
magnitude larger than the seed's serial loop allowed. This module
runs a campaign point by point, in-process or across a
``ProcessPoolExecutor``, with **bit-identical** results either way:

* Seeding stays on the ``SeedSequence.spawn`` discipline — trial ``t``
  of point ``p`` always draws from ``SeedSequence((seed, p)).spawn(n)[t]``
  regardless of which worker runs it or in what order chunks finish
  (see :meth:`TrialCampaign.trial_seeds`).
* Campaigns are sharded by whole operating point: one chunk is one
  :meth:`TrialCampaign.run_point` call, a ``(trials, samples)`` point
  batch aggregated where it ran, so the span and chunk counts are
  scheduling-independent too.
* A serial run (``workers=1``) runs the same chunks in-process, one
  after another, and one harvest loop takes both kinds in point order.
  Serial and pool runs therefore record the same spans, events and
  runner instruments.

Workers warm their own process-local caches (channel responses, Wenz
shaping filters), so per-point invariants are computed once per worker,
not once per trial. ``workers=1`` is the in-process serial path — no
pool, no pickling — which is also the fallback when a campaign carries
a non-picklable factory (with or without a supplied pool).

Telemetry rides the same machinery: pass ``tracer=`` (hierarchical
spans), ``metrics=`` (a registry), and/or ``events=`` (a JSONL event
log) and each chunk collects into its own tracer and registry, which
travel home with the point, and the harvest merges them in point
order — so telemetry, like the results, is independent of
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

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from functools import partial
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from repro.contracts import Effectful
from repro.obs.ledger import Ledger
from repro.obs.manifest import (
    EventLog,
    RunManifest,
    scenario_snapshot,
    wall_clock_unix,
)
from repro.obs.metrics import MetricsRegistry, counter, gauge, use_registry
from repro.obs.probes import probe_mode, probes
from repro.obs.progress import ProgressReporter
from repro.obs.spans import SpanTracer, collect_spans
from repro.sim.results import BERPoint, CampaignResult
from repro.sim.scenario import Scenario
from repro.sim.trials import TrialCampaign

CHUNKS_COUNTER = counter(
    "repro.sim.parallel.chunks", "point chunks run, in-process or on the pool"
)
CAMPAIGNS_COUNTER = counter(
    "repro.sim.parallel.campaigns", "campaigns executed by the runner"
)
WORKERS_GAUGE = gauge(
    "repro.sim.parallel.workers", "worker processes of the last campaign"
)
UTILIZATION_GAUGE = gauge(
    "repro.sim.parallel.worker_utilization",
    "busy-fraction of the last campaign (chunk-seconds / wall * workers)",
)


def usable_cpus() -> Effectful[int, "reads:host"]:
    """CPUs this process may run on: its affinity mask where the OS has
    one (a cpuset or ``taskset`` narrows it), else ``os.cpu_count()``.

    A host read that tunes scheduling only; no result depends on it.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def default_workers() -> Effectful[int, "reads:host"]:
    """Worker count when unspecified: all usable cores, capped at 8.

    Usable cores are the process's affinity mask (:func:`usable_cpus`),
    so a CPU-restricted container starts no more workers than it may
    run. The host read only tunes scheduling (chunk fan-out), never
    results: trial outcomes are seeded per-trial, so any worker count
    replays the same numbers.  The ``reads:host`` grant records exactly
    that.
    """
    return max(1, min(usable_cpus(), 8))


def _run_chunk(
    campaign: TrialCampaign,
    scenario: Scenario,
    point_index: int,
    collect: bool,
    probes_mode: str,
) -> Tuple[BERPoint, float, Optional[dict]]:
    """Run one point: the unit of work of serial and pool runs alike.

    The point runs on the calling thread, with its runtime probes in
    ``probes_mode`` (:mod:`repro.obs.probes`): the runner passes its
    own, since a pool worker's is whatever ``$VAB_PROBES`` says.
    Returns the point, its elapsed seconds and, when collecting, the
    point's spans and metrics gathered in a fresh tracer and registry,
    which the caller merges in point order.
    """
    telemetry = None
    t0 = time.perf_counter()
    # The DC blocker's scipy.signal costs about a second to import. Load
    # it here, before the point's spans open, so the first point of each
    # process does not bill it to its suppress span. A pool's parent
    # never demodulates and loads no SciPy at all (``q_inverse`` imports
    # ``scipy.special`` on its first call).
    import scipy.signal  # noqa: F401

    with probes(probes_mode):
        if collect:
            tracer = SpanTracer()
            registry = MetricsRegistry()
            with use_registry(registry), collect_spans(tracer):
                point = campaign.run_point(scenario, point_index)
            telemetry = {"tracer": tracer, "metrics": registry.as_dict()}
        else:
            point = campaign.run_point(scenario, point_index)
    return point, time.perf_counter() - t0, telemetry


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
    """Run a campaign, one point per chunk, in-process or on a process pool.

    Args:
        scenarios: one scenario per operating point (e.g. a range sweep).
        campaign: campaign configuration (defaults if omitted).
        label: name recorded on the result.
        workers: process count; ``None`` = :func:`default_workers`,
            ``1`` = serial in-process execution (no pool).
        pool: an existing executor to reuse (left open on return).
            Back-to-back campaigns — sweeps over sweeps, perfbench's
            timed passes — amortise worker startup and keep
            worker caches warm by sharing one pool. Omitted, a pool is
            created and torn down per call. A campaign that cannot be
            pickled runs serially in-process even when a pool is given.
        tracer: optional hierarchical span tracer; each chunk's spans
            are merged into it in point order (per-stage totals:
            :meth:`~repro.obs.spans.SpanTracer.leaf_totals`).
        metrics: optional metrics registry; each chunk's metric
            snapshot is merged into it in point order, and the runner
            records its own instruments (chunks, workers, utilization)
            there too.
        events: optional JSONL event log; the runner emits
            ``campaign_start``, then ``chunk_done`` and ``point_end``
            per point, then ``campaign_end``. A point that raises emits
            ``point_failed`` (its index and the error's repr) and the
            original exception propagates: nothing after it is recorded.
        progress: optional live progress reporter, advanced once per
            point by the ordered harvest loop (so a point finished out
            of order counts once the points before it are in) and
            finished before this returns.

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
    chunk_args = (collect, probe_mode())
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

    own_pool = not serial and pool is None
    out = CampaignResult(label=label)
    busy_s = 0.0
    try:
        if serial:
            chunks = [
                partial(_run_chunk, campaign, scenario, i, *chunk_args)
                for i, scenario in enumerate(scenarios)
            ]
        else:
            if own_pool:
                pool = ProcessPoolExecutor(max_workers=workers)
            chunks = [
                pool.submit(
                    _run_chunk, campaign, scenario, i, *chunk_args
                ).result
                for i, scenario in enumerate(scenarios)
            ]
        # Harvest in point order, so telemetry merges are as
        # deterministic as the results.
        for i, chunk in enumerate(chunks):
            try:
                point, elapsed_s, telemetry = chunk()
            except Exception as exc:
                _emit(events, "point_failed", point=i, error=repr(exc))
                raise
            if telemetry is not None:
                if tracer is not None:
                    tracer.merge(telemetry["tracer"])
                if metrics is not None:
                    metrics.merge_snapshot(telemetry["metrics"])
            busy_s += elapsed_s
            out.add(point)
            if progress is not None:
                progress.advance(point.trials)
            elapsed_s = round(elapsed_s, 6)
            _emit(
                events, "chunk_done", point=i, trials=point.trials,
                elapsed_s=elapsed_s,
            )
            _emit(
                events, "point_end", point=i, elapsed_s=elapsed_s,
                **asdict(point),
            )
    finally:
        if own_pool:
            pool.shutdown()
        if progress is not None:
            progress.finish()

    if metrics is not None:
        wall = time.perf_counter() - t_start
        with use_registry(metrics):
            CHUNKS_COUNTER.inc(len(scenarios))
            UTILIZATION_GAUGE.set(
                busy_s / (wall * effective_workers) if wall > 0 else 0.0
            )
            CAMPAIGNS_COUNTER.inc()
            WORKERS_GAUGE.set(effective_workers)
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
    uses that root, a :class:`Ledger` is used as-is. With none of
    ``manifest_path``, ``events_path`` and ``ledger`` nothing is written.
    A campaign without a canonical record (:meth:`TrialCampaign.snapshot`)
    raises ``TypeError`` before any point runs.
    """
    from repro import __version__
    from repro.phy.batch import BATCHED_ENGINE_VERSION
    from repro.sim.export import campaign_to_dict, save_manifest
    from repro.vanatta.fastfield import FASTFIELD_ENGINE_VERSION

    if campaign is None:
        campaign = TrialCampaign()
    if workers is None:
        workers = default_workers()
    campaign_record = campaign.snapshot()
    scenario_records = [scenario_snapshot(s) for s in scenarios]
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
    manifest = RunManifest(
        label=label,
        seed=campaign.seed,
        version=__version__,
        created_unix=round(created, 6),
        elapsed_s=round(time.perf_counter() - t0, 6),
        # The count that ran: a serial fallback records 1, not the request.
        workers=int(WORKERS_GAUGE.value(metrics)),
        campaign=campaign_record,
        scenarios=scenario_records,
        timings=tracer.as_dict(),
        metrics=metrics.as_dict(),
        results=campaign_to_dict(result),
        events_path=str(events_path) if events_path is not None else None,
        engine_versions={
            "phy.batch": BATCHED_ENGINE_VERSION,
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
