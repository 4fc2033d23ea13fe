"""Unified observability: spans, metrics, manifests, ledger, traces, probes.

Campaigns at the paper's trial counts (>1,500 field trials) are only
trustworthy when you can see inside them: where the wall-clock went,
how the caches behaved, which receiver stages failed, and exactly what
configuration produced a result file. This package is the substrate the
rest of the simulator reports through:

* :mod:`repro.obs.spans` — hierarchical trace spans
  (``point > batch > channel/reflect/noise/demod``, with
  ``suppress/detect/cfo/slice/parse`` inside ``demod``) with a no-op
  fast path when no tracer is installed.
* :mod:`repro.obs.metrics` — a process-local metrics registry
  (counters, gauges, histograms) that engine layers register
  instruments with.
* :mod:`repro.obs.manifest` — run manifests and JSONL event logs, the
  durable record of a campaign run, plus the manifest JSON codec.
* :mod:`repro.obs.ledger` — a persistent content-addressed run store:
  every observed campaign filed under a digest of its configuration,
  so repeats collide and nothing silently shadows anything.
* :mod:`repro.obs.trace` — Chrome trace-event export (``chrome://
  tracing`` / Perfetto) of a run's event log and span totals.
* :mod:`repro.obs.progress` — live trials-done/rate/ETA reporting with
  TTY autodetection and heartbeat events.
* :mod:`repro.obs.probes` — near-zero-overhead runtime physics
  invariant probes (finite signals, level ceilings, BER bounds, frame
  accounting) wired into the hot engine paths.
* :mod:`repro.obs.report` — renders a manifest/event log into the
  per-stage, per-point breakdown behind ``repro obs report``.

Layering: ``obs`` sits below :mod:`repro.sim` — simulation code imports
``obs``, never the reverse — so any subsystem (PHY, link, baselines)
can instrument itself without dependency cycles.
"""

from repro.obs.spans import (
    SpanTracer,
    active_tracer,
    collect_spans,
    span,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_registry,
    counter,
    gauge,
    histogram,
    instruments,
    metrics_snapshot,
    reset_metrics,
    use_registry,
)
from repro.obs.manifest import (
    EventLog,
    RunManifest,
    load_manifest,
    manifest_from_dict,
    manifest_to_dict,
    read_events,
    save_manifest,
    scenario_snapshot,
)
from repro.obs.ledger import (
    Ledger,
    LedgerRecord,
    diff_manifests,
    render_diff,
    render_ledger,
    run_id,
    run_key,
)
from repro.obs.probes import (
    ProbeViolation,
    probe_finite,
    probe_invariant,
    probe_mode,
    probe_signal,
    probe_unit_interval,
    probes,
    set_probe_mode,
)
from repro.obs.progress import ProgressReporter, progress_enabled
from repro.obs.trace import (
    chrome_trace,
    validate_trace_events,
    write_trace,
)
from repro.obs.report import render_report

__all__ = [
    "SpanTracer",
    "span",
    "collect_spans",
    "active_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "instruments",
    "use_registry",
    "active_registry",
    "metrics_snapshot",
    "reset_metrics",
    "EventLog",
    "RunManifest",
    "read_events",
    "scenario_snapshot",
    "manifest_to_dict",
    "manifest_from_dict",
    "save_manifest",
    "load_manifest",
    "Ledger",
    "LedgerRecord",
    "run_key",
    "run_id",
    "diff_manifests",
    "render_diff",
    "render_ledger",
    "ProbeViolation",
    "probes",
    "probe_mode",
    "set_probe_mode",
    "probe_signal",
    "probe_finite",
    "probe_unit_interval",
    "probe_invariant",
    "ProgressReporter",
    "progress_enabled",
    "chrome_trace",
    "write_trace",
    "validate_trace_events",
    "render_report",
]
