"""Render a run manifest (+ optional event log) as breakdown tables.

This is the analysis half of the observability layer: given the
JSON-safe record a campaign emitted (see :mod:`repro.obs.manifest`),
produce the human-readable per-stage and per-point breakdowns behind
``repro obs report``. Pure string formatting — no simulation imports —
so reports can be rendered anywhere a manifest file can be read.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.manifest import RunManifest
from repro.obs.spans import PATH_SEPARATOR


def stage_rows(timings: dict) -> List[dict]:
    """Leaf-aggregated stage table rows from a manifest's span dict.

    Every span path is attributed to its innermost name, sorted by
    total time descending. ``share`` is each stage's fraction of the
    run's root span total (falling back to the largest stage when the
    manifest has no root span).
    """
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    root_total = 0.0
    for path_str, stats in timings.items():
        parts = path_str.split(PATH_SEPARATOR)
        leaf = parts[-1]
        totals[leaf] = totals.get(leaf, 0.0) + float(stats["total_s"])
        counts[leaf] = counts.get(leaf, 0) + int(stats["count"])
        if len(parts) == 1:
            root_total += float(stats["total_s"])
    if root_total <= 0.0:
        root_total = max(totals.values(), default=0.0)
    rows = []
    for leaf in sorted(totals, key=lambda name: -totals[name]):
        total = totals[leaf]
        count = counts[leaf]
        rows.append(
            {
                "stage": leaf,
                "count": count,
                "total_s": total,
                "mean_ms": 1e3 * total / max(count, 1),
                "share": total / root_total if root_total > 0 else 0.0,
            }
        )
    return rows


def span_tree_lines(timings: dict) -> List[str]:
    """The span hierarchy, indented by nesting depth."""
    lines = []
    for path_str in sorted(timings):
        parts = path_str.split(PATH_SEPARATOR)
        stats = timings[path_str]
        indent = "  " * (len(parts) - 1)
        lines.append(
            f"{indent}{parts[-1]:<{max(28 - len(indent), 1)}} "
            f"{stats['count']:>7} {stats['total_s']:>10.3f}s "
            f"{stats['mean_ms']:>10.3f}ms"
        )
    return lines


def point_wall_clocks(events: Sequence[dict]) -> Dict[int, float]:
    """point index -> wall/busy seconds, from ``point_end`` events."""
    walls: Dict[int, float] = {}
    for event in events:
        if event.get("event") == "point_end" and "point" in event:
            elapsed = event.get("elapsed_s")
            if elapsed is not None:
                walls[int(event["point"])] = float(elapsed)
    return walls


def engine_line(metrics: dict) -> Optional[str]:
    """How the campaign's trials were dispatched, from the run's counters.

    Distinguishes trials demodulated by the batched kernel from those
    demodulated one row at a time (a receive chain the batched kernel
    does not support: rake, equaliser, timing search, or a subclass).
    None when the run records no trials.
    """
    counters = metrics.get("counters", {})
    batched = int(counters.get("repro.sim.trials.batched_trials", 0))
    fallback = int(counters.get("repro.sim.trials.fallback_trials", 0))
    if not (batched or fallback):
        return None
    if fallback == 0:
        return f"batched ({batched} trials)"
    if batched == 0:
        return f"per-row demod ({fallback} trials)"
    return f"mixed ({batched} batched, {fallback} per-row demod)"


def _table(headers: Sequence[str], rows: List[Sequence[str]]) -> List[str]:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return lines


def render_report(
    manifest: RunManifest, events: Optional[Sequence[dict]] = None
) -> str:
    """The full ``repro obs report`` text for one manifest."""
    lines: List[str] = []
    created = time.strftime(
        "%Y-%m-%d %H:%M:%S UTC", time.gmtime(manifest.created_unix)
    )
    trials = manifest.total_trials
    rate = trials / manifest.elapsed_s if manifest.elapsed_s > 0 else 0.0
    lines.append(f"=== run: {manifest.label} (seed {manifest.seed}) ===")
    lines.append(f"version    : {manifest.version}")
    lines.append(f"created    : {created}")
    lines.append(f"workers    : {manifest.workers}")
    lines.append(f"elapsed    : {manifest.elapsed_s:.3f} s")
    lines.append(
        f"trials     : {trials} across "
        f"{len(manifest.results.get('points', []))} points "
        f"({rate:.1f} trials/s)"
    )
    engine = engine_line(manifest.metrics)
    if engine:
        lines.append(f"dispatch   : {engine}")
    for key, value in sorted(manifest.campaign.items()):
        lines.append(f"{key:<11}: {value}")
    if manifest.events_path:
        lines.append(f"events     : {manifest.events_path}")

    if manifest.timings:
        lines.append("")
        lines.append("--- per-stage breakdown ---")
        rows = [
            [
                r["stage"],
                str(r["count"]),
                f"{r['total_s']:.3f}",
                f"{r['mean_ms']:.3f}",
                f"{100.0 * r['share']:.1f}%",
            ]
            for r in stage_rows(manifest.timings)
        ]
        lines.extend(
            _table(["stage", "count", "total_s", "mean_ms", "share"], rows)
        )
        lines.append("")
        lines.append("--- span tree ---")
        lines.extend(span_tree_lines(manifest.timings))

    points = manifest.results.get("points", [])
    if points:
        walls = point_wall_clocks(events or [])
        lines.append("")
        lines.append("--- per-point breakdown ---")
        rows = []
        for i, p in enumerate(points):
            snr = p.get("mean_snr_db")
            rows.append(
                [
                    str(i),
                    f"{p['range_m']:.0f}",
                    str(p["trials"]),
                    f"{p['ber']:.4f}",
                    f"{p['frame_success_rate']:.2f}",
                    f"{p['detection_rate']:.2f}",
                    f"{snr:.1f}" if snr is not None else "-inf",
                    f"{walls[i]:.3f}" if i in walls else "-",
                ]
            )
        lines.extend(
            _table(
                [
                    "point", "range_m", "trials", "ber",
                    "frames", "detect", "snr_db", "wall_s",
                ],
                rows,
            )
        )

    lines.extend(_metrics_lines(manifest.metrics))
    return "\n".join(lines) + "\n"


def _metrics_lines(metrics: dict) -> List[str]:
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    histograms = metrics.get("histograms", {})
    if not (counters or gauges or histograms):
        return []
    lines = ["", "--- metrics ---"]
    width = max(
        (len(n) for n in (*counters, *gauges, *histograms)), default=0
    )
    for name, value in sorted(counters.items()):
        lines.append(f"counter    {name:<{width}}  {value:g}")
    for name, value in sorted(gauges.items()):
        lines.append(f"gauge      {name:<{width}}  {value:g}")
    for name, data in sorted(histograms.items()):
        mean = data["total"] / data["count"] if data["count"] else 0.0
        lo = f"{data['min']:.2f}" if data["min"] is not None else "-"
        hi = f"{data['max']:.2f}" if data["max"] is not None else "-"
        lines.append(
            f"histogram  {name:<{width}}  count={data['count']} "
            f"mean={mean:.2f} min={lo} max={hi}"
        )
        buckets = []
        bounds = data["bounds"]
        for i, count in enumerate(data["bucket_counts"]):
            label = f"<={bounds[i]:g}" if i < len(bounds) else f">{bounds[-1]:g}"
            buckets.append(f"{label}:{count}")
        lines.append("           " + "  ".join(buckets))
    return lines
