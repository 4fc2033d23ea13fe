"""Render a :class:`~repro.analysis.linter.LintReport` for humans or CI.

Two formats: a compact text listing (default) and a JSON document with
a stable schema (``{"files", "rules", "clean", "findings": [...],
"errors": [...], "counts"}``) that the CI lint job parses.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.analysis.linter import LintReport
from repro.analysis.registry import rule_catalogue


def render_text(report: LintReport, verbose: bool = False) -> str:
    """Human-readable listing; one line per finding plus a summary."""
    lines = [f.render() for f in report.errors + report.findings]
    if report.clean:
        lines.append(
            f"clean: {report.files} files, "
            f"{len(report.rules)} rules ({', '.join(report.rules)})"
        )
    else:
        total = len(report.findings) + len(report.errors)
        by_rule = ", ".join(
            f"{rule}={n}" for rule, n in report.counts_by_rule().items()
        )
        lines.append(f"{total} finding(s) in {report.files} files"
                     + (f" [{by_rule}]" if by_rule else ""))
    for name, stats in report.engine_stats.items():
        lines.append(
            f"{name}: engine {stats['engine_version']}, "
            f"{stats['analyzed']} analyzed, {stats['reused']} cached, "
            f"{stats['passes']} passes"
        )
    if verbose:
        lines.append("")
        lines.append(render_catalogue())
    return "\n".join(lines) + "\n"


def render_json(report: LintReport, stats: bool = False) -> str:
    """Machine-readable report (stable schema, sorted findings).

    ``stats=True`` adds a ``"stats"`` block with per-engine timings and
    cache hit/miss counts; it is opt-in because the timings are
    wall-clock and would break the report's byte determinism.
    """
    payload = {
        "files": report.files,
        "rules": report.rules,
        "clean": report.clean,
        "findings": [f.to_dict() for f in report.findings],
        "errors": [f.to_dict() for f in report.errors],
        "counts": report.counts_by_rule(),
    }
    payload.update(report.engine_stats)
    if stats:
        payload["stats"] = stats_payload(report)
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def render_catalogue() -> str:
    """The rule catalogue as ``VABxxx name — summary`` lines.

    Covers the per-file registry (VAB001..VAB005), the
    dimensional-analysis engine's rules (VAB006..VAB010), the
    shape/dtype dataflow engine's rules (VAB011..VAB016), and the
    effect/purity engine's rules (VAB017..VAB018); the engine rules run
    only under ``--units`` and live outside the registry.
    """
    from repro.analysis.engines import engine_rules

    lines = []
    for rule_id, cls in rule_catalogue().items():
        lines.append(f"{rule_id} {cls.name} — {cls.summary}")
    for rule_id, name, summary in engine_rules():
        lines.append(f"{rule_id} {name} — {summary} (requires --units)")
    return "\n".join(lines)


def render_stats(report: LintReport) -> str:
    """Per-engine timing and incremental-cache hit/miss lines.

    Rendered only under ``--stats``: the timing values are wall-clock
    and must never enter the deterministic report payload.
    """
    lines = ["--- lint stats ---"]
    lines.append(
        f"rules: {report.files} files in "
        f"{report.timings.get('rules', 0.0):.3f}s"
    )
    for label, stats in report.engine_stats.items():
        lines.append(
            f"{label}: {stats['analyzed']} analyzed (cache miss), "
            f"{stats['reused']} reused (cache hit), "
            f"{stats['passes']} passes in "
            f"{report.timings.get(label, 0.0):.3f}s"
        )
    return "\n".join(lines) + "\n"


def stats_payload(report: LintReport) -> Dict[str, object]:
    """The ``--stats`` block embedded in the JSON report on request."""
    payload: Dict[str, object] = {
        "timings_s": {
            k: round(v, 6) for k, v in sorted(report.timings.items())
        },
    }
    for label, stats in report.engine_stats.items():
        payload[label] = {
            "hits": stats["reused"],
            "misses": stats["analyzed"],
            "passes": stats["passes"],
        }
    return payload
