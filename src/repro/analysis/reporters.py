"""Render a :class:`~repro.analysis.linter.LintReport` for humans or CI.

Three formats: a compact text listing (default), a JSON document with
a stable schema (``{"files", "rules", "clean", "findings": [...],
"errors": [...], "counts"}``) that the CI lint job and the perf-harness
gate parse, and a SARIF 2.1.0 log (:func:`render_sarif`) for the
GitHub code-scanning upload.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.analysis.linter import LintReport
from repro.analysis.registry import rule_catalogue

SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
SARIF_VERSION = "2.1.0"
TOOL_NAME = "vablint"
TOOL_VERSION = "1.0.0"


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
    effect/purity engine's rules (VAB017..VAB022); the engine rules run
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


def _sarif_rules() -> List[Dict[str, object]]:
    """The full VAB catalogue as SARIF ``reportingDescriptor`` objects."""
    from repro.analysis.engines import engine_rules

    rules: List[Dict[str, object]] = [{
        "id": "VAB000",
        "name": "parse-error",
        "shortDescription": {"text": "file could not be parsed"},
    }]
    for rule_id, cls in rule_catalogue().items():
        rules.append({
            "id": rule_id,
            "name": cls.name,
            "shortDescription": {"text": cls.summary},
        })
    for rule_id, name, summary in engine_rules():
        rules.append({
            "id": rule_id,
            "name": name,
            "shortDescription": {"text": summary},
        })
    return rules


def render_sarif(report: LintReport) -> str:
    """SARIF 2.1.0 log for the GitHub code-scanning upload.

    One run, one result per finding; parse errors (VAB000) map to
    ``level: error``, rule findings to ``level: warning``.  Paths are
    emitted as given to the linter (repo-relative in CI), which is the
    ``artifactLocation.uri`` form ``upload-sarif`` expects.
    """
    results: List[Dict[str, object]] = []
    for finding in list(report.errors) + list(report.findings):
        results.append({
            "ruleId": finding.rule_id,
            "level": "error" if finding.is_error else "warning",
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": finding.line,
                        # SARIF columns are 1-based; findings are 0-based.
                        "startColumn": finding.col + 1,
                    },
                },
            }],
        })
    log = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": TOOL_NAME,
                    "version": TOOL_VERSION,
                    "rules": _sarif_rules(),
                },
            },
            "results": results,
        }],
    }
    return json.dumps(log, indent=2, sort_keys=False) + "\n"
