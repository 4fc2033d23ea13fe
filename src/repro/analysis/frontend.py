"""The driver behind ``tools/vablint.py``: flags, lint, render.

:func:`add_lint_flags` installs the CLI's options and :func:`run_lint`
runs one invocation end to end — discover, lint, optionally run the
dataflow engines, render — so the flow is testable without a
subprocess.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, TextIO

from repro.analysis.linter import DEFAULT_EXCLUDES, EXIT_ERROR, LintReport, lint_paths
from repro.analysis.reporters import render_json, render_stats, render_text


def rule_list(raw: Optional[str]) -> Optional[List[str]]:
    """Parse a comma-separated rule-id CLI argument."""
    if raw is None:
        return None
    return [part.strip().upper() for part in raw.split(",") if part.strip()]


def add_lint_flags(parser: argparse.ArgumentParser) -> None:
    """Install the lint flag set on an argparse parser."""
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the machine-readable JSON report")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule ids to run exclusively")
    parser.add_argument("--disable", default=None, metavar="RULES",
                        help="comma-separated rule ids to skip")
    parser.add_argument("--exclude", action="append", default=None,
                        metavar="GLOB",
                        help="glob pattern to skip during directory "
                             "recursion (repeatable; added to the default "
                             "tests/lint_fixtures/** exclude)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the per-file rules")
    parser.add_argument("--units", action="store_true",
                        help="run the interprocedural dataflow engines: "
                             "dimensional analysis (VAB006..VAB010), "
                             "shape/dtype analysis (VAB011..VAB016) and "
                             "effect/purity analysis (VAB017..VAB022)")
    parser.add_argument("--units-cache", default=".vablint_units_cache.json",
                        metavar="PATH", dest="units_cache",
                        help="cache file for incremental --units runs")
    parser.add_argument("--no-units-cache", action="store_true",
                        dest="no_units_cache",
                        help="force a cold --units run (no cache read/write)")
    parser.add_argument("--stats", action="store_true",
                        help="print per-engine timing and incremental-cache "
                             "hit/miss counts after the run (embedded in the "
                             "JSON report under \"stats\")")
    parser.add_argument("--catalogue", action="store_true",
                        help="print the rule catalogue and exit")


def run_lint(
    paths: Sequence[str],
    select: Optional[List[str]] = None,
    disable: Optional[List[str]] = None,
    exclude: Optional[Sequence[str]] = None,
    jobs: int = 1,
    units: bool = False,
    units_cache: Optional[str] = None,
    as_json: bool = False,
    stats: bool = False,
    out: Optional[TextIO] = None,
) -> int:
    """Run one lint invocation end to end; returns the process exit code.

    Args:
        paths: files/directories to lint.
        select, disable: rule-id filters.
        exclude: extra glob patterns *added to* the default excludes
            (the lint-fixture tree is always skipped unless the file is
            named explicitly).
        jobs: worker processes for the per-file rules.
        units: run the dataflow engines (VAB006..VAB022).
        units_cache: cache file for incremental engine runs (implies
            nothing when ``units`` is off).
        as_json: JSON report instead of text.
        stats: append per-engine timing / cache hit-miss stats to the
            text report (or embed them in the JSON one).
        out: stream to write the report to (default stdout).
    """
    stream = out if out is not None else sys.stdout
    patterns = list(DEFAULT_EXCLUDES) + [p for p in (exclude or []) if p]
    try:
        report: LintReport = lint_paths(
            paths,
            select=select,
            disable=disable,
            exclude=patterns,
            jobs=jobs,
            units=units,
            units_cache=units_cache if units else None,
        )
    except FileNotFoundError as exc:
        print(f"vablint: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except KeyError as exc:
        print(f"vablint: {exc.args[0]}", file=sys.stderr)
        return EXIT_ERROR

    if as_json:
        stream.write(render_json(report, stats=stats))
    else:
        stream.write(render_text(report))
        if stats:
            stream.write(render_stats(report))
    return report.exit_code
