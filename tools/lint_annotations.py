#!/usr/bin/env python
"""Emit GitHub workflow annotations from a vablint JSON report.

Reads the ``--json`` report written by ``tools/vablint.py`` and prints
one `workflow command`_ per finding::

    ::error file=src/repro/x.py,line=12,col=5,title=VAB013::message

GitHub renders these as inline annotations on the pull-request diff, so
lint findings land on the offending line without a problem-matcher
registration. Findings become ``error`` annotations; a report that is
clean (or missing, for runs that failed before the report was written)
produces no output. The exit code is always 0 — the lint step itself
owns pass/fail; this tool only decorates.

Usage::

    python tools/lint_annotations.py lint-report.json

.. _workflow command:
   https://docs.github.com/actions/reference/workflow-commands-for-github-actions
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional


def _escape_data(value: str) -> str:
    """Escape a workflow-command message payload."""
    return (
        value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def _escape_property(value: str) -> str:
    """Escape a workflow-command property (file, title, ...)."""
    return (
        _escape_data(value).replace(":", "%3A").replace(",", "%2C")
    )


def annotation_lines(report: Dict[str, object]) -> List[str]:
    """``::error`` workflow commands for every finding and parse error."""
    lines: List[str] = []
    findings: Iterable[Dict[str, object]] = list(
        report.get("findings", [])  # type: ignore[arg-type]
    ) + list(report.get("errors", []))  # type: ignore[arg-type]
    for raw in findings:
        props = ",".join(
            f"{key}={_escape_property(str(raw[source]))}"
            for key, source in (
                ("file", "path"), ("line", "line"),
                ("col", "col"), ("title", "rule"),
            )
            if source in raw
        )
        message = _escape_data(str(raw.get("message", "")))
        lines.append(f"::error {props}::{message}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 1:
        print(
            "usage: lint_annotations.py LINT_REPORT_JSON", file=sys.stderr
        )
        return 0
    path = Path(args[0])
    if not path.is_file():
        print(f"lint_annotations: no report at {path}", file=sys.stderr)
        return 0
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"lint_annotations: unreadable report: {exc}", file=sys.stderr)
        return 0
    for line in annotation_lines(report):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
