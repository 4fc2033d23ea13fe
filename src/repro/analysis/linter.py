"""Lint orchestration: file discovery and rule execution.

The flow is ``paths -> files -> FileContext -> rules -> findings``.
Every registered rule runs on every discovered file; there is no
per-line or per-rule opt-out. :func:`lint_paths` is the everything
entry point; the tier-1 test ``tests/test_vablint.py`` runs it over
``src/repro`` with every rule.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.findings import PARSE_ERROR_RULE, Finding
from repro.analysis.registry import FileContext, make_rules

# Importing the rules module populates the registry as a side effect.
from repro.analysis import rules as _rules  # noqa: F401

PathLike = Union[str, Path]

DEFAULT_EXCLUDES: Tuple[str, ...] = ("tests/lint_fixtures/**",)
"""Glob patterns dropped from directory discovery: the lint fixtures
are *deliberately* dirty."""


@dataclass
class LintReport:
    """Everything one lint run produced.

    Attributes:
        findings: rule findings, sorted by location.
        errors: parse failures (``VAB000``) — these mean the run could
            not fully evaluate the tree.
        files: number of Python files inspected.
        rules: rule ids that ran.
    """

    findings: List[Finding] = field(default_factory=list)
    errors: List[Finding] = field(default_factory=list)
    files: int = 0
    rules: List[str] = field(default_factory=list)
    engine_stats: Dict[str, Dict[str, object]] = field(default_factory=dict)
    """Engine name -> run stats (:meth:`EngineReport.stats`) for each
    dataflow engine that ran, in engine-table order; empty for
    suffix-only lint runs."""

    @property
    def units_stats(self) -> Optional[Dict[str, object]]:
        return self.engine_stats.get("units")

    @property
    def shapes_stats(self) -> Optional[Dict[str, object]]:
        return self.engine_stats.get("shapes")

    @property
    def effects_stats(self) -> Optional[Dict[str, object]]:
        return self.engine_stats.get("effects")

    @property
    def clean(self) -> bool:
        """True when no findings and no parse errors."""
        return not self.findings and not self.errors


def _excluded(path: Path) -> bool:
    """True when ``path`` matches any :data:`DEFAULT_EXCLUDES` glob.

    Patterns are matched against the posix form of the path both as
    given and anchored at any directory boundary, so
    ``tests/lint_fixtures/**`` excludes the fixture tree whether the
    lint was invoked from the repo root or with absolute paths.
    """
    posix = path.as_posix()
    for pattern in DEFAULT_EXCLUDES:
        if fnmatch(posix, pattern) or fnmatch(posix, f"*/{pattern}"):
            return True
    return False


def discover_files(paths: Sequence[PathLike]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Args:
        paths: files and/or directories. Directories recurse, skipping
            any entry below them whose name starts with ``.`` (dots in
            the named directory's own path, ``..`` or ``~/.cache``,
            count for nothing) and any file matching
            :data:`DEFAULT_EXCLUDES`. Explicitly named files are never
            excluded — only files found by directory recursion.

    Raises:
        FileNotFoundError: when a named path does not exist.
    """
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                p for p in sorted(path.rglob("*.py"))
                if not any(
                    part.startswith(".") for part in p.relative_to(path).parts
                )
                and not _excluded(p)
            )
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    seen = set()
    unique: List[Path] = []
    for f in files:
        if f not in seen:
            seen.add(f)
            unique.append(f)
    return unique


def lint_source(source: str, path: PathLike = "<string>") -> List[Finding]:
    """Lint one module's source with every rule; returns sorted findings.

    A syntax error yields a single ``VAB000`` finding rather than
    raising, so one broken file doesn't hide the rest of a tree.
    """
    try:
        ctx = FileContext.parse(Path(path), source)
    except SyntaxError as exc:
        return [Finding(
            path=str(path),
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule_id=PARSE_ERROR_RULE,
            message=f"could not parse file: {exc.msg}",
        )]
    return sorted(finding for rule in make_rules() for finding in rule.check(ctx))


def _lint_one(path_str: str) -> Tuple[bool, List[Finding]]:
    """Worker for the parallel front-end: lint one file.

    Returns ``(read_ok, findings)``; module-level so it pickles into a
    :class:`~concurrent.futures.ProcessPoolExecutor`.
    """
    file_path = Path(path_str)
    try:
        source = file_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return False, [Finding(
            path=str(file_path), line=1, col=0,
            rule_id=PARSE_ERROR_RULE, message=f"could not read file: {exc}",
        )]
    return True, lint_source(source, file_path)


def lint_paths(
    paths: Sequence[PathLike],
    jobs: int = 1,
    units: bool = False,
    units_cache: Optional[PathLike] = None,
) -> LintReport:
    """Lint every Python file under ``paths`` with every rule.

    Args:
        paths: files and/or directories (directories recurse, skipping
            :data:`DEFAULT_EXCLUDES`).
        jobs: worker processes for the per-file rules; ``1`` keeps
            everything in-process.
        units: also run the interprocedural dataflow engines — the
            dimensional analysis (VAB006..VAB010,
            :mod:`repro.analysis.units`), the shape/dtype analysis
            (VAB011..VAB016, :mod:`repro.analysis.shapes`) and the
            effect/purity analysis (VAB017..VAB018,
            :mod:`repro.analysis.effects`).
        units_cache: optional cache file for incremental engine runs,
            shared by all three engines (one section each).

    Returns:
        The aggregate :class:`LintReport`.
    """
    report = LintReport(rules=[r.rule_id for r in make_rules()])
    files = discover_files(paths)
    work = [f.as_posix() for f in files]
    if jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_lint_one, work, chunksize=8))
    else:
        results = [_lint_one(item) for item in work]
    for read_ok, findings in results:
        report.files += 1 if read_ok else 0
        for finding in findings:
            (report.errors if finding.is_error else report.findings).append(finding)
    if units:
        # Imported here, not at module level: suffix-only lint runs
        # never need the engines.
        from repro.analysis.engines import ENGINES

        for engine in ENGINES:
            engine_report = engine.analyze(
                files, cache_path=Path(units_cache) if units_cache else None
            )
            report.rules.extend(engine.rule_ids)
            report.engine_stats[engine.name] = engine_report.stats()
            report.findings.extend(engine_report.findings)
            report.errors.extend(engine_report.errors)
        # A syntax-broken file surfaces VAB000 from every pass; keep one.
        unique = {
            (f.path, f.line, f.col, f.rule_id, f.message): f
            for f in report.errors
        }
        report.errors = list(unique.values())
    report.findings.sort()
    report.errors.sort()
    return report
