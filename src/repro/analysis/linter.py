"""Lint orchestration: file discovery, rule execution, fingerprints.

The flow is ``paths -> files -> FileContext -> rules -> findings``,
with the suppression filter applied last so a ``# vablint: disable=``
comment silences any rule. :func:`lint_paths` is the everything
entry point used by ``tools/vablint.py``, the ``repro lint`` CLI
subcommand, and the perf harness's dirty-tree gate.

A :func:`tree_fingerprint` hashes the exact sources linted together
with the rule catalogue, so a campaign manifest can record *which* tree
was clean under *which* rules — byte-level provenance for the
determinism contract.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.findings import PARSE_ERROR_RULE, Finding
from repro.analysis.registry import FileContext, Rule, make_rules, rule_catalogue
from repro.analysis.suppressions import SuppressionIndex

# Importing the rules module populates the registry as a side effect.
from repro.analysis import rules as _rules  # noqa: F401

PathLike = Union[str, Path]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2
"""The CLI exit-code contract: clean / rule findings / unusable input."""

DEFAULT_EXCLUDES: Tuple[str, ...] = ("tests/lint_fixtures/**",)
"""Glob patterns dropped from discovery unless the caller overrides
``exclude``: the lint fixtures are *deliberately* dirty."""


@dataclass
class LintReport:
    """Everything one lint run produced.

    Attributes:
        findings: rule findings after suppression, sorted by location.
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
    timings: Dict[str, float] = field(default_factory=dict)
    """Wall-clock seconds per stage (``rules`` and each engine name).
    Only rendered under ``--stats`` — the timing values are
    run-dependent and must stay out of the deterministic report
    payload."""

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

    @property
    def exit_code(self) -> int:
        """The CLI exit code this report maps to."""
        if self.errors:
            return EXIT_ERROR
        return EXIT_FINDINGS if self.findings else EXIT_CLEAN

    def counts_by_rule(self) -> Dict[str, int]:
        """rule_id -> number of findings."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return dict(sorted(counts.items()))


def _excluded(path: Path, patterns: Sequence[str]) -> bool:
    """True when ``path`` matches any exclude glob.

    Patterns are matched against the posix form of the path both as
    given and anchored at any directory boundary, so
    ``tests/lint_fixtures/**`` excludes the fixture tree whether the
    lint was invoked from the repo root or with absolute paths.
    """
    posix = path.as_posix()
    for pattern in patterns:
        if fnmatch(posix, pattern) or fnmatch(posix, f"*/{pattern}"):
            return True
    return False


def discover_files(
    paths: Sequence[PathLike],
    exclude: Optional[Sequence[str]] = None,
) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Args:
        paths: files and/or directories (directories recurse).
        exclude: glob patterns to drop (see :func:`_excluded`); defaults
            to :data:`DEFAULT_EXCLUDES`. Pass ``[]`` to exclude nothing.
            Explicitly named files are never excluded — only files found
            by directory recursion.

    Raises:
        FileNotFoundError: when a named path does not exist.
    """
    patterns = DEFAULT_EXCLUDES if exclude is None else tuple(exclude)
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                p for p in sorted(path.rglob("*.py"))
                if not any(part.startswith(".") for part in p.parts)
                and not _excluded(p, patterns)
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


def lint_source(
    source: str,
    path: PathLike = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one module's source; returns suppression-filtered findings.

    A syntax error yields a single ``VAB000`` finding rather than
    raising, so one broken file doesn't hide the rest of a tree.
    """
    active = list(rules) if rules is not None else make_rules()
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
    suppressions = SuppressionIndex.from_source(source)
    findings: List[Finding] = []
    for rule in active:
        for finding in rule.check(ctx):
            if not suppressions.is_suppressed(finding.line, finding.rule_id):
                findings.append(finding)
    return sorted(findings)


def _lint_one(
    args: Tuple[str, Optional[List[str]], Optional[List[str]]],
) -> Tuple[bool, List[Finding]]:
    """Worker for the parallel front-end: lint one file.

    Returns ``(read_ok, findings)``; module-level so it pickles into a
    :class:`~concurrent.futures.ProcessPoolExecutor`.
    """
    path_str, select, disable = args
    file_path = Path(path_str)
    try:
        source = file_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return False, [Finding(
            path=str(file_path), line=1, col=0,
            rule_id=PARSE_ERROR_RULE, message=f"could not read file: {exc}",
        )]
    rules = make_rules(select=select, disable=disable)
    return True, lint_source(source, file_path, rules=rules)


def lint_paths(
    paths: Sequence[PathLike],
    select: Optional[List[str]] = None,
    disable: Optional[List[str]] = None,
    exclude: Optional[Sequence[str]] = None,
    jobs: int = 1,
    units: bool = False,
    units_cache: Optional[PathLike] = None,
    engine_paths: Optional[Sequence[PathLike]] = None,
    engine_force_dirty: Optional[Set[str]] = None,
) -> LintReport:
    """Lint every Python file under ``paths`` with the registered rules.

    Args:
        paths: files and/or directories (directories recurse).
        select: run only these rule ids (per-file rules only).
        disable: drop these rule ids (applies to unit rules too).
        exclude: glob patterns to skip during directory recursion;
            defaults to :data:`DEFAULT_EXCLUDES`.
        jobs: worker processes for the per-file rules; ``1`` keeps
            everything in-process.
        units: also run the interprocedural dataflow engines — the
            dimensional analysis (VAB006..VAB010,
            :mod:`repro.analysis.units`), the shape/dtype analysis
            (VAB011..VAB016, :mod:`repro.analysis.shapes`) and the
            effect/purity analysis (VAB017..VAB022,
            :mod:`repro.analysis.effects`).
        units_cache: optional cache file for incremental engine runs,
            shared by all three engines (one section each).
        engine_paths: when given, the interprocedural engines analyze
            this (usually wider) file set instead of ``paths`` — a
            ``--changed`` run scopes the per-file rules to the touched
            files but must keep the whole call graph visible to the
            engines, or dependents' call-site checks go stale.
        engine_force_dirty: posix paths the engines must re-analyze
            (with their call-graph dependents) even when unchanged on
            disk; the ``--changed`` dependent-invalidation hook.

    Returns:
        The aggregate :class:`LintReport`.
    """
    # Engine rules (VAB006..VAB022) live outside the per-file registry,
    # so select/disable lists are validated against the union and split.
    # The engines are imported here, not at module level: most
    # lint_paths callers (fingerprints, the perf gate) never run them.
    from repro.analysis.engines import ENGINES

    registry_ids = set(rule_catalogue())
    engine_ids = {r for engine in ENGINES for r in engine.rules}

    def _split(ids: Optional[List[str]], label: str) -> Optional[List[str]]:
        if ids is None:
            return None
        upper = [i.upper() for i in ids]
        unknown = sorted(set(upper) - registry_ids - engine_ids)
        if unknown:
            raise KeyError(f"unknown rule id(s) in {label}: {', '.join(unknown)}")
        return [i for i in upper if i in registry_ids]

    reg_select = _split(select, "select")
    reg_disable = _split(disable, "disable")
    active = make_rules(select=reg_select, disable=reg_disable)
    report = LintReport(rules=[r.rule_id for r in active])
    files = discover_files(paths, exclude=exclude)
    work = [(f.as_posix(), reg_select, reg_disable) for f in files]
    t0 = time.monotonic()
    if jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_lint_one, work, chunksize=8))
    else:
        results = [_lint_one(item) for item in work]
    report.timings["rules"] = time.monotonic() - t0
    for read_ok, findings in results:
        report.files += 1 if read_ok else 0
        for finding in findings:
            (report.errors if finding.is_error else report.findings).append(finding)
    if units:
        dropped = {r.upper() for r in disable or []}
        wanted = {r.upper() for r in select} if select is not None else None
        engine_files = (
            discover_files(engine_paths, exclude=exclude)
            if engine_paths is not None
            else files
        )
        for engine in ENGINES:
            keep = [
                r for r in engine.rule_ids
                if r not in dropped and (wanted is None or r in wanted)
            ]
            t0 = time.monotonic()
            engine_report = engine.analyze(
                engine_files,
                cache_path=Path(units_cache) if units_cache else None,
                force_dirty=engine_force_dirty,
            )
            report.timings[engine.name] = time.monotonic() - t0
            report.rules.extend(keep)
            report.engine_stats[engine.name] = engine_report.stats()
            report.findings.extend(
                f for f in engine_report.findings if f.rule_id in keep
            )
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


def tree_fingerprint(paths: Sequence[PathLike]) -> Dict[str, object]:
    """Hash the linted tree + rule catalogue + verdict into one record.

    The fingerprint covers the byte content of every file linted and the
    ids of the rules that ran, so two identical fingerprints mean "the
    same sources were judged by the same catalogue with the same
    outcome". Campaign manifests persist this as lint provenance.
    """
    report = lint_paths(paths)
    digest = hashlib.sha256()
    file_hashes = []
    for file_path in discover_files(paths):
        try:
            data = file_path.read_bytes()
        except OSError:
            continue
        file_hashes.append(
            (file_path.as_posix(), hashlib.sha256(data).hexdigest())
        )
    payload = json.dumps(
        {"rules": report.rules, "files": file_hashes}, sort_keys=True
    )
    digest.update(payload.encode("utf-8"))
    return {
        "fingerprint": digest.hexdigest(),
        "clean": report.clean,
        "files": report.files,
        "findings": len(report.findings) + len(report.errors),
        "rules": report.rules,
    }
