"""Shared incremental driver and cache for the dataflow engines.

The units, shapes and effects engines share one incremental structure:
per-file results keyed on the sha256 of the file's bytes plus the
engine's version, function summaries as the interprocedural currency,
and call-graph dependent invalidation via each file's cached reference
set. This module runs any engine record from
:mod:`repro.analysis.engines` that way.

All engines share one cache file, keyed by engine name::

    {"units": {"version": "1.0.0", "files": {path: entry, ...}},
     "shapes": {...}, "effects": {...}}

Each engine reads and rewrites only its own section, so bumping one
engine's version invalidates that engine's entries alone.

A warm run:

1. hashes every file (cheap),
2. marks changed files dirty,
3. expands the dirty set with the **call-graph dependents** of every
   dirty file (transitively, via the cached reference sets — a caller's
   call-site checks depend on its callees' summaries),
4. re-parses and re-analyzes only the dirty set, against the cached
   summaries of everything else,
5. reuses cached findings verbatim for untouched files.

Cache hits and cold runs produce byte-identical reports — the
determinism tests lock this.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Set

from repro.analysis.dataflow import run_fixed_point
from repro.analysis.findings import PARSE_ERROR_RULE, Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engines import Engine

_DAMAGE = (AttributeError, KeyError, TypeError, ValueError)
"""What decoding a well-formed JSON document of the wrong shape raises."""


@dataclass
class EngineReport:
    """Output of one (possibly incremental) engine run.

    Attributes:
        findings: the engine's findings, sorted.
        errors: parse failures (VAB000).
        files: number of files covered (analyzed + reused).
        analyzed: files re-parsed and re-analyzed this run.
        reused: files served entirely from the cache.
        passes: fixed-point passes the engine ran.
        engine_version: the engine/cache version string.
    """

    findings: List[Finding] = field(default_factory=list)
    errors: List[Finding] = field(default_factory=list)
    files: int = 0
    analyzed: List[str] = field(default_factory=list)
    reused: List[str] = field(default_factory=list)
    passes: int = 0
    engine_version: str = ""

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors

    def stats(self) -> Dict[str, object]:
        """JSON-safe summary embedded in reports and manifests."""
        return {
            "engine_version": self.engine_version,
            "files": self.files,
            "analyzed": len(self.analyzed),
            "reused": len(self.reused),
            "passes": self.passes,
        }


@dataclass
class CacheEntry:
    """Everything remembered about one analyzed file."""

    sha: str
    findings: List[Finding] = field(default_factory=list)
    summaries: List[Any] = field(default_factory=list)
    refs: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "sha": self.sha,
            "findings": [f.to_dict() for f in self.findings],
            "summaries": [s.to_dict() for s in self.summaries],
            "refs": self.refs,
        }

    @staticmethod
    def from_dict(
        raw: Dict[str, Any], summary_from_dict: Callable[[Dict[str, Any]], Any]
    ) -> "CacheEntry":
        return CacheEntry(
            sha=str(raw["sha"]),
            findings=[Finding.from_dict(f) for f in raw.get("findings", [])],
            summaries=[summary_from_dict(s) for s in raw.get("summaries", [])],
            refs=[str(r) for r in raw.get("refs", [])],
        )


def _read_sections(path: Optional[Path]) -> Dict[str, Dict[str, Any]]:
    """The well-formed engine sections of a cache file.

    A missing, unreadable or malformed file — including the older
    one-file-per-engine format — has none.
    """
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if not isinstance(raw, dict):
        return {}
    return {
        name: section
        for name, section in raw.items()
        if isinstance(section, dict)
        and isinstance(section.get("version"), str)
        and isinstance(section.get("files"), dict)
    }


def _load_entries(
    section: Optional[Dict[str, Any]], engine: "Engine"
) -> Optional[Dict[str, CacheEntry]]:
    """Decode one engine's section; None when absent, stale or damaged."""
    if section is None or section["version"] != engine.version:
        return None
    try:
        return {
            str(key): CacheEntry.from_dict(raw, engine.summary_from_dict)
            for key, raw in section["files"].items()
        }
    except _DAMAGE:
        return None


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dependent_closure(
    dirty: Set[str],
    entries: Dict[str, CacheEntry],
    qualname_owner: Dict[str, str],
) -> Set[str]:
    """Dirty files plus every cached file that (transitively) refers to
    a function defined in a dirty file."""
    ref_edges: Dict[str, Set[str]] = {}
    for path, entry in entries.items():
        deps = {qualname_owner[q] for q in entry.refs if q in qualname_owner}
        deps.discard(path)
        ref_edges[path] = deps
    closed = set(dirty)
    changed = True
    while changed:
        changed = False
        for path, deps in ref_edges.items():
            if path not in closed and deps & closed:
                closed.add(path)
                changed = True
    return closed


def analyze_incremental(
    engine: "Engine",
    files: Sequence[Path],
    cache_path: Optional[Path] = None,
) -> EngineReport:
    """Run ``engine`` over ``files``, incrementally when ``cache_path``.

    Summaries must expose ``qualname``, ``path`` and ``to_dict()``;
    module analyses must expose ``findings`` and ``refs``.
    """
    report = EngineReport(engine_version=engine.version)
    sources: Dict[str, str] = {}
    shas: Dict[str, str] = {}
    ordered: List[str] = []
    for file_path in files:
        key = Path(file_path).as_posix()
        try:
            data = Path(file_path).read_bytes()
        except OSError as exc:
            report.errors.append(Finding(
                path=key, line=1, col=0, rule_id=PARSE_ERROR_RULE,
                message=f"could not read file: {exc}",
            ))
            continue
        ordered.append(key)
        shas[key] = _sha256(data)
        sources[key] = data.decode("utf-8", errors="replace")

    sections = _read_sections(cache_path)
    loaded = _load_entries(sections.get(engine.name), engine)
    entries = {k: v for k, v in (loaded or {}).items() if k in shas}

    qualname_owner: Dict[str, str] = {}
    for path, entry in entries.items():
        for summary in entry.summaries:
            qualname_owner[summary.qualname] = path

    dirty = {
        key for key in ordered
        if key not in entries or entries[key].sha != shas[key]
    }
    dirty = _dependent_closure(dirty, entries, qualname_owner) & set(ordered)

    infos: List[Any] = []
    for key in sorted(dirty):
        try:
            infos.append(engine.extract(Path(key), sources[key]))
        except SyntaxError as exc:
            report.errors.append(Finding(
                path=key, line=exc.lineno or 1, col=(exc.offset or 1) - 1,
                rule_id=PARSE_ERROR_RULE,
                message=f"could not parse file: {exc.msg}",
            ))
            dirty.discard(key)
            entries.pop(key, None)

    summaries: Dict[str, Any] = {}
    for path, entry in entries.items():
        if path in dirty:
            continue
        for summary in entry.summaries:
            summaries[summary.qualname] = summary
    summaries.update(engine.seed(infos))

    analyses, summaries, report.passes = run_fixed_point(engine, infos, summaries)

    summary_by_path: Dict[str, List[Any]] = {}
    for summary in summaries.values():
        summary_by_path.setdefault(summary.path, []).append(summary)

    for key in ordered:
        if key in dirty:
            analysis = analyses.get(key)
            fresh = list(analysis.findings) if analysis else []
            report.findings.extend(fresh)
            report.analyzed.append(key)
            entries[key] = CacheEntry(
                sha=shas[key],
                findings=fresh,
                summaries=sorted(
                    summary_by_path.get(key, []), key=lambda s: s.qualname
                ),
                refs=sorted(analysis.refs) if analysis else [],
            )
        elif key in entries:
            report.findings.extend(entries[key].findings)
            report.reused.append(key)

    report.files = len(report.analyzed) + len(report.reused)
    report.findings.sort()
    report.errors.sort()
    # A fully warm run leaves the section as it was: skip the rewrite.
    if cache_path is not None and entries != loaded:
        sections[engine.name] = {
            "version": engine.version,
            "files": {key: entries[key].to_dict() for key in sorted(entries)},
        }
        Path(cache_path).parent.mkdir(parents=True, exist_ok=True)
        Path(cache_path).write_text(
            json.dumps(sections, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return report
