"""Content-addressed persistent ledger of observed campaign runs.

A sweep you ran last month is only evidence if you can find it again
and trust what produced it. The ledger files every observed run under a
**run key** — a digest of everything that determines the numbers (the
scenario snapshots, the whole campaign with its factories, the seed,
the schema, package and numeric-engine versions) and nothing that
doesn't (label, worker count, wall-clock, lint tooling). One walk
(:func:`repro.obs.manifest._jsonify`) builds it and names a factory
rather than hashing its code. Re-running the same configuration lands
on the same key, so repeats of an experiment collide into one ledger
entry and genuinely different configurations never do.

Layout under the root (``$VAB_LEDGER_DIR`` or ``~/.repro/ledger``)::

    index.jsonl                      # append-only, one line per run
    runs/<key>/<run_id>.manifest.json
    runs/<key>/<run_id>.events.jsonl # when the run logged events

``run_id`` is a digest of the *complete* manifest (results and timings
included), so two repeats of one configuration share a key but keep
distinct run ids. The index is read tolerantly
(:func:`repro.obs.manifest.read_events` with ``strict=False``): a
writer killed mid-append costs one line, not the ledger.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Annotated, Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.contracts import PURE
from repro.obs.manifest import (
    RunManifest,
    load_manifest,
    manifest_to_dict,
    read_events,
    save_manifest,
    wall_clock_unix,
)

LEDGER_ENV = "VAB_LEDGER_DIR"
"""Environment variable overriding the ledger root directory."""

DEFAULT_LEDGER_DIR = "~/.repro/ledger"
"""Default ledger root when ``VAB_LEDGER_DIR`` is unset."""

KEY_FIELDS = (
    "schema",
    "seed",
    "campaign",
    "scenarios",
    "version",
    "engine_versions",
)
"""Manifest fields that determine the run key — the configuration
identity. Everything else (label, workers, timestamps, results,
timings, metrics) is an observation *about* a run, not part of what
the run *is*."""

KEY_ABBREV = 12
"""Hex digits shown for keys/run ids in listings (full digests are
stored; prefixes resolve)."""


def _canonical(data: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace — digest-stable."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def run_key(manifest: Union[RunManifest, dict]) -> Annotated[str, PURE]:
    """The content-address of a run's configuration.

    SHA-256 over the canonical JSON of :data:`KEY_FIELDS` only, so a
    relabelled or re-parallelised repeat of the same sweep hashes
    identically while any change to a scenario, the seed, any campaign
    field (framing, payload, SI floor, node and receiver factories), the
    schema, or a numeric engine version produces a new key.
    """
    data = (
        manifest_to_dict(manifest)
        if isinstance(manifest, RunManifest)
        else manifest
    )
    identity = {name: data.get(name) for name in KEY_FIELDS}
    return hashlib.sha256(_canonical(identity).encode()).hexdigest()


def run_id(manifest: Union[RunManifest, dict]) -> Annotated[str, PURE]:
    """The content-address of a complete run record (results included).

    Volatile per-execution fields (wall-clock stamps, elapsed time,
    event-log path, timing/metric telemetry) are excluded, so a
    bit-identical re-run of the same configuration maps to the same
    run id — the ledger's dedup unit — while any change in *results*
    yields a fresh id under the same key.
    """
    data = (
        manifest_to_dict(manifest)
        if isinstance(manifest, RunManifest)
        else dict(manifest)
    )
    volatile = ("created_unix", "elapsed_s", "events_path", "timings", "metrics")
    stable = {k: v for k, v in data.items() if k not in volatile}
    return hashlib.sha256(_canonical(stable).encode()).hexdigest()[:KEY_ABBREV]


@dataclass
class LedgerRecord:
    """One filed run: where it landed and under what addresses."""

    key: str
    run_id: str
    manifest_path: Path
    events_path: Optional[Path] = None
    duplicate: bool = False
    """True when this exact run record (same run id) was already filed
    — the manifest on disk is the earlier copy."""


class Ledger:
    """Append-only content-addressed store of run manifests."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        if root is None:
            root = os.environ.get(LEDGER_ENV) or DEFAULT_LEDGER_DIR
        self.root = Path(root).expanduser()

    @property
    def index_path(self) -> Path:
        """The append-only run index (JSON Lines)."""
        return self.root / "index.jsonl"

    def _run_dir(self, key: str) -> Path:
        return self.root / "runs" / key

    def record(self, manifest: RunManifest) -> LedgerRecord:
        """File one run under its content address.

        Writes the manifest (and a copy of its event log, when one
        exists on disk) under ``runs/<key>/`` and appends an index
        line. Filing a record whose run id is already on disk keeps
        the earlier manifest (``duplicate=True``) but still appends an
        index line — the index counts executions, the run directory
        stores distinct outcomes.
        """
        data = manifest_to_dict(manifest)
        key = run_key(data)
        rid = run_id(data)
        run_dir = self._run_dir(key)
        manifest_path = run_dir / f"{rid}.manifest.json"
        duplicate = manifest_path.exists()
        events_dst: Optional[Path] = None
        if duplicate:
            stored_events = run_dir / f"{rid}.events.jsonl"
            events_dst = stored_events if stored_events.exists() else None
        else:
            run_dir.mkdir(parents=True, exist_ok=True)
            stored = manifest
            if manifest.events_path:
                events_src = Path(manifest.events_path)
                if events_src.exists():
                    events_dst = run_dir / f"{rid}.events.jsonl"
                    shutil.copyfile(events_src, events_dst)
                    stored = replace(manifest, events_path=str(events_dst))
            save_manifest(stored, manifest_path)
        entry = {
            "ts": round(wall_clock_unix(), 6),
            "key": key,
            "run_id": rid,
            "label": manifest.label,
            "seed": manifest.seed,
            "version": manifest.version,
            "points": len(manifest.scenarios),
            "trials": manifest.total_trials,
            "elapsed_s": manifest.elapsed_s,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        with self.index_path.open("a") as fh:
            fh.write(json.dumps(entry) + "\n")
            fh.flush()
        return LedgerRecord(
            key=key,
            run_id=rid,
            manifest_path=manifest_path,
            events_path=events_dst,
            duplicate=duplicate,
        )

    def entries(self) -> List[dict]:
        """All index lines, oldest first (torn final line tolerated)."""
        if not self.index_path.exists():
            return []
        return [
            e
            for e in read_events(self.index_path, strict=False)
            if isinstance(e, dict) and "key" in e and "run_id" in e
        ]

    def runs(self, key: str) -> List[str]:
        """Run ids filed under one key, oldest index entry first."""
        return [e["run_id"] for e in self.entries() if e["key"] == key]

    def resolve(self, ref: str) -> LedgerRecord:
        """Resolve a key or run-id prefix to one filed run.

        A key (prefix) with several runs resolves to the most recently
        filed one. A run-id prefix must name exactly one run id.
        Ambiguous or unknown prefixes raise ``KeyError``.
        """
        if not ref:
            raise KeyError("empty ledger reference")
        matches: List[Tuple[str, str]] = []
        for e in self.entries():
            if e["run_id"].startswith(ref) or e["key"].startswith(ref):
                matches.append((e["key"], e["run_id"]))
        if not matches:
            raise KeyError(f"no ledger run matches {ref!r}")
        key, rid = matches[-1]
        unique_keys = {k for k, _ in matches}
        run_ids = sorted({r for _, r in matches})
        if len(unique_keys) > 1 or (
            len(run_ids) > 1 and not key.startswith(ref)
        ):
            shown = ", ".join(run_ids[:4])
            more = ", ..." if len(run_ids) > 4 else ""
            raise KeyError(f"ambiguous ledger reference {ref!r}: {shown}{more}")
        manifest_path = self._run_dir(key) / f"{rid}.manifest.json"
        if not manifest_path.exists():
            raise KeyError(
                f"index lists run {rid} but its manifest is missing "
                f"({manifest_path})"
            )
        events_path = self._run_dir(key) / f"{rid}.events.jsonl"
        return LedgerRecord(
            key=key,
            run_id=rid,
            manifest_path=manifest_path,
            events_path=events_path if events_path.exists() else None,
        )

    def load(self, ref: str) -> RunManifest:
        """Load the manifest for a key/run-id prefix."""
        return load_manifest(self.resolve(ref).manifest_path)


def ledger_rows(ledger: Ledger) -> List[Dict[str, Any]]:
    """Listing rows, one per distinct key, newest activity first.

    Repeat runs of one configuration collapse into that key's row —
    ``runs`` counts them — which is the point of content addressing:
    the listing answers "which experiments exist", not "how many times
    did I press enter".
    """
    by_key: Dict[str, Dict[str, Any]] = {}
    for e in ledger.entries():
        row = by_key.setdefault(
            e["key"],
            {
                "key": e["key"],
                "runs": 0,
                "run_ids": [],
                "label": e.get("label", ""),
                "seed": e.get("seed"),
                "points": e.get("points"),
                "trials": e.get("trials"),
                "last_ts": 0.0,
            },
        )
        row["runs"] += 1
        row["run_ids"].append(e["run_id"])
        row["label"] = e.get("label", row["label"])
        row["last_ts"] = max(row["last_ts"], float(e.get("ts", 0.0)))
    return sorted(by_key.values(), key=lambda r: -r["last_ts"])


def render_ledger(ledger: Ledger) -> str:
    """Human-readable ``repro obs ls`` listing."""
    rows = ledger_rows(ledger)
    if not rows:
        return f"ledger at {ledger.root}: empty"
    lines = [f"ledger at {ledger.root}: {len(rows)} configuration(s)"]
    header = (
        f"{'key':<{KEY_ABBREV}}  {'runs':>4}  {'label':<24}  "
        f"{'seed':>8}  {'points':>6}  {'trials':>7}  latest run"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            f"{row['key'][:KEY_ABBREV]:<{KEY_ABBREV}}  {row['runs']:>4}  "
            f"{str(row['label'])[:24]:<24}  {str(row['seed']):>8}  "
            f"{str(row['points']):>6}  {str(row['trials']):>7}  "
            f"{row['run_ids'][-1]}"
        )
    return "\n".join(lines)


def _flatten(value: Any, prefix: str = "") -> Dict[str, Any]:
    """Flatten nested dicts/lists to dotted leaf paths for diffing."""
    out: Dict[str, Any] = {}
    if isinstance(value, dict):
        for k in sorted(value):
            out.update(_flatten(value[k], f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            out.update(_flatten(item, f"{prefix}.{i}" if prefix else str(i)))
    else:
        out[prefix] = value
    return out


def _config_leaves(manifest: RunManifest) -> Dict[str, Any]:
    """Dotted leaves of every run-key field except the scenarios."""
    data = manifest_to_dict(manifest)
    return _flatten({k: data.get(k) for k in KEY_FIELDS if k != "scenarios"})


def diff_manifests(a: RunManifest, b: RunManifest) -> Dict[str, Any]:
    """Structured comparison of two runs.

    Reports, in order of causal priority: configuration deltas (every
    run-key field: ``config`` holds all but the scenarios, which
    ``scenarios`` compares point by point — the *why*),
    then per-point metric deltas (BER, frame success, SNR — the
    *what*), then stage-timing deltas (the *how fast*). Two runs under
    the same key show an empty ``scenarios`` section by construction.
    """
    scenario_deltas: List[Dict[str, Any]] = []
    for i in range(max(len(a.scenarios), len(b.scenarios))):
        sa = _flatten(a.scenarios[i]) if i < len(a.scenarios) else {}
        sb = _flatten(b.scenarios[i]) if i < len(b.scenarios) else {}
        for fname in sorted(set(sa) | set(sb)):
            va, vb = sa.get(fname), sb.get(fname)
            if va != vb:
                scenario_deltas.append(
                    {"point": i, "field": fname, "a": va, "b": vb}
                )

    fa, fb = _config_leaves(a), _config_leaves(b)
    config_deltas = [
        {"field": fname, "a": fa.get(fname), "b": fb.get(fname)}
        for fname in sorted(set(fa) | set(fb))
        if fa.get(fname) != fb.get(fname)
    ]

    metric_deltas: List[Dict[str, Any]] = []
    pa = a.results.get("points", [])
    pb = b.results.get("points", [])
    metric_names = ("ber", "frame_success_rate", "detection_rate", "mean_snr_db")
    for i in range(min(len(pa), len(pb))):
        for m in metric_names:
            va, vb = pa[i].get(m), pb[i].get(m)
            if va != vb:
                delta = (
                    vb - va
                    if isinstance(va, (int, float)) and isinstance(vb, (int, float))
                    else None
                )
                metric_deltas.append(
                    {"point": i, "metric": m, "a": va, "b": vb, "delta": delta}
                )

    timing_deltas: List[Dict[str, Any]] = []
    for stage in sorted(set(a.timings) | set(b.timings)):
        ta = float(a.timings.get(stage, {}).get("total_s", 0.0))
        tb = float(b.timings.get(stage, {}).get("total_s", 0.0))
        if ta != tb:
            timing_deltas.append(
                {"stage": stage, "a_s": ta, "b_s": tb, "delta_s": tb - ta}
            )

    return {
        "a": {"label": a.label, "run_id": run_id(a)},
        "b": {"label": b.label, "run_id": run_id(b)},
        "same_key": run_key(a) == run_key(b),
        "point_counts": [len(pa), len(pb)],
        "config": config_deltas,
        "scenarios": scenario_deltas,
        "metrics": metric_deltas,
        "timings": timing_deltas,
    }


def render_diff(diff: Dict[str, Any], max_rows: int = 20) -> str:
    """Human-readable ``repro obs diff`` output."""
    lines = [
        f"a: {diff['a']['run_id']} ({diff['a']['label']})",
        f"b: {diff['b']['run_id']} ({diff['b']['label']})",
        "same configuration key"
        if diff["same_key"]
        else "different configuration keys",
    ]

    def section(title: str, rows: Sequence[Dict[str, Any]], fmt: Any) -> None:
        if not rows:
            return
        lines.append("")
        shown = rows[:max_rows]
        lines.append(f"{title} ({len(rows)} delta(s)):")
        lines.extend(f"  {fmt(r)}" for r in shown)
        if len(rows) > len(shown):
            lines.append(f"  ... {len(rows) - len(shown)} more")

    section(
        "config",
        diff["config"],
        lambda r: f"{r['field']}: {r['a']!r} -> {r['b']!r}",
    )
    section(
        "scenario fields",
        diff["scenarios"],
        lambda r: f"point {r['point']} {r['field']}: {r['a']!r} -> {r['b']!r}",
    )
    section(
        "metrics",
        diff["metrics"],
        lambda r: (
            f"point {r['point']} {r['metric']}: {r['a']} -> {r['b']}"
            + (f" ({r['delta']:+.4g})" if r["delta"] is not None else "")
        ),
    )
    section(
        "stage timings",
        diff["timings"],
        lambda r: f"{r['stage']}: {r['a_s']:.3f}s -> {r['b_s']:.3f}s "
        f"({r['delta_s']:+.3f}s)",
    )
    if len(lines) == 3:
        lines.append("no differences")
    return "\n".join(lines)
