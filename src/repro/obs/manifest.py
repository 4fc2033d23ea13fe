"""Run manifests and structured event logs.

A campaign's numbers are only as reusable as the metadata recorded with
them: the seed, the exact scenario, the package version, where the time
went, what the caches and the receiver saw. A :class:`RunManifest`
captures all of that in one JSON-safe record (persisted via
:mod:`repro.sim.export`, round-trippable like ``CampaignResult``), and
an :class:`EventLog` streams the run's progress — campaign/point/chunk
boundaries — as JSON Lines for tailing and post-hoc timelines. One
walk, :func:`_jsonify`, builds both and the ledger's run key.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
import os
import threading
import time
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, List, Optional, Union

MANIFEST_SCHEMA_VERSION = 2
"""Bumped when the run key's contract changes. Version 2 keys the whole
campaign and records enums by value; version 1 manifests still load."""


def wall_clock_unix() -> float:
    """Current Unix time, for manifest/event timestamping.

    Wall-clock reads are confined to :mod:`repro.obs` (lint rule
    ``VAB004``): simulation results must never depend on when they run,
    so sim/phy/acoustics code that needs a timestamp for *telemetry*
    calls this instead of ``time.time`` directly.
    """
    return time.time()


@dataclass
class RunManifest:
    """The durable record of one campaign run.

    Attributes:
        label: campaign label (matches the result's).
        seed: master campaign seed.
        version: ``repro.__version__`` that produced the run.
        created_unix: wall-clock start of the run (Unix seconds).
        elapsed_s: end-to-end wall-clock of the run.
        workers: worker processes the run used (1 when a pool run
            fell back to serial).
        campaign: the whole campaign configuration,
            :meth:`repro.sim.trials.TrialCampaign.snapshot`.
        scenarios: one :func:`scenario_snapshot` per operating point.
        timings: span-path -> {total_s, count, mean_ms}
            (:meth:`repro.obs.spans.SpanTracer.as_dict`).
        metrics: metrics snapshot
            (:meth:`repro.obs.metrics.MetricsRegistry.as_dict`).
        results: serialized campaign results
            (:func:`repro.sim.export.campaign_to_dict`).
        events_path: path of the JSONL event log, when one was written.
    """

    label: str
    seed: int
    version: str
    created_unix: float
    elapsed_s: float
    workers: int
    campaign: dict = field(default_factory=dict)
    scenarios: List[dict] = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    events_path: Optional[str] = None
    engine_versions: Optional[dict] = None
    """Versions of the numeric engines (the batched point kernel and the
    array-factor engine) that produced the run — part of the ledger's
    identity key, so a kernel rewrite never silently collides with old
    results."""

    @property
    def total_trials(self) -> int:
        """Trials across all points of the recorded results."""
        return sum(int(p["trials"]) for p in self.results.get("points", []))


class EventLog:
    """Append-only JSON Lines event stream for one run.

    Each event is one line: ``{"ts": <unix seconds>, "event": <name>,
    ...fields}``. The file is created lazily on the first
    :meth:`emit`, so constructing a log never leaves empty files
    behind. Every line is flushed as it is written — a run that dies
    mid-campaign leaves a log that reads up to the crash, not an empty
    buffer. Emission is thread-safe (progress heartbeats arrive from
    executor callback threads). Usable as a context manager.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh: Optional[IO[str]] = None
        self._lock = threading.Lock()

    def emit(self, event: str, **fields: Any) -> None:
        """Append one event with the current timestamp."""
        record = {"ts": round(time.time(), 6), "event": event}
        record.update(fields)
        line = json.dumps(_jsonify(record)) + "\n"
        with self._lock:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("w")
            self._fh.write(line)
            self._fh.flush()

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def read_events(path: Union[str, Path], strict: bool = False) -> List[dict]:
    """Parse a JSONL event log back into a list of event dicts.

    By default a torn *final* line — the signature of a writer killed
    mid-``write`` — is dropped silently, so logs from crashed runs stay
    readable. Corruption anywhere else, or any corruption under
    ``strict=True``, raises ``json.JSONDecodeError``.
    """
    lines = [
        line.strip()
        for line in Path(path).read_text().splitlines()
        if line.strip()
    ]
    events: List[dict] = []
    for pos, line in enumerate(lines):
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if strict or pos != len(lines) - 1:
                raise
    return events


def scenario_snapshot(scenario: object) -> dict:
    """A JSON-safe snapshot of a scenario's full configuration.

    Its walk (water, surface, noise, poses) plus the derived quantities
    reports key on (slant range, incidence, sample rate).
    """
    derived = {d: getattr(scenario, d) for d in ("range_m", "incidence_deg", "fs")}
    return {**config_snapshot(scenario), **_jsonify(derived)}


def config_snapshot(config: Any) -> Any:
    """A dataclass (a configuration or a result point) by :func:`_jsonify`."""
    return _jsonify(config)


def _jsonify(value: Any) -> Any:
    """The canonical walk every run record is built from.

    Dataclasses expand field by field, enums become their values, numpy
    values lists and scalars, non-finite floats ``None``. Factories are
    recorded, never called: a class or module-level function by name,
    a partial by its parts, a lambda or nested function by name, first
    line, closure values and defaults. Anything else raises
    ``TypeError``: it cannot be part of a run's identity.
    """
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, enum.Enum):
        return _jsonify(value.value)
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return _jsonify(value.tolist())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonify(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, functools.partial):
        return _jsonify(
            {"function": value.func, "args": value.args, "keywords": value.keywords}
        )
    if isinstance(value, (type, types.FunctionType)):
        name = f"{value.__module__}.{value.__qualname__}"
        if isinstance(value, type) or "<" not in value.__qualname__:
            return name
        code, cells = value.__code__, value.__closure__ or ()
        return {
            "function": name,
            "line": code.co_firstlineno,
            "closure": _jsonify(
                {v: c.cell_contents for v, c in zip(code.co_freevars, cells)}
            ),
            "defaults": _jsonify(value.__defaults__),
            "kwdefaults": _jsonify(value.__kwdefaults__),
        }
    raise TypeError(f"no canonical record for {type(value).__qualname__} {value!r}")


def manifest_to_dict(manifest: RunManifest) -> dict:
    """Serialise a run manifest to a plain dict (JSON-safe).

    Lives here (not :mod:`repro.sim.export`, which re-exports it) so
    the ledger can file manifests without the obs layer reaching up
    into sim.
    """
    data: dict = {"schema": MANIFEST_SCHEMA_VERSION, "kind": "run-manifest"}
    data.update(dataclasses.asdict(manifest))
    return data


def manifest_from_dict(data: dict) -> RunManifest:
    """Rebuild a run manifest from its serialised form.

    Unknown keys are dropped rather than rejected, so manifests written
    by a newer build with extra fields still load.
    """
    if data.get("schema") not in range(1, MANIFEST_SCHEMA_VERSION + 1):
        raise ValueError(
            f"unsupported manifest schema {data.get('schema')!r}; "
            f"this build reads 1 to {MANIFEST_SCHEMA_VERSION}"
        )
    if data.get("kind") != "run-manifest":
        raise ValueError(f"not a run manifest: kind={data.get('kind')!r}")
    fields = {f.name for f in dataclasses.fields(RunManifest)}
    return RunManifest(**{k: v for k, v in data.items() if k in fields})


def save_manifest(manifest: RunManifest, path: Union[str, Path]) -> None:
    """Write a run manifest to a JSON file, atomically.

    The JSON lands in a temporary file beside ``path`` (named for this
    process, so concurrent writers do not share it), which then
    replaces ``path`` in one step: a failed or interrupted write leaves
    no file (or the previous one) there, never a torn manifest.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(manifest_to_dict(manifest), indent=2))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_manifest(path: Union[str, Path]) -> RunManifest:
    """Read a run manifest from a JSON file."""
    return manifest_from_dict(json.loads(Path(path).read_text()))
