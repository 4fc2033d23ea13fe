"""Saving and loading campaign results and run manifests.

Benchmarks print their tables, but longitudinal studies (comparing runs
across code versions, aggregating trials across machines) need results on
disk. Plain JSON, schema-versioned, round-trip tested. Two record kinds:

* **Campaign results** (:func:`save_campaign` / :func:`load_campaign`) —
  just the aggregated numbers.
* **Run manifests** (:func:`save_manifest` / :func:`load_manifest`) —
  the full observability record of a run (seed, scenario snapshots,
  package version, span timings, metrics, results, event-log pointer);
  see :class:`repro.obs.manifest.RunManifest`. The manifest codec
  itself lives in :mod:`repro.obs.manifest` (the ledger needs it below
  the sim layer) and is re-exported here unchanged.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Union

from repro.obs.manifest import (  # noqa: F401 - re-exported API
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    config_snapshot,
    load_manifest,
    manifest_from_dict,
    manifest_to_dict,
    save_manifest,
)
from repro.sim.results import BERPoint, CampaignResult

SCHEMA_VERSION = 1


def campaign_to_dict(result: CampaignResult) -> dict:
    """Serialise a campaign to a plain dict (JSON-safe; -inf as None)."""
    return {
        "schema": SCHEMA_VERSION,
        "label": result.label,
        "points": [config_snapshot(p) for p in result.points],
    }


def campaign_from_dict(data: dict) -> CampaignResult:
    """Rebuild a campaign from its serialised form."""
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema {data.get('schema')!r}; "
            f"this build reads {SCHEMA_VERSION}"
        )
    result = CampaignResult(label=data["label"])
    for p in data["points"]:
        fields = {f.name: p[f.name] for f in dataclasses.fields(BERPoint)}
        if fields["mean_snr_db"] is None:
            fields["mean_snr_db"] = -math.inf
        result.add(BERPoint(**fields))
    return result


def save_campaign(result: CampaignResult, path: Union[str, Path]) -> None:
    """Write a campaign to a JSON file."""
    path = Path(path)
    path.write_text(json.dumps(campaign_to_dict(result), indent=2))


def load_campaign(path: Union[str, Path]) -> CampaignResult:
    """Read a campaign from a JSON file."""
    return campaign_from_dict(json.loads(Path(path).read_text()))


