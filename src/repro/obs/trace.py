"""Chrome trace-event export for campaign runs.

Span tables and stage rows answer "where did the time go *in total*";
a trace answers "what was happening *at second 3.2*". This module turns
a run's telemetry into the Chrome trace-event JSON format, viewable in
``chrome://tracing`` or `Perfetto <https://ui.perfetto.dev>`_ — zero
new dependencies, just the right JSON shape.

Two sources, two process lanes:

* **The event timeline** (pid :data:`TRACE_PID_RUN`): real wall-clock
  slices reconstructed from a run's JSONL event log — the campaign
  span, each point, and every worker chunk. Chunk completions carry
  their elapsed time, so each chunk becomes a complete ("X") slice
  ending at its ``chunk_done`` timestamp; slices are greedy-packed
  into worker lanes (threads) so parallel runs show their actual
  overlap. Progress heartbeats become counter ("C") tracks.
* **The aggregate span flame** (pid :data:`TRACE_PID_SPANS`): the
  hierarchical span totals from a :class:`repro.obs.spans.SpanTracer`
  laid out as a synthetic flame graph — not a timeline (span totals
  are aggregates), but the familiar nested-rectangles view of where
  the time went.

Timestamps are microseconds (the format's unit), relative to the first
event, so traces diff cleanly across runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

TRACE_PID_RUN = 1
"""Trace pid of the real event timeline."""

TRACE_PID_SPANS = 2
"""Trace pid of the synthetic aggregate-span flame."""

TID_CAMPAIGN = 0
"""Thread lane of the campaign/point slices."""

_REQUIRED_EVENT_FIELDS = ("name", "ph", "pid", "tid")


def _meta(pid: int, name: str) -> Dict[str, Any]:
    return {
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "args": {"name": name},
    }


def _thread_meta(pid: int, tid: int, name: str) -> Dict[str, Any]:
    return {
        "name": "thread_name",
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def _pack_lanes(
    slices: Sequence[Tuple[float, float, Dict[str, Any]]],
) -> List[Tuple[int, float, float, Dict[str, Any]]]:
    """Greedy-pack (start, end, payload) slices into worker lanes.

    The event log records chunk *completions*, not worker identities;
    packing slices into the fewest non-overlapping lanes reconstructs
    a consistent (and minimal) worker assignment for display.
    """
    lanes: List[float] = []
    packed: List[Tuple[int, float, float, Dict[str, Any]]] = []
    for start, end, payload in sorted(slices, key=lambda s: (s[0], s[1])):
        for lane, busy_until in enumerate(lanes):
            if start >= busy_until - 1e-9:
                lanes[lane] = end
                packed.append((lane, start, end, payload))
                break
        else:
            lanes.append(end)
            packed.append((len(lanes) - 1, start, end, payload))
    return packed


def trace_from_events(events: Sequence[dict]) -> List[Dict[str, Any]]:
    """Trace events for the real run timeline (pid 1).

    Consumes the runner's JSONL vocabulary — ``campaign_start`` /
    ``chunk_done`` / ``point_end`` / ``campaign_end`` plus optional
    ``heartbeat`` events — and emits complete slices, counters, and
    lane metadata. Unknown event types pass through as instant events,
    so new vocabulary degrades visibly instead of vanishing.
    """
    if not events:
        return []
    t0 = min(float(e["ts"]) for e in events if "ts" in e)

    def us(ts: float) -> float:
        return round((ts - t0) * 1e6, 1)

    out: List[Dict[str, Any]] = [_meta(TRACE_PID_RUN, "run timeline")]
    out.append(_thread_meta(TRACE_PID_RUN, TID_CAMPAIGN, "campaign"))
    chunk_slices: List[Tuple[float, float, Dict[str, Any]]] = []
    campaign_start: Optional[dict] = None

    for e in events:
        kind = e.get("event")
        ts = float(e.get("ts", t0))
        if kind == "campaign_start":
            campaign_start = e
        elif kind == "campaign_end":
            start_ts = (
                float(campaign_start["ts"]) if campaign_start else ts
            )
            out.append(
                {
                    "name": f"campaign {e.get('label', '')}".strip(),
                    "ph": "X",
                    "ts": us(start_ts),
                    "dur": max(0.0, us(ts) - us(start_ts)),
                    "pid": TRACE_PID_RUN,
                    "tid": TID_CAMPAIGN,
                    "args": {
                        k: v for k, v in e.items() if k not in ("ts", "event")
                    },
                }
            )
        elif kind == "point_end":
            # Clamp the slice into the run so the lane stays readable.
            elapsed = float(e.get("elapsed_s") or 0.0)
            start_us = max(0.0, us(ts - elapsed))
            out.append(
                {
                    "name": f"point {e.get('point')}",
                    "ph": "X",
                    "ts": start_us,
                    "dur": max(0.0, us(ts) - start_us),
                    "pid": TRACE_PID_RUN,
                    "tid": TID_CAMPAIGN,
                    "args": {
                        k: v for k, v in e.items() if k not in ("ts", "event")
                    },
                }
            )
        elif kind == "chunk_done":
            elapsed = float(e.get("elapsed_s") or 0.0)
            chunk_slices.append(
                (
                    ts - elapsed,
                    ts,
                    {
                        "name": f"chunk p{e.get('point')}",
                        "args": {
                            k: v
                            for k, v in e.items()
                            if k not in ("ts", "event")
                        },
                    },
                )
            )
        elif kind == "heartbeat":
            for counter_name, field_name in (
                ("trials done", "done"),
                ("trials/s", "trials_per_s"),
            ):
                if e.get(field_name) is not None:
                    out.append(
                        {
                            "name": counter_name,
                            "ph": "C",
                            "ts": us(ts),
                            "pid": TRACE_PID_RUN,
                            "tid": TID_CAMPAIGN,
                            "args": {field_name: e[field_name]},
                        }
                    )
        elif kind is not None:
            out.append(
                {
                    "name": str(kind),
                    "ph": "i",
                    "s": "t",
                    "ts": us(ts),
                    "pid": TRACE_PID_RUN,
                    "tid": TID_CAMPAIGN,
                    "args": {
                        k: v for k, v in e.items() if k not in ("ts", "event")
                    },
                }
            )

    for lane, start, end, payload in _pack_lanes(chunk_slices):
        tid = lane + 1
        out.append(_thread_meta(TRACE_PID_RUN, tid, f"worker lane {lane}"))
        out.append(
            {
                "name": payload["name"],
                "ph": "X",
                "ts": us(start),
                "dur": max(0.0, round((end - start) * 1e6, 1)),
                "pid": TRACE_PID_RUN,
                "tid": tid,
                "args": payload["args"],
            }
        )
    return out


def trace_from_timings(timings: Dict[str, dict]) -> List[Dict[str, Any]]:
    """Synthetic flame-graph slices from aggregated span totals (pid 2).

    Span totals have no start times, so the layout is synthetic:
    siblings are laid end to end inside their parent's extent, in path
    order. Widths are real (total seconds); positions are not — the
    lane is labelled accordingly.
    """
    if not timings:
        return []
    out: List[Dict[str, Any]] = [
        _meta(TRACE_PID_SPANS, "span totals (aggregate, synthetic layout)"),
        _thread_meta(TRACE_PID_SPANS, 0, "spans"),
    ]
    cursors: Dict[str, float] = {"": 0.0}
    for path in sorted(timings):
        parts = path.split("/")
        parent = "/".join(parts[:-1])
        start = cursors.get(parent, 0.0)
        total_s = float(timings[path].get("total_s", 0.0))
        out.append(
            {
                "name": parts[-1],
                "ph": "X",
                "ts": round(start * 1e6, 1),
                "dur": round(total_s * 1e6, 1),
                "pid": TRACE_PID_SPANS,
                "tid": 0,
                "args": {"path": path, **timings[path]},
            }
        )
        # Children start where the parent starts; the next sibling
        # starts where this span ends.
        cursors[path] = start
        cursors[parent] = start + total_s
    return out


def chrome_trace(
    events: Optional[Sequence[dict]] = None,
    timings: Optional[Dict[str, dict]] = None,
) -> Dict[str, Any]:
    """A complete Chrome trace-event document from run telemetry."""
    trace_events: List[Dict[str, Any]] = []
    if events:
        trace_events.extend(trace_from_events(events))
    if timings:
        trace_events.extend(trace_from_timings(timings))
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_trace(
    path: Union[str, Path],
    events: Optional[Sequence[dict]] = None,
    timings: Optional[Dict[str, dict]] = None,
) -> Dict[str, Any]:
    """Build and write a trace JSON file; returns the document."""
    doc = chrome_trace(events=events, timings=timings)
    validate_trace_events(doc)
    Path(path).write_text(json.dumps(doc))
    return doc


def validate_trace_events(doc: Any) -> int:
    """Assert a document is schema-valid trace-event JSON.

    Accepts the object form (``{"traceEvents": [...]}``) or the bare
    array form. Checks the fields the viewers actually require: every
    event carries ``name``/``ph``/``pid``/``tid``, non-metadata events
    carry a numeric ``ts``, and complete ("X") events carry a
    non-negative numeric ``dur``. Returns the event count; raises
    ``ValueError`` on the first violation.
    """
    if isinstance(doc, dict):
        events = doc.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError("trace object must carry a traceEvents array")
    elif isinstance(doc, list):
        events = doc
    else:
        raise ValueError(f"not a trace document: {type(doc).__name__}")
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        for fname in _REQUIRED_EVENT_FIELDS:
            if fname not in e:
                raise ValueError(f"traceEvents[{i}] missing {fname!r}")
        if not isinstance(e["ph"], str) or not e["ph"]:
            raise ValueError(f"traceEvents[{i}] has non-string ph")
        if e["ph"] != "M":
            if not isinstance(e.get("ts"), (int, float)):
                raise ValueError(f"traceEvents[{i}] missing numeric ts")
        if e["ph"] == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(
                    f"traceEvents[{i}] ('X') needs non-negative dur"
                )
    return len(events)
