"""Live progress reporting for long campaigns.

A 100k-trial sweep that prints nothing for twenty minutes is
indistinguishable from a hung one. :class:`ProgressReporter` turns
trial completions into two things:

* a single self-overwriting **stderr line** — trials done, rate, ETA —
  refreshed at a bounded cadence, and
* throttled ``heartbeat`` **events** on the run's
  :class:`~repro.obs.manifest.EventLog`, which the trace exporter
  renders as counter tracks.

The display is **off by default outside a TTY**: CI logs and piped
output never fill with carriage returns. ``VAB_PROGRESS=1`` forces it
on (``0`` forces it off); a set ``CI`` variable disables autodetection.
Heartbeat *events* are emitted regardless of the display — they are
telemetry, not decoration.

Counting is thread-safe. The parallel runner advances the reporter
from its ordered harvest loop, serial and pool runs alike, and
finishes it before the run's event log closes. Progress never touches
results — it only observes completions — so bit-identity is untouched.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import IO, Annotated, Any, Optional

from repro.contracts import READS_ENVIRON, READS_HOST
from repro.obs.manifest import EventLog

PROGRESS_ENV = "VAB_PROGRESS"
"""Environment variable forcing the display on (``1``) or off (``0``)."""

DEFAULT_MIN_INTERVAL_S = 0.25
"""Floor between display refreshes / heartbeat events."""


def progress_enabled(
    stream: Optional[IO[str]] = None,
) -> Annotated[bool, READS_ENVIRON, READS_HOST]:
    """Whether the live display should run, per env + TTY detection.

    The grant is deliberate: this value only drives *display*, never a
    stored result."""
    forced = os.environ.get(PROGRESS_ENV, "").strip().lower()
    if forced in ("1", "true", "yes", "on"):
        return True
    if forced in ("0", "false", "no", "off"):
        return False
    if os.environ.get("CI"):
        return False
    stream = stream if stream is not None else sys.stderr
    isatty = getattr(stream, "isatty", None)
    return bool(isatty and isatty())


class ProgressReporter:
    """Throttled trials-done/rate/ETA reporting for one campaign.

    Args:
        total_trials: expected trial count (drives the ETA).
        label: campaign label shown on the line.
        stream: display stream (default ``sys.stderr``).
        enabled: force the display on/off; ``None`` autodetects via
            :func:`progress_enabled`.
        events: optional event log receiving ``heartbeat`` events.
        min_interval_s: minimum seconds between refreshes.
    """

    def __init__(
        self,
        total_trials: int,
        label: str = "campaign",
        stream: Optional[IO[str]] = None,
        enabled: Optional[bool] = None,
        events: Optional[EventLog] = None,
        min_interval_s: float = DEFAULT_MIN_INTERVAL_S,
    ) -> None:
        self.total_trials = max(0, int(total_trials))
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.enabled = (
            progress_enabled(self.stream) if enabled is None else enabled
        )
        self.events = events
        self.min_interval_s = min_interval_s
        self.done = 0
        self._lock = threading.Lock()
        self._t_start: Optional[float] = None
        self._last_emit = 0.0
        self._beat_done: Optional[int] = None
        self._line_live = False

    def start(self) -> None:
        """Mark the campaign start (rate/ETA reference point)."""
        with self._lock:
            self._t_start = time.perf_counter()
            # First refresh comes one full interval in — a run shorter
            # than that gets its single render from finish().
            self._last_emit = self._t_start

    def advance(self, trials: int = 1) -> None:
        """Record ``trials`` completions; refresh if the throttle allows.

        Safe to call from any thread.
        """
        with self._lock:
            self.done += int(trials)
            if self._t_start is None:
                self._t_start = time.perf_counter()
                self._last_emit = self._t_start
            now = time.perf_counter()
            due = (now - self._last_emit) >= self.min_interval_s
            final = self.done >= self.total_trials > 0
            if not (due or final):
                return
            self._last_emit = now
            self._emit_locked(now)

    def finish(self) -> None:
        """Emit a final heartbeat and terminate the display line.

        The heartbeat is skipped when the last one already carries the
        final count (a run that reached its total).
        """
        with self._lock:
            if self._beat_done != self.done:
                self._emit_locked(time.perf_counter())
            if self._line_live:
                self.stream.write("\n")
                self.stream.flush()
                self._line_live = False

    def _snapshot_locked(self, now: float) -> dict:
        elapsed = max(now - (self._t_start or now), 1e-9)
        rate = self.done / elapsed
        remaining = max(self.total_trials - self.done, 0)
        eta_s = remaining / rate if rate > 0 else None
        return {
            "done": self.done,
            "total": self.total_trials,
            "elapsed_s": round(elapsed, 3),
            "trials_per_s": round(rate, 3),
            "eta_s": round(eta_s, 3) if eta_s is not None else None,
        }

    def _emit_locked(self, now: float) -> None:
        snap = self._snapshot_locked(now)
        self._beat_done = self.done
        if self.events is not None:
            self.events.emit("heartbeat", label=self.label, **snap)
        if self.enabled:
            eta = (
                f" eta {snap['eta_s']:.0f}s"
                if snap["eta_s"] is not None and snap["done"] < snap["total"]
                else ""
            )
            line = (
                f"{self.label}: {snap['done']}/{snap['total']} trials "
                f"{snap['trials_per_s']:.1f} trials/s{eta}"
            )
            self.stream.write("\r\x1b[2K" + line)
            self.stream.flush()
            self._line_live = True

    def __enter__(self) -> "ProgressReporter":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.finish()
