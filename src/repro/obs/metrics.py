"""Counters, gauges, and histograms for the simulation stack.

Engine layers register *instruments* once at import time (module
globals) and update them from hot paths; the values land in whichever
:class:`MetricsRegistry` is active — the process-default one, or a
registry a campaign installed with :func:`use_registry` to isolate its
own run. Updates are a dict upsert, cheap enough for per-trial paths.

Registered instruments in the tree today:

* ``repro.sim.cache.*`` — channel-response cache hits/misses/evictions.
* ``repro.sim.parallel.*`` — chunks dispatched, worker count, pool
  utilization.
* ``repro.phy.receiver.*`` — demods, detect/CRC failures, eye-SNR
  histogram.
* ``repro.link.stats.*`` — frames sent/delivered.

Worker processes of the parallel runner collect into a fresh registry
per chunk and ship the snapshot back for merging
(:meth:`MetricsRegistry.merge_snapshot`), so campaign metrics are exact
regardless of how trials were scheduled.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Sequence, Tuple

DEFAULT_SNR_BOUNDS = (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
"""Default histogram bucket upper bounds for eye-SNR observations, dB."""


class HistogramData:
    """One histogram's accumulated state (bucket counts + summary)."""

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    def merge(self, other: "HistogramData") -> None:
        """Fold another histogram with identical bounds into this one."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"histogram bounds mismatch: {self.bounds} vs {other.bounds}"
            )
        for i, c in enumerate(other.bucket_counts):
            self.bucket_counts[i] += c
        self.count += other.count
        self.total += other.total
        self.min_value = min(self.min_value, other.min_value)
        self.max_value = max(self.max_value, other.max_value)

    def as_dict(self) -> dict:
        """JSON-safe view (min/max omitted when empty: inf isn't JSON)."""
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "total": round(self.total, 6),
            "min": round(self.min_value, 6) if self.count else None,
            "max": round(self.max_value, 6) if self.count else None,
        }

    @staticmethod
    def from_dict(data: dict) -> "HistogramData":
        """Rebuild from :meth:`as_dict` output."""
        hist = HistogramData(tuple(data["bounds"]))
        hist.bucket_counts = [int(c) for c in data["bucket_counts"]]
        hist.count = int(data["count"])
        hist.total = float(data["total"])
        hist.min_value = (
            float(data["min"]) if data.get("min") is not None else math.inf
        )
        hist.max_value = (
            float(data["max"]) if data.get("max") is not None else -math.inf
        )
        return hist


class MetricsRegistry:
    """A process-local store of metric values.

    Values live here; *instruments* (:class:`Counter` & co.) are just
    named handles that write into whichever registry is active.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, HistogramData] = {}

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (counters add, gauges
        last-write-wins, histograms bucket-merge)."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.gauges.update(other.gauges)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = HistogramData.from_dict(hist.as_dict())
            else:
                mine.merge(hist)

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold an :meth:`as_dict` snapshot (e.g. from a point chunk)."""
        for name, value in snapshot.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.gauges.update(snapshot.get("gauges", {}))
        for name, data in snapshot.get("histograms", {}).items():
            incoming = HistogramData.from_dict(data)
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = incoming
            else:
                mine.merge(incoming)

    def as_dict(self) -> dict:
        """JSON-safe snapshot of every value in the registry."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: hist.as_dict()
                for name, hist in sorted(self.histograms.items())
            },
        }

    def reset(self) -> None:
        """Drop every value (instrument registrations are unaffected)."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()


_DEFAULT = MetricsRegistry()
_ACTIVE = _DEFAULT

_INSTRUMENTS: Dict[str, Tuple[str, str]] = {}


def _register(name: str, kind: str, help: str) -> None:
    existing = _INSTRUMENTS.get(name)
    if existing is not None and existing[0] != kind:
        raise ValueError(
            f"instrument {name!r} already registered as {existing[0]}"
        )
    if existing is None or help:
        _INSTRUMENTS[name] = (kind, help)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def inc(self, n: float = 1) -> None:
        """Add ``n`` (default 1) to the active registry's count."""
        counters = _ACTIVE.counters
        counters[self.name] = counters.get(self.name, 0) + n

    def value(self, registry: Optional[MetricsRegistry] = None) -> float:
        """Current count in ``registry`` (active registry if omitted)."""
        return (registry or _ACTIVE).counters.get(self.name, 0)


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def set(self, value: float) -> None:
        """Record the current value in the active registry."""
        _ACTIVE.gauges[self.name] = float(value)

    def value(self, registry: Optional[MetricsRegistry] = None) -> Optional[float]:
        """Current value in ``registry`` (active registry if omitted)."""
        return (registry or _ACTIVE).gauges.get(self.name)


class Histogram:
    """A bucketed distribution with fixed upper bounds."""

    __slots__ = ("name", "bounds")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)

    def observe(self, value: float) -> None:
        """Record one observation in the active registry."""
        registry = _ACTIVE
        data = registry.histograms.get(self.name)
        if data is None:
            data = HistogramData(self.bounds)
            registry.histograms[self.name] = data
        data.observe(value)

    def data(
        self, registry: Optional[MetricsRegistry] = None
    ) -> Optional[HistogramData]:
        """Accumulated data in ``registry`` (active registry if omitted)."""
        return (registry or _ACTIVE).histograms.get(self.name)


def counter(name: str, help: str = "") -> Counter:
    """Register (idempotently) and return a counter instrument."""
    _register(name, "counter", help)
    return Counter(name)


def gauge(name: str, help: str = "") -> Gauge:
    """Register (idempotently) and return a gauge instrument."""
    _register(name, "gauge", help)
    return Gauge(name)


def histogram(
    name: str, bounds: Sequence[float] = DEFAULT_SNR_BOUNDS, help: str = ""
) -> Histogram:
    """Register (idempotently) and return a histogram instrument."""
    _register(name, "histogram", help)
    return Histogram(name, bounds)


def instruments() -> Dict[str, Tuple[str, str]]:
    """name -> (kind, help) for every registered instrument."""
    return dict(_INSTRUMENTS)


def active_registry() -> MetricsRegistry:
    """The registry instrument updates currently land in."""
    return _ACTIVE


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Route instrument updates to ``registry`` for the block (re-entrant)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = previous


def metrics_snapshot(registry: Optional[MetricsRegistry] = None) -> dict:
    """JSON-safe snapshot of ``registry`` (active registry if omitted)."""
    return (registry or _ACTIVE).as_dict()


def reset_metrics(registry: Optional[MetricsRegistry] = None) -> None:
    """Clear every value in ``registry`` (active registry if omitted)."""
    (registry or _ACTIVE).reset()
