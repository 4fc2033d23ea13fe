"""Near-zero-overhead runtime physics-invariant probes.

The static linter (:mod:`repro.analysis`) proves what the *source*
cannot do; these probes watch what the *numbers* actually do at run
time. A NaN smuggled into the batched receive chain does not crash —
it silently scores as a detection failure, which is the worst kind of
wrong answer. Probes catch that class of corruption at the stage that
produced it:

* **Non-finite samples** in the batched ``(trials, samples)`` arrays
  (and their scalar-engine counterparts), attributed to the engine
  stage (channel / reflect / noise / demod) that introduced them.
* **Received level ≤ source level** — a backscatter record louder than
  the projector means a gain bookkeeping error somewhere in the
  link-budget chain.
* **BER ∈ [0, 1]** — a bit error rate outside the unit interval is an
  accounting bug, not physics.
* **CRC/frame accounting** — demod, detection-failure, and CRC-failure
  counts must reconcile; a frame cannot pass CRC without detection.

Cost model: every probe starts with one module-global mode check, so
``off`` costs a function call. The default ``count`` mode performs one
cheap reduction per *batch* (not per trial) on the hot path — a single
``max(|re|, |im|)`` pass that detects NaN/Inf (both propagate through
``max``) and bounds the peak amplitude to within 3 dB in the same
sweep — and records violations in the active metrics registry
(``repro.obs.probes.violations`` plus a per-probe counter). ``raise``
mode additionally hard-fails with a :class:`ProbeViolation` naming the
probe and the attributed stage. The overhead budget on the batched
engine is 2%. The last measurement, a single-shot run of the retired
benchmark harness, read +6.4% (over budget), and nothing gates it
today; the paired ``off`` vs ``count`` measurement is ROADMAP item 3.

Mode comes from ``VAB_PROBES`` (``off`` / ``count`` / ``raise``,
default ``count``) or :func:`set_probe_mode` / the :func:`probes`
context manager.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from typing import Annotated, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.contracts import (
    MUTATES_GLOBAL,
    READS_ENVIRON,
    READS_GLOBAL,
)
from repro.obs.metrics import counter

PROBE_MODES = ("off", "count", "raise")
"""Recognised probe modes, least to most intrusive."""

PROBE_ENV = "VAB_PROBES"
"""Environment variable selecting the initial probe mode."""

LEVEL_MARGIN_DB = 6.0
"""Slack on the received-level ceiling: the cheap peak estimate is
within 3 dB of the true peak, and constructive multipath can add a
little on top — only gross gain errors should trip the probe."""

CHECKS_COUNTER = counter(
    "repro.obs.probes.checks", "invariant probes evaluated"
)
VIOLATIONS_COUNTER = counter(
    "repro.obs.probes.violations", "invariant probe violations observed"
)


class ProbeViolation(AssertionError):
    """A runtime physics invariant did not hold.

    Attributes:
        probe: the probe's dotted name (e.g. ``sim.engine.record``).
        stage: engine stage the violation is attributed to, when known.
        detail: human-readable description of what went wrong.
    """

    def __init__(
        self, probe: str, detail: str, stage: Optional[str] = None
    ) -> None:
        self.probe = probe
        self.stage = stage
        self.detail = detail
        where = f" [stage: {stage}]" if stage else ""
        super().__init__(
            f"physics invariant violated: {probe}{where}: {detail}"
        )


def _initial_mode() -> Annotated[str, READS_ENVIRON]:
    mode = os.environ.get(PROBE_ENV, "count").strip().lower()
    return mode if mode in PROBE_MODES else "count"


_MODE = _initial_mode()


def probe_mode() -> Annotated[str, READS_GLOBAL]:
    """The current probe mode (``off`` / ``count`` / ``raise``)."""
    return _MODE


def set_probe_mode(mode: str) -> Annotated[str, READS_GLOBAL, MUTATES_GLOBAL]:
    """Set the probe mode process-wide; returns the previous mode."""
    global _MODE
    if mode not in PROBE_MODES:
        raise ValueError(
            f"probe mode must be one of {PROBE_MODES}, got {mode!r}"
        )
    previous = _MODE
    _MODE = mode
    return previous


@contextmanager
def probes(mode: str) -> Iterator[None]:
    """Run a block under the given probe mode (restores on exit)."""
    previous = set_probe_mode(mode)
    try:
        yield
    finally:
        set_probe_mode(previous)


def _violation(probe: str, detail: str, stage: Optional[str]) -> None:
    """Record (and in ``raise`` mode, raise) one violation."""
    VIOLATIONS_COUNTER.inc()
    counter(f"repro.obs.probes.{probe}.violations").inc()
    if _MODE == "raise":
        raise ProbeViolation(probe, detail, stage)


def peak_component(values: np.ndarray) -> float:
    """``max(|re|, |im|)`` over an array, in one pass.

    NaN and ±Inf both propagate through the reduction, so a non-finite
    return detects corruption and a finite one bounds the true peak
    magnitude: ``peak_component(x) <= max|x| <= sqrt(2) *
    peak_component(x)``. Complex inputs are scanned through a float
    view (no temporary the size of the data beyond the |.| buffer).
    """
    arr = np.asarray(values)
    if arr.size == 0:
        return 0.0
    if np.iscomplexobj(arr):
        arr = np.ascontiguousarray(arr).view(np.float64)
    return float(np.max(np.abs(arr)))


def probe_signal(
    probe: str,
    values: np.ndarray,
    level_limit_db: Optional[float] = None,
    stage: Optional[str] = None,
    stage_arrays: Optional[Sequence[Tuple[str, np.ndarray]]] = None,
) -> bool:
    """Check a signal block for non-finite samples and a level ceiling.

    One reduction over ``values`` serves both checks. When the block is
    corrupt and ``stage_arrays`` — ``(stage_name, array)`` pairs in
    pipeline order — is given, the failure path (only) re-scans them to
    attribute the corruption to the first stage whose output is already
    non-finite; ``stage`` names the final stage and is the fallback
    attribution.

    Args:
        probe: dotted probe name for metrics/error attribution.
        values: the signal block (any shape, real or complex).
        level_limit_db: amplitude ceiling as ``20*log10(peak)`` (e.g.
            the scenario source level); ``None`` skips the level check.
        stage: stage name attributed when no earlier stage is corrupt.
        stage_arrays: upstream stage outputs for attribution.

    Returns:
        True when the invariants held (always True in ``count`` mode —
        violations surface as metrics).
    """
    if _MODE == "off":
        return True
    CHECKS_COUNTER.inc()
    peak = peak_component(values)
    if not math.isfinite(peak):
        blame = stage
        for name, arr in stage_arrays or ():
            if not math.isfinite(peak_component(arr)):
                blame = name
                break
        _violation(probe, "non-finite samples in signal block", blame)
        return False
    if level_limit_db is not None and peak > 0.0:
        # sqrt(2) covers the component-vs-magnitude slack exactly.
        peak_db = 20.0 * math.log10(peak * math.sqrt(2.0))
        if peak_db > level_limit_db + LEVEL_MARGIN_DB:
            _violation(
                probe,
                f"peak level {peak_db:.1f} dB exceeds limit "
                f"{level_limit_db:.1f} dB (+{LEVEL_MARGIN_DB:.0f} dB margin)",
                stage,
            )
            return False
    return True


def probe_finite(
    probe: str, values: np.ndarray, stage: Optional[str] = None
) -> bool:
    """Check an array for NaN/Inf (no level ceiling)."""
    return probe_signal(probe, values, level_limit_db=None, stage=stage)


def probe_unit_interval(
    probe: str,
    value: float,
    lo: float = 0.0,
    hi: float = 1.0,
    stage: Optional[str] = None,
) -> bool:
    """Check that a scalar lies in ``[lo, hi]`` (NaN fails)."""
    if _MODE == "off":
        return True
    CHECKS_COUNTER.inc()
    if math.isnan(value) or value < lo or value > hi:
        _violation(
            probe, f"value {value!r} outside [{lo:g}, {hi:g}]", stage
        )
        return False
    return True


def probe_invariant(
    probe: str, condition: bool, detail: str, stage: Optional[str] = None
) -> bool:
    """Check an arbitrary boolean invariant (e.g. counter accounting)."""
    if _MODE == "off":
        return True
    CHECKS_COUNTER.inc()
    if not condition:
        _violation(probe, detail, stage)
        return False
    return True
