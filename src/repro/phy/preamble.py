"""Preamble generation and detection.

The uplink frame leads with a fixed chip pattern built from the Barker-13
sequence: Barker codes have the lowest possible correlation sidelobes, so
a normalised correlator can pick the frame start out of noise at the low
SNRs the 300 m experiments operate at. The pattern is transmitted at the
chip rate like the data, so a detection also pins chip timing and gives a
phase reference for coherent slicing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.dsp.correlate import (
    normalized_correlation,
    normalized_correlation_batch,
    peak_to_sidelobe,
)

BARKER13 = np.array([1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1], dtype=np.int64)
"""The length-13 Barker code (as 0/1 chips)."""


@lru_cache(maxsize=16)
def preamble_chips(repeats: int = 2) -> np.ndarray:
    """The frame preamble: ``repeats`` Barker-13 codes back to back.

    Two repeats (26 chips) is the default: long enough for a -3 dB-SNR
    detection, short enough to cost only ~26 ms at 1 kchip/s.

    The returned array is memoized and marked read-only — every frame
    build and every demodulation asks for the same pattern, so it is
    built once per (repeats), not once per trial.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    chips = np.tile(BARKER13, repeats)
    chips.setflags(write=False)
    return chips


@lru_cache(maxsize=32)
def preamble_template(
    samples_per_chip: int, repeats: int = 2, depth: float = 1.0
) -> np.ndarray:
    """Sample-rate correlation template (zero-mean, +-depth/2 levels).

    Zero-mean because the receiver strips DC before correlating; the
    template must live in the same subspace or the correlation peak
    shifts. Memoized (read-only) like :func:`preamble_chips`.
    """
    chips = preamble_chips(repeats)
    # Barker-13 is unbalanced (9 ones / 4 zeros): subtract the true mean,
    # not 0.5, or the template leaks into the suppressed-DC subspace.
    levels = (chips.astype(np.float64) - chips.mean()) * depth
    template = np.repeat(levels, samples_per_chip)
    template.setflags(write=False)
    return template


@dataclass(frozen=True)
class PreambleDetection:
    """Result of a preamble search.

    Attributes:
        start_index: sample index where the preamble starts.
        score: normalised correlation in [0, 1] at the peak.
        psl: peak-to-sidelobe ratio of the correlation.
        phase: complex rotation of the received preamble relative to the
            template (use ``conj(phase)/|phase|`` to derotate the frame).
    """

    start_index: int
    score: float
    psl: float
    phase: complex


def detect_preamble(
    signal: np.ndarray,
    samples_per_chip: int,
    repeats: int = 2,
    threshold: float = 0.5,
) -> Optional[PreambleDetection]:
    """Search a baseband record for the frame preamble.

    Correlation is done per Barker repeat and combined *non-coherently*
    (sum of magnitudes): a carrier offset that rotates the signal across
    the full preamble barely rotates it within one 13-chip segment, so
    detection stays solid through the Doppler range the CFO estimator
    can fix (~+-50 Hz at the default rates).

    Args:
        signal: complex baseband record (DC already suppressed).
        samples_per_chip: receiver oversampling per chip.
        repeats: Barker repeats the transmitter used.
        threshold: minimum normalised correlation to accept.

    Returns:
        The detection, or None when nothing clears the threshold.
    """
    segment = preamble_template(samples_per_chip, repeats=1)
    period = len(segment)
    total_len = period * repeats
    if len(signal) < total_len:
        return None
    seg_corr = normalized_correlation(signal, segment.astype(np.complex128))
    if len(seg_corr) == 0:
        return None

    # Combined score at start k: mean of per-segment scores.
    n_starts = len(signal) - total_len + 1
    if n_starts <= 0:
        return None
    combined = np.zeros(n_starts)
    for r in range(repeats):
        combined += seg_corr[r * period : r * period + n_starts]
    combined /= repeats

    peak = int(np.argmax(combined))
    score = float(combined[peak])
    if score < threshold:
        return None
    raw = np.vdot(
        segment.astype(np.complex128),
        np.asarray(signal[peak : peak + period], dtype=np.complex128),
    )
    return PreambleDetection(
        start_index=peak,
        score=score,
        psl=peak_to_sidelobe(combined, guard=samples_per_chip),
        phase=complex(raw),
    )


@dataclass(frozen=True)
class BatchDetection:
    """Per-record preamble search results for a batch of records.

    Column ``t`` of every array describes record ``t``; fields of rows
    where ``ok`` is False are zero and must be ignored.
    """

    ok: np.ndarray
    start_index: np.ndarray
    score: np.ndarray
    psl: np.ndarray
    phase: np.ndarray

    def at(self, t: int) -> Optional[PreambleDetection]:
        """Record ``t``'s detection in the scalar result type."""
        if not self.ok[t]:
            return None
        return PreambleDetection(
            start_index=int(self.start_index[t]),
            score=float(self.score[t]),
            psl=float(self.psl[t]),
            phase=complex(self.phase[t]),
        )


def detect_preamble_batch(
    signals: np.ndarray,
    samples_per_chip: int,
    repeats: int = 2,
    threshold: float = 0.5,
) -> BatchDetection:
    """Search a ``(trials, n)`` batch of records for the frame preamble.

    The batched counterpart of :func:`detect_preamble`: the per-segment
    correlations run as one FFT-based batch
    (:func:`repro.dsp.correlate.normalized_correlation_batch`) and the
    non-coherent combining, peak pick, and threshold test vectorize over
    the trial axis. The combining and phase-reference arithmetic uses
    row-wise elementwise ops and last-axis reductions only, so each
    record's result is independent of its batch neighbours.
    """
    signals = np.asarray(signals, dtype=np.complex128)
    if signals.ndim != 2:
        raise ValueError("signals must be a (trials, n) array")
    trials, n = signals.shape
    empty = BatchDetection(
        ok=np.zeros(trials, dtype=bool),
        start_index=np.zeros(trials, dtype=np.int64),
        score=np.zeros(trials),
        psl=np.zeros(trials),
        phase=np.zeros(trials, dtype=np.complex128),
    )
    segment = preamble_template(samples_per_chip, repeats=1)
    period = len(segment)
    total_len = period * repeats
    if trials == 0 or n < total_len:
        return empty
    seg_corr = normalized_correlation_batch(signals, segment)
    n_starts = n - total_len + 1
    if seg_corr.shape[1] == 0 or n_starts <= 0:
        return empty

    combined = seg_corr[:, :n_starts].copy()
    for r in range(1, repeats):
        combined += seg_corr[:, r * period : r * period + n_starts]
    combined /= repeats

    peak = np.argmax(combined, axis=1)
    score = combined[np.arange(trials), peak]
    ok = score >= threshold
    start_index = np.where(ok, peak, 0).astype(np.int64)
    psl = np.zeros(trials)
    phase = np.zeros(trials, dtype=np.complex128)
    hits = np.flatnonzero(ok)
    if len(hits):
        # Phase reference: the (real) segment against each record's
        # preamble window, reduced along the sample axis.
        gather = signals[
            hits[:, None], peak[hits, None] + np.arange(period)[None, :]
        ]
        phase[hits] = (segment[None, :] * gather).sum(axis=1)
        # Peak-to-sidelobe, vectorised: blank each row's guard window
        # (correlation scores are non-negative, so -1 never wins a max)
        # and take the row max as the sidelobe. Matches
        # :func:`repro.dsp.correlate.peak_to_sidelobe` row by row: the
        # peak/sidelobe division is the same float op, and an all-
        # blanked or all-zero sidelobe maps to inf either way.
        # The window is written through a (hits, 2 sps + 1) index
        # gather; indices clipped at the record ends land inside it.
        # When every row hit, ``combined`` (not read again) is blanked
        # in place.
        masked = combined if len(hits) == trials else combined[hits]
        guard = np.clip(
            peak[hits, None]
            + np.arange(-samples_per_chip, samples_per_chip + 1)[None, :],
            0,
            n_starts - 1,
        )
        masked[np.arange(len(hits))[:, None], guard] = -1.0
        side = masked.max(axis=1)
        with np.errstate(divide="ignore"):
            psl[hits] = np.where(
                side > 0.0,
                score[hits] / np.where(side > 0.0, side, 1.0),
                np.inf,
            )
    return BatchDetection(
        ok=ok,
        start_index=start_index,
        score=np.where(ok, score, 0.0),
        psl=psl,
        phase=phase,
    )
