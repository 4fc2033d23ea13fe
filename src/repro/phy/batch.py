"""Batched reader receive chain: one pass over ``(trials, samples)``.

The per-trial receive chain spends most of a Monte-Carlo campaign's time
dispatching small numpy kernels and Python loops per record. This module
runs every stage across the whole trial axis at once:

1. **SI suppression** — mean removal and the DC-blocking IIR along the
   sample axis of the full ``(trials, samples)`` block.
2. **Preamble search** — one FFT-based batched normalised correlation
   (:func:`repro.phy.preamble.detect_preamble_batch`).
3. **CFO estimation** — the lag-autocorrelation of every detected
   record's modulation-stripped preamble, as one gather + reduction.
4. **Coherent chip slicing** — integrate-and-dump via a gather/reshape/
   sum, with the decision-directed phase loop advanced chip-by-chip over
   the whole batch (the loop is sequential in time but vector across
   trials).
5. **Frame parse + scoring stats** — FM0/CRC per record (vectorised
   decoders in :mod:`repro.phy.coding` / :mod:`repro.phy.crc`).

**Bit-identity contract.** Every stage uses elementwise operations,
last-axis reductions, or row-independent gathers, so a record's result
does not depend on its batch neighbours: demodulating a batch of 25 and
demodulating each record in a batch of 1 produce bitwise-equal results.
:meth:`repro.phy.receiver.ReaderReceiver.demodulate` exploits this by
delegating standard-configuration records to this kernel with batch
size 1 — the per-trial and batched campaign paths therefore share one
implementation and agree bit-for-bit by construction.

Receivers with rake combining, decision-feedback equalisation, or
timing search enabled — and ``ReaderReceiver`` subclasses — are *not*
supported here; the point pipeline demodulates their records row by row
(see :meth:`BatchedReaderReceiver.supports`).
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.contracts import (
    ComplexShaped,
    FloatShaped,
    IntShaped,
    Shaped,
)
from repro.dsp.filters import _dc_block_rows
from repro.dsp.rowblocks import for_row_blocks
from repro.obs.metrics import counter, gauge, histogram
from repro.obs.probes import probe_finite, probe_invariant
from repro.obs.spans import span
from repro.phy.frame import parse_frames_batch
from repro.phy.preamble import (
    detect_preamble_batch,
    preamble_chips,
    preamble_template,
)
from repro.phy.receiver import (
    CRC_FAILURES_COUNTER,
    DEMODS_COUNTER,
    DETECT_FAILURES_COUNTER,
    SNR_HISTOGRAM,
    DemodResult,
    ReaderReceiver,
    _eye_snr_db,
)

BATCHED_ENGINE_VERSION = 1
"""Version stamp of the batched kernel, recorded in run manifests'
``engine_versions`` so a stored result pins the exact batched-path
generation that produced it."""

_GATHER_ROWS = 16
"""Rows the slicing stage gathers at once (a buffer of about 1 MB)."""

BATCHES_COUNTER = counter(
    "repro.phy.batch.batches", "record batches run through the batched chain"
)
BATCH_SIZE_GAUGE = gauge(
    "repro.phy.batch.size", "records in the last demodulated batch"
)
BATCH_SIZE_HISTOGRAM = histogram(
    "repro.phy.batch.demods",
    bounds=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
    help="batch-size distribution of batched demodulations",
)


def batch_supported(receiver: object) -> bool:
    """Whether a receiver can run on the batched kernel.

    True only for a stock :class:`ReaderReceiver` (not a subclass — an
    override of any stage method would silently be skipped) with the
    rake, equaliser, and timing-search extensions disabled. The point
    pipeline (:func:`repro.sim.engine.simulate_point_batch`) uses this
    to decide between batched and per-row demodulation.
    """
    return (
        type(receiver) is ReaderReceiver
        and receiver.rake_taps == 0
        and receiver.equalizer_taps == 0
        and receiver.timing_search == 0
    )


class BatchedReaderReceiver:
    """Vectorised receive chain over a stock :class:`ReaderReceiver`.

    Wraps an existing receiver configuration and demodulates a whole
    ``(trials, samples)`` block per call; per-record results are
    bitwise-equal to the wrapped receiver's :meth:`~ReaderReceiver.demodulate`
    (which itself delegates here for supported configurations).
    """

    def __init__(self, receiver: ReaderReceiver) -> None:
        if not batch_supported(receiver):
            raise ValueError(
                "batched demodulation needs a stock ReaderReceiver with "
                "rake_taps == equalizer_taps == timing_search == 0"
            )
        self.receiver = receiver

    supports = staticmethod(batch_supported)

    # -- stages -------------------------------------------------------------

    def suppress_carrier_batch(
        self, records: ComplexShaped["trials", "samples"]
    ) -> ComplexShaped["trials", "samples"]:
        """Stage 1 over the batch: mean removal + DC blocker per row.

        Row blocks run on separate threads
        (:func:`repro.dsp.rowblocks.for_row_blocks`), each writing its
        rows of one output block.
        """
        rx = self.receiver
        records = np.asarray(records)
        pole = rx.dc_pole if rx.dc_pole and 0.0 < rx.dc_pole < 1.0 else None
        centred = np.empty_like(
            records, dtype=np.result_type(records.dtype, np.float64)
        )

        def block(lo: int, hi: int) -> None:
            rows, out = records[lo:hi], centred[lo:hi]
            np.subtract(rows, rows.mean(axis=1, keepdims=True), out=out)
            if pole is not None:
                # dc_block_fast's IIR along the last axis: rows are
                # filtered independently.
                out[...] = _dc_block_rows(out, pole)

        for_row_blocks(len(records), block)
        return centred

    def _estimate_cfo_batch(
        self,
        centred: ComplexShaped["trials", "samples"],
        rows: IntShaped["detected"],
        start: IntShaped["detected"],
    ) -> FloatShaped["detected"]:
        """Stage 3 over the detected rows ``rows``: CFO per record, Hz."""
        rx = self.receiver
        n = centred.shape[1]
        cfo = np.zeros(len(rows))
        template = preamble_template(rx.sps, rx.frame_config.preamble_repeats)
        length = len(template)
        lag = 13 * rx.sps  # one Barker period
        if length <= lag:
            return cfo
        can = np.flatnonzero(start + length <= n)
        if not len(can):
            return cfo
        region = centred[
            rows[can, None], start[can, None] + np.arange(length)[None, :]
        ]
        stripped = region * template[None, :]  # template is real: conj-free
        acc = (np.conj(stripped[:, :-lag]) * stripped[:, lag:]).sum(axis=1)
        # angle(0) is 0, so the |acc| == 0 guard of the scalar chain is
        # implicit here.
        cfo[can] = np.angle(acc) * rx.fs / (2.0 * np.pi * lag)
        return cfo

    def _slice_chips_batch(
        self,
        centred: ComplexShaped["trials", "samples"],
        rows: IntShaped["detected"],
        start: IntShaped["detected"],
        phase0: FloatShaped["detected"],
        cfo: FloatShaped["detected"],
    ) -> tuple:
        """Stage 4 over the detected rows ``rows`` of ``centred``.

        Returns ``(soft, n_dumps)``: soft chip values as a padded
        ``(rows, max_dumps)`` block plus the valid dump count per row.
        CFO derotation happens here, on the gathered data region only —
        the preamble samples are never consumed after CFO estimation, so
        derotating them would be wasted transcendentals. Each gathered
        sample is rotated by the same per-sample-index phasor the full-
        record form would apply, so the dumps are bitwise-unchanged.
        """
        rx = self.receiver
        k = len(rows)
        n = centred.shape[1]
        n_preamble = len(preamble_chips(rx.frame_config.preamble_repeats))
        data_start = start + n_preamble * rx.sps
        n_dumps = np.maximum(n - data_start, 0) // rx.sps
        max_dumps = int(n_dumps.max()) if k else 0
        if max_dumps == 0:
            return np.zeros((k, 0)), n_dumps

        # Integrate-and-dump, _GATHER_ROWS rows at a time: copy each
        # row's data region into one small reused buffer (one slice per
        # row, several times faster than a 2-D index gather), derotate
        # it and sum along the chip axis. A full (rows, region) gather
        # would be a fresh block-sized allocation, first-touched here on
        # every point. Past the record end a row is padded with its last
        # sample; padding only ever lands in dumps past that row's valid
        # count, which are masked below.
        region = max_dumps * rx.sps
        dumps = np.empty((k, max_dumps), dtype=np.complex128)
        buffer = np.empty((min(k, _GATHER_ROWS), region), dtype=np.complex128)
        row_list = rows.tolist()
        starts = data_start.tolist()
        for lo in range(0, k, _GATHER_ROWS):
            hi = min(lo + _GATHER_ROWS, k)
            gathered = buffer[: hi - lo]
            for j in range(lo, hi):
                row, begin = row_list[j], starts[j]
                valid = min(max(n - begin, 0), region)
                gathered[j - lo, :valid] = centred[row, begin : begin + valid]
                gathered[j - lo, valid:] = centred[row, n - 1]
            shifted = np.flatnonzero(cfo[lo:hi] != 0.0)
            if len(shifted):
                # Derotation phase is linear in the region sample index
                # (theta_j = -2 pi cfo (n_preamble sps + j) / fs — the
                # data region starts a fixed preamble length after the
                # detected start), so the phasor is a geometric sequence
                # per row: one complex cumprod instead of a full complex
                # exp over the region. Phasor magnitude drifts ~1e-14
                # over a frame — far below channel noise. The padded
                # tail would flatten theta in the exact form, but those
                # samples only ever land in masked dumps.
                alpha = -2j * np.pi * cfo[lo:hi][shifted] / rx.fs
                steps = np.empty((len(shifted), region), dtype=np.complex128)
                steps[:, 0] = np.exp(alpha * (n_preamble * rx.sps))
                steps[:, 1:] = np.exp(alpha)[:, None]
                np.cumprod(steps, axis=1, out=steps)
                if len(shifted) == hi - lo:
                    gathered *= steps
                else:
                    gathered[shifted] *= steps
            np.sum(
                gathered.reshape(hi - lo, max_dumps, rx.sps),
                axis=2,
                out=dumps[lo:hi],
            )

        gain = rx.phase_loop_gain
        if gain <= 0:
            # No tracking: one constant derotation per row.
            rot = np.cos(-phase0) + 1j * np.sin(-phase0)
            return (dumps * rot[:, None]).real, n_dumps

        # Decision-directed first-order loop: sequential over chips,
        # vector over rows. Transposed, contiguous views keep the
        # per-chip slices cache-friendly, and every step writes into a
        # preallocated buffer — the loop body is pure ufunc dispatch.
        dump_re = np.ascontiguousarray(dumps.real.T)
        dump_im = np.ascontiguousarray(dumps.imag.T)
        soft = np.empty((max_dumps, k))
        phase = phase0.copy()
        # Update gate, hoisted: a dump drives the loop only while within
        # its row's valid count and non-zero (a zero dump carries no
        # phase information; rotation cannot make one non-zero). As a
        # float mask it gates by multiply: the masked error is +-0.0 and
        # adding +-0.0 leaves the phase bitwise unchanged.
        # Loop gain folded into the gate ((g*e)*t == g*(e*t) exactly for
        # t in {0, 1}), and the rotation written via the even/odd trig
        # symmetries so the -phase negation drops out of the loop body.
        gate = (
            (np.arange(max_dumps)[:, None] < n_dumps[None, :])
            & ((dump_re != 0.0) | (dump_im != 0.0))
        ).astype(np.float64)
        gate *= gain
        cos = np.empty(k)
        sin = np.empty(k)
        t1 = np.empty(k)
        t2 = np.empty(k)
        imag = np.empty(k)
        pos = np.empty(k, dtype=bool)
        err = np.empty(k)
        for i in range(max_dumps):
            real = soft[i]
            np.cos(phase, out=cos)
            np.sin(phase, out=sin)
            # rotated = dump * exp(-j phase)
            np.multiply(dump_re[i], cos, out=t1)
            np.multiply(dump_im[i], sin, out=t2)
            np.add(t1, t2, out=real)
            np.multiply(dump_im[i], cos, out=t1)
            np.multiply(dump_re[i], sin, out=t2)
            np.subtract(t1, t2, out=imag)
            # err = atan2(imag * sign(decision), |real| + eps), gated.
            np.greater_equal(real, 0.0, out=pos)
            np.negative(imag, out=t1)
            np.copyto(t1, imag, where=pos)
            np.absolute(real, out=t2)
            np.add(t2, 1e-30, out=t2)
            np.arctan2(t1, t2, out=err)
            np.multiply(err, gate[i], out=err)
            np.add(phase, err, out=phase)
        return soft.T, n_dumps

    # -- top level ----------------------------------------------------------

    def demodulate_batch(
        self, records: Shaped["trials", "samples"]
    ) -> List[DemodResult]:
        """Run the full chain on a ``(trials, samples)`` block.

        Any memory layout is accepted and demodulates to the same bits
        (the block is normalised to C order, without a copy when it is
        already C-contiguous). Returns one :class:`DemodResult` per row,
        in row (= trial) order; receiver metrics (demod/failure
        counters, the eye-SNR histogram) are recorded exactly as the
        per-record chain would.
        """
        rx = self.receiver
        # C order, whatever the caller's layout: the mean and the
        # cumulative sums reduce along the sample axis, and numpy sums a
        # strided axis in a different order than a contiguous one, so a
        # record's last bits would otherwise follow its memory layout.
        # No copy when the block is already C-contiguous.
        records = np.ascontiguousarray(records, dtype=np.complex128)
        if records.ndim != 2:
            raise ValueError("records must be a (trials, samples) array")
        trials, n = records.shape
        BATCHES_COUNTER.inc()
        BATCH_SIZE_GAUGE.set(trials)
        BATCH_SIZE_HISTOGRAM.observe(trials)
        if trials == 0:
            return []
        DEMODS_COUNTER.inc(trials)

        no_frame = DemodResult(
            frame=None,
            detection=None,
            chip_soft=np.zeros(0),
            snr_db=-math.inf,
            success=False,
        )
        results: List[DemodResult] = [no_frame] * trials
        if n == 0:
            DETECT_FAILURES_COUNTER.inc(trials)
            return results

        with span("suppress"):
            centred = self.suppress_carrier_batch(records)
        with span("detect"):
            detection = detect_preamble_batch(
                centred,
                rx.sps,
                repeats=rx.frame_config.preamble_repeats,
                threshold=rx.preamble_threshold,
            )
        rows = np.flatnonzero(detection.ok)
        misses = trials - len(rows)
        if misses:
            DETECT_FAILURES_COUNTER.inc(misses)
        if not len(rows):
            return results

        start = detection.start_index[rows]
        cfo = np.zeros(len(rows))
        if rx.cfo_compensation:
            with span("cfo"):
                cfo = self._estimate_cfo_batch(centred, rows, start)

        with span("slice"):
            phase0 = np.arctan2(
                detection.phase[rows].imag, detection.phase[rows].real
            )
            soft, n_dumps = self._slice_chips_batch(
                centred, rows, start, phase0, cfo
            )
            # One copy to C order: every row's chips are then a
            # contiguous view of it.
            soft = np.ascontiguousarray(soft)
        # Soft chips are the last analog quantity before hard decisions;
        # a NaN here would silently slice to arbitrary bits.
        probe_finite("phy.batch.soft_chips", soft, stage="demod")

        with span("parse"):
            frames = parse_frames_batch(
                (soft >= 0.0).astype(np.int64), n_dumps, rx.frame_config
            )
        crc_failures = 0
        for j, t in enumerate(rows):
            soft_row = soft[j, : n_dumps[j]]
            frame = frames[j]
            snr_db = _eye_snr_db(soft_row)
            success = bool(frame is not None and frame.crc_ok)
            if not success:
                crc_failures += 1
            if math.isfinite(snr_db):
                SNR_HISTOGRAM.observe(snr_db)
            results[t] = DemodResult(
                frame=frame,
                detection=detection.at(t),
                chip_soft=soft_row,
                snr_db=snr_db,
                success=success,
                cfo_hz=float(cfo[j]),
            )
        if crc_failures:
            CRC_FAILURES_COUNTER.inc(crc_failures)
        probe_invariant(
            "phy.batch.accounting",
            len(rows) + misses == trials and 0 <= crc_failures <= len(rows),
            f"demod accounting mismatch: {trials} records, "
            f"{len(rows)} detected, {misses} missed, "
            f"{crc_failures} CRC failures",
            stage="demod",
        )
        return results
