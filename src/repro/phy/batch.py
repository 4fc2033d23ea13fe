"""Batched reader receive chain: one pass over ``(trials, samples)``.

The per-trial receive chain spends most of a Monte-Carlo campaign's time
dispatching small numpy kernels and Python loops per record. This module
runs every stage across the trial axis at once, in two halves:

*Per row tile* (the block itself, or each tile the caller hands over):

1. **SI suppression** — mean removal and the DC-blocking IIR along the
   sample axis of the ``(rows, samples)`` tile.
2. **Preamble search** — one FFT-based batched normalised correlation
   (:func:`repro.phy.preamble.detect_preamble_batch`).
3. **CFO estimation** — the lag-autocorrelation of every detected
   record's modulation-stripped preamble, as one gather + reduction.
4a. **Chip slicing: integrate-and-dump** — each detected row's data
    region, derotated by its CFO and summed chip by chip via a
    gather/reshape/sum.

*Once over every detected row:*

4b. **Chip slicing: phase tracking** — the decision-directed phase
    loop, advanced chip-by-chip over all rows (sequential in time but
    vector across trials).
5. **Frame parse + scoring stats** — FM0/CRC per record (vectorised
   decoders in :mod:`repro.phy.coding` / :mod:`repro.phy.crc`).

The first half is where the sample-domain memory is, so it runs on
tiles; the second costs the same per call whatever the row count, so it
runs once.

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

import dataclasses
import math
from collections.abc import Iterator
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.contracts import (
    ComplexShaped,
    FloatShaped,
    IntShaped,
    Shaped,
)
from repro.obs.metrics import counter, gauge, histogram
from repro.obs.probes import probe_finite, probe_invariant
from repro.obs.spans import span
from repro.phy.frame import parse_frames_batch
from repro.phy.preamble import (
    BatchDetection,
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
    suppress_carrier_rows,
)

BATCHED_ENGINE_VERSION = 1
"""Version stamp of the batched kernel, recorded in run manifests'
``engine_versions`` so a stored result pins the exact batched-path
generation that produced it."""

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
        """Stage 1 over the batch (:func:`repro.phy.receiver.suppress_carrier_rows`)."""
        return suppress_carrier_rows(records, self.receiver.dc_pole)

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

    def _dump_chips_batch(
        self,
        centred: ComplexShaped["trials", "samples"],
        rows: IntShaped["detected"],
        start: IntShaped["detected"],
        cfo: FloatShaped["detected"],
        tiles: "_TileFronts",
    ) -> tuple:
        """Stage 4's integrate-and-dump over the detected rows of one tile.

        Returns ``(dumps, n_dumps)``: complex chip integrals as a padded
        ``(detected, max_dumps)`` block plus the valid dump count per
        row. CFO derotation happens here, on the gathered data region
        only — the preamble samples are never consumed after CFO
        estimation, so derotating them would be wasted transcendentals.
        Each gathered sample is rotated by the same per-sample-index
        phasor the full-record form would apply, so the dumps are
        bitwise-unchanged.
        """
        rx = self.receiver
        k = len(rows)
        n = centred.shape[1]
        n_preamble = len(preamble_chips(rx.frame_config.preamble_repeats))
        data_start = start + n_preamble * rx.sps
        n_dumps = np.maximum(n - data_start, 0) // rx.sps
        max_dumps = int(n_dumps.max()) if k else 0
        if max_dumps == 0:
            return np.zeros((k, 0), dtype=np.complex128), n_dumps

        # Copy each row's data region into a scratch block reused from
        # tile to tile (one slice per row, several times faster than a
        # 2-D index gather), derotate it and sum along the chip axis.
        # Past the record end a row is padded with its last sample;
        # padding only ever lands in dumps past that row's valid count,
        # which the phase loop masks.
        region = max_dumps * rx.sps
        gathered = tiles.scratch(0, (k, region), centred.size)
        for j, (row, begin) in enumerate(zip(rows.tolist(), data_start.tolist())):
            valid = min(max(n - begin, 0), region)
            gathered[j, :valid] = centred[row, begin : begin + valid]
            gathered[j, valid:] = centred[row, n - 1]
        shifted = np.flatnonzero(cfo != 0.0)
        if len(shifted):
            # Derotation phase is linear in the region sample index
            # (theta_j = -2 pi cfo (n_preamble sps + j) / fs — the data
            # region starts a fixed preamble length after the detected
            # start), so the phasor is a geometric sequence per row: one
            # complex cumprod instead of a full complex exp over the
            # region. Phasor magnitude drifts ~1e-14 over a frame — far
            # below channel noise. The padded tail would flatten theta in
            # the exact form, but those samples only ever land in masked
            # dumps.
            alpha = -2j * np.pi * cfo[shifted] / rx.fs
            steps = tiles.scratch(1, (len(shifted), region), centred.size)
            steps[:, 0] = np.exp(alpha * (n_preamble * rx.sps))
            steps[:, 1:] = np.exp(alpha)[:, None]
            np.cumprod(steps, axis=1, out=steps)
            if len(shifted) == k:
                gathered *= steps
            else:
                gathered[shifted] *= steps
        dumps = np.sum(gathered.reshape(k, max_dumps, rx.sps), axis=2)
        return dumps, n_dumps

    def _slice_chips_batch(
        self,
        dumps: ComplexShaped["detected", "dumps"],
        n_dumps: IntShaped["detected"],
        phase0: FloatShaped["detected"],
    ) -> FloatShaped["detected", "dumps"]:
        """Stage 4's phase tracking over every detected row of a point.

        Derotates each row's chip integrals by its preamble phase and
        tracks the residual drift with the decision-directed loop,
        returning the soft chip values as a ``(detected, dumps)`` block
        (valid through ``n_dumps`` per row). The loop steps chip by chip
        whatever the row count, so it runs once per point, not per tile.
        """
        k, max_dumps = dumps.shape
        if max_dumps == 0:
            return np.zeros((k, 0))
        gain = self.receiver.phase_loop_gain
        if gain <= 0:
            # No tracking: one constant derotation per row.
            rot = np.cos(-phase0) + 1j * np.sin(-phase0)
            return (dumps * rot[:, None]).real

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
        return soft.T

    # -- top level ----------------------------------------------------------

    def _demodulate_tile(
        self, records: Shaped["trials", "samples"], tiles: "_TileFronts"
    ) -> None:
        """The per-tile front half: stages 1-3 and the integrate-and-dump.

        Reads ``records`` once and keeps only chip-rate results in
        ``tiles``, so the caller may overwrite the block afterwards.
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
        n = records.shape[1]
        if tiles.samples is None:
            tiles.samples = n
        elif n != tiles.samples:
            raise ValueError(
                f"every tile needs {tiles.samples} samples per record, got {n}"
            )

        with span("suppress"):
            centred = self.suppress_carrier_batch(records)
        with span("detect"):
            detection = detect_preamble_batch(
                centred,
                rx.sps,
                repeats=rx.frame_config.preamble_repeats,
                threshold=rx.preamble_threshold,
            )
        tiles.detections.append(detection)
        rows = np.flatnonzero(detection.ok)
        if not len(rows):
            return
        start = detection.start_index[rows]
        cfo = np.zeros(len(rows))
        if rx.cfo_compensation:
            with span("cfo"):
                cfo = self._estimate_cfo_batch(centred, rows, start)
        with span("slice"):
            dumps, n_dumps = self._dump_chips_batch(
                centred, rows, start, cfo, tiles
            )
        tiles.cfo.append(cfo)
        tiles.dumps.append(dumps)
        tiles.n_dumps.append(n_dumps)

    def _demodulate_point(self, tiles: "_TileFronts") -> List[DemodResult]:
        """The per-point finish over every tile's detected rows: phase
        tracking, frame parse, eye SNR and the receiver metrics."""
        rx = self.receiver
        trials = sum(len(d.ok) for d in tiles.detections)
        BATCHES_COUNTER.inc()
        BATCH_SIZE_GAUGE.set(trials)
        BATCH_SIZE_HISTOGRAM.observe(trials)
        if trials == 0:
            return []
        DEMODS_COUNTER.inc(trials)
        detection = tiles.detection()

        no_frame = DemodResult(
            frame=None,
            detection=None,
            chip_soft=np.zeros(0),
            snr_db=-math.inf,
            success=False,
        )
        results: List[DemodResult] = [no_frame] * trials
        rows = np.flatnonzero(detection.ok)
        misses = trials - len(rows)
        if misses:
            DETECT_FAILURES_COUNTER.inc(misses)
        if not len(rows):
            return results

        cfo = np.concatenate(tiles.cfo)
        n_dumps = np.concatenate(tiles.n_dumps)
        with span("slice"):
            phase0 = np.arctan2(
                detection.phase[rows].imag, detection.phase[rows].real
            )
            soft = self._slice_chips_batch(tiles.joined_dumps(), n_dumps, phase0)
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

    def demodulate_batch(
        self,
        records: Union[
            Shaped["trials", "samples"], Iterator[Shaped["rows", "samples"]]
        ],
    ) -> List[DemodResult]:
        """Run the full chain on a ``(trials, samples)`` block or its row tiles.

        ``records`` is one block, or an iterator of ``(rows, samples)``
        tiles in trial order (the point pipeline hands over its records
        this way). Each tile runs the front half — stages 1-3 and the
        integrate-and-dump of stage 4 — as it arrives, and only its
        chip-rate results are kept, so a producer may refill one buffer
        for the next tile. Stage 4's phase loop, the frame parse and the
        scoring statistics cost the same per call whatever the row
        count, so they run once, over every tile's detected rows. Each
        half runs in a ``demod`` span.

        Any memory layout is accepted and demodulates to the same bits
        (the block is normalised to C order, without a copy when it is
        already C-contiguous), and so does any tiling. Returns one
        :class:`DemodResult` per row, in row (= trial) order; receiver
        metrics (demod/failure counters, the eye-SNR histogram) are
        recorded once per call, exactly as the per-record chain would.
        """
        tiles = _TileFronts()
        for block in records if isinstance(records, Iterator) else (records,):
            with span("demod"):
                self._demodulate_tile(block, tiles)
        with span("demod"):
            return self._demodulate_point(tiles)


class _TileFronts:
    """The front halves of one :meth:`BatchedReaderReceiver.demodulate_batch`
    call, tile by tile, plus the scratch blocks the tiles share."""

    def __init__(self) -> None:
        self.samples: Optional[int] = None
        self.detections: List[BatchDetection] = []
        # Per tile, over its detected rows only.
        self.cfo: List[np.ndarray] = []
        self.dumps: List[np.ndarray] = []
        self.n_dumps: List[np.ndarray] = []
        self._scratch = [np.empty(0, dtype=np.complex128)] * 2

    def scratch(
        self, slot: int, shape: Tuple[int, int], capacity: int
    ) -> np.ndarray:
        """A C-ordered ``shape`` view of scratch block ``slot``, which is
        allocated once (``capacity`` elements, or more if ``shape`` needs
        it) and reused by the following tiles."""
        size = shape[0] * shape[1]
        if self._scratch[slot].size < size:
            self._scratch[slot] = np.empty(
                max(size, capacity), dtype=np.complex128
            )
        return self._scratch[slot][:size].reshape(shape)

    def detection(self) -> BatchDetection:
        """Every tile's preamble search as one detection over the point."""
        if len(self.detections) == 1:
            return self.detections[0]
        return BatchDetection(**{
            field.name: np.concatenate(
                [getattr(d, field.name) for d in self.detections]
            )
            for field in dataclasses.fields(BatchDetection)
        })

    def joined_dumps(self) -> ComplexShaped["detected", "dumps"]:
        """Every tile's chip integrals as one block, zero-padded to the
        widest tile (padding lies past each row's valid count)."""
        if len(self.dumps) == 1:
            return self.dumps[0]
        width = max(d.shape[1] for d in self.dumps)
        joined = np.empty(
            (sum(len(d) for d in self.dumps), width), dtype=np.complex128
        )
        lo = 0
        for d in self.dumps:
            hi = lo + len(d)
            joined[lo:hi, : d.shape[1]] = d
            joined[lo:hi, d.shape[1] :] = 0.0
            lo = hi
        return joined
