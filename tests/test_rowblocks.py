"""Row-block threads: every budget gives the budget-1 bits.

:func:`repro.dsp.rowblocks.for_row_blocks` runs the point pipeline's
row-independent kernels over contiguous row blocks on a process-wide
thread pool. These tests pin the budget through the helper's internal
scope and check that

* each threaded kernel returns bitwise the budget-1 array, for any
  budget, row count and input layout;
* whole points (batched and per-row demod) and the frozen trial goldens
  come out unchanged when rows run on pool threads;
* the helper's failure paths behave: a block's exception reaches the
  caller, budget 1 and nested calls start no thread, a forked pool
  worker gets a fresh pool, and pool chunks that fill the cores run at
  budget 1;
* the budget is recorded as a metric but never enters a run's identity.
"""

import dataclasses
import json
import multiprocessing
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.acoustics.doppler import apply_doppler
from repro.core import Scenario
from repro.dsp import rowblocks
from repro.dsp.correlate import normalized_correlation_batch
from repro.dsp.noisegen import colored_noise_batch, white_noise_batch
from repro.obs.ledger import run_id, run_key
from repro.phy.batch import BatchedReaderReceiver
from repro.phy.preamble import preamble_template
from repro.phy.receiver import ReaderReceiver
from repro.sim import parallel
from repro.sim.engine import simulate_point_batch, simulate_trial
from repro.sim.parallel import default_workers, run_observed_campaign
from repro.sim.trials import TrialCampaign
from tests.test_sim_batched_parity import (
    CASES,
    GOLDENS,
    NOISE_FREE,
    campaign_for,
    encode,
)

BUDGETS = (2, 3, 5)
ROWS = (1, 7, 16, 33, 250)
SAMPLES = 600
SEED = 2023


def at_budget(budget, fn, *args, **kwargs):
    with rowblocks._budget_scope(budget):
        return fn(*args, **kwargs)


def generators(rows, offset=0):
    return [np.random.default_rng([SEED, offset + t]) for t in range(rows)]


def block_of(rows, layout="C"):
    """A complex ``(rows, SAMPLES)`` block in the given memory layout."""
    rng = np.random.default_rng([SEED, rows])
    shape = (rows, 2 * SAMPLES if layout == "strided" else SAMPLES)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    data += 0.3 - 0.2j  # a static leak for the carrier suppression
    if layout == "strided":
        return data[:, ::2]
    if layout == "F":
        return np.asfortranarray(data)
    return data


def river_psd():
    return Scenario.river().noise.psd_db


RECEIVER = BatchedReaderReceiver(ReaderReceiver(fs=96_000.0, chip_rate=4_000.0))
TEMPLATE = preamble_template(24, repeats=1)

KERNELS = {
    "colored-noise": lambda rows, layout: colored_noise_batch(
        SAMPLES, 96_000.0, river_psd(), 18_500.0, generators(rows)
    ),
    "white-noise": lambda rows, layout: white_noise_batch(
        SAMPLES, 2.5, generators(rows)
    ),
    "correlation": lambda rows, layout: normalized_correlation_batch(
        block_of(rows, layout), TEMPLATE
    ),
    "suppress": lambda rows, layout: RECEIVER.suppress_carrier_batch(
        block_of(rows, layout)
    ),
    "doppler": lambda rows, layout: apply_doppler(
        block_of(rows, layout), 96_000.0, 18_500.0, 1.2
    ),
}
LAYOUTS = {
    "colored-noise": ("C",),
    "white-noise": ("C",),
    "correlation": ("C", "strided", "F"),
    "suppress": ("C", "strided", "F"),
    "doppler": ("C", "strided", "F"),
}


class TestKernelsAreBitIdenticalAcrossBudgets:
    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize(
        "name,layout",
        [(name, layout) for name in KERNELS for layout in LAYOUTS[name]],
    )
    def test_kernel(self, name, layout, rows):
        kernel = KERNELS[name]
        reference = at_budget(1, kernel, rows, layout)
        assert reference.shape[0] == rows
        for budget in BUDGETS:
            got = at_budget(budget, kernel, rows, layout)
            assert np.array_equal(got, reference), (name, layout, budget)

    def test_blocks_really_run_on_pool_threads(self):
        calls = []

        def record(lo, hi):
            calls.append((lo, hi, threading.get_ident()))

        at_budget(3, rowblocks.for_row_blocks, 250, record)
        assert sorted(c[:2] for c in calls) == [(0, 83), (83, 166), (166, 250)]
        caller = threading.get_ident()
        assert [c[2] == caller for c in sorted(calls)] == [True, False, False]

    def test_blocks_never_go_below_the_minimum_size(self):
        calls = []
        at_budget(5, rowblocks.for_row_blocks, 40, lambda lo, hi: calls.append((lo, hi)))
        assert sorted(calls) == [(0, 20), (20, 40)]


POINT_ROWS = 48


def point(scenario, budget, receiver=None, include_noise=True):
    payloads = [
        bytes(rng.integers(0, 256, size=8, dtype=np.uint8))
        for rng in generators(POINT_ROWS, offset=500)
    ]
    # Fresh generators, advanced past the payload draws.
    rngs = generators(POINT_ROWS, offset=500)
    for rng in rngs:
        rng.integers(0, 256, size=8, dtype=np.uint8)
    return at_budget(
        budget, simulate_point_batch, scenario, payloads, rngs,
        receiver=receiver, include_noise=include_noise,
    )


class TestPointsAreBitIdenticalAcrossBudgets:
    @pytest.mark.parametrize(
        "case", ["noise", "noise-free", "drift", "per-row-demod"]
    )
    def test_simulate_point_batch(self, case):
        scenario = Scenario.river()
        options = {}
        if case == "noise-free":
            options["include_noise"] = False
        if case == "drift":
            scenario = dataclasses.replace(scenario, platform_drift_mps=0.6)
        if case == "per-row-demod":
            options["receiver"] = ReaderReceiver.for_scenario(
                scenario, rake_taps=2
            )
        reference = point(scenario, 1, **options)
        assert len(reference) == POINT_ROWS
        assert any(r.detected for r in reference)
        for budget in (2, 3, 5):
            assert point(scenario, budget, **options) == reference, budget


def golden_rows_last(name, fillers):
    """Run a golden case's trials behind ``fillers`` other rows.

    The goldens' six rows then sit in the point's last row block, which
    a pool thread computes whenever the budget allows two or more.
    """
    if name == NOISE_FREE:
        scenario, campaign, include_noise = (
            Scenario.river(100.0), campaign_for("river-100"), False
        )
    else:
        build, _ = CASES[name]
        scenario, campaign, include_noise = build(), campaign_for(name), True
    rngs = generators(fillers, offset=900) + [
        np.random.default_rng(s) for s in campaign.trial_seeds(0)
    ]
    payloads = [
        bytes(rng.integers(0, 256, size=campaign.payload_bytes, dtype=np.uint8))
        for rng in rngs
    ]
    receiver = (
        campaign.receiver_factory(scenario)
        if campaign.receiver_factory is not None
        else None
    )
    results = simulate_point_batch(
        scenario, payloads, rngs, node=campaign.node_factory(),
        frame_config=campaign.frame_config, receiver=receiver,
        si_suppression_db=campaign.si_suppression_db,
        include_noise=include_noise,
    )
    return [encode(r) for r in results[fillers:]]


class TestGoldensOnPoolThreads:
    @pytest.fixture(scope="class")
    def goldens(self):
        return json.loads(GOLDENS.read_text())

    @pytest.mark.parametrize("budget", [2, 3])
    @pytest.mark.parametrize("name", [*CASES, NOISE_FREE])
    def test_golden_rows_in_the_last_block(self, goldens, name, budget):
        assert at_budget(budget, golden_rows_last, name, 42) == goldens[name]


class TestFailurePaths:
    def test_exception_in_a_later_block_reaches_the_caller(self):
        done = []

        def fn(lo, hi):
            if lo == 0:
                done.append(lo)
                return
            raise ValueError(f"block at {lo}")

        with pytest.raises(ValueError, match="block at 83"):
            at_budget(3, rowblocks.for_row_blocks, 250, fn)
        assert done == [0]

    def test_first_block_exception_wins_after_all_blocks_finish(self):
        finished = []

        def fn(lo, hi):
            if lo == 0:
                raise KeyError("first")
            finished.append(lo)

        with pytest.raises(KeyError, match="first"):
            at_budget(2, rowblocks.for_row_blocks, 64, fn)
        assert finished == [32]

    def test_budget_one_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(rowblocks, "_pool", None)
        monkeypatch.setattr(rowblocks, "_pool_threads", 0)
        before = threading.active_count()
        calls = []
        at_budget(1, rowblocks.for_row_blocks, 250, lambda lo, hi: calls.append((lo, hi)))
        assert calls == [(0, 250)]
        assert threading.active_count() == before
        assert rowblocks._pool is None

    def test_small_blocks_and_one_row_trials_start_no_thread(self, monkeypatch):
        monkeypatch.setattr(rowblocks, "_pool", None)
        monkeypatch.setattr(rowblocks, "_pool_threads", 0)
        before = threading.active_count()
        at_budget(4, rowblocks.for_row_blocks, 31, lambda lo, hi: None)
        at_budget(
            4, simulate_trial, Scenario.river(), rng=np.random.default_rng(7)
        )
        assert threading.active_count() == before
        assert rowblocks._pool is None

    def test_small_calls_do_not_read_the_budget(self, monkeypatch):
        def unread():
            raise AssertionError("row_budget() read")

        monkeypatch.setattr(rowblocks, "row_budget", unread)
        calls = []
        rows = 2 * rowblocks.MIN_BLOCK_ROWS - 1
        rowblocks.for_row_blocks(rows, lambda lo, hi: calls.append((lo, hi)))
        assert calls == [(0, rows)]

    def test_concurrent_callers_while_the_pool_grows(self, monkeypatch):
        # Callers on several threads ask for ever more blocks, so the
        # pool is replaced while others still submit to the old one.
        def one_round():
            monkeypatch.setattr(rowblocks, "_pool", None)
            monkeypatch.setattr(rowblocks, "_pool_threads", 0)
            errors, start = [], threading.Barrier(4)

            def caller(seed):
                try:
                    start.wait()
                    for rows in range(32 + seed, 200, 4):
                        hits = [0] * rows

                        def fn(lo, hi):
                            for r in range(lo, hi):
                                hits[r] += 1

                        rowblocks.for_row_blocks(rows, fn)
                        assert hits == [1] * rows
                except BaseException as exc:  # reported below
                    errors.append(exc)

            callers = [threading.Thread(target=caller, args=(s,)) for s in range(4)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in callers)
            return errors

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with rowblocks._budget_scope(6):
                errors = [e for _ in range(100) for e in one_round()]
        finally:
            sys.setswitchinterval(interval)
        assert errors == []

    def test_nested_call_runs_inline(self):
        inner = []

        def outer(lo, hi):
            rowblocks.for_row_blocks(
                hi - lo,
                lambda a, b: inner.append((lo, a, b, threading.get_ident())),
            )

        at_budget(2, rowblocks.for_row_blocks, 64, outer)
        assert sorted(c[:3] for c in inner) == [(0, 0, 32), (32, 0, 32)]
        assert len({c[3] for c in inner}) == 2

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
    def test_forked_chunk_gets_a_fresh_pool(self):
        scenario = Scenario.river(200.0)
        campaign = TrialCampaign(trials_per_point=40, seed=SEED)
        serial = at_budget(1, campaign.run_trials, scenario, 0)
        at_budget(2, rowblocks.for_row_blocks, 64, lambda lo, hi: None)
        assert rowblocks._pool is not None
        pool = ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("fork")
        )
        try:
            job = pool.submit(
                parallel._run_chunk, campaign, scenario, 0, False, 2
            )
            results, telemetry = job.result(timeout=60)
        finally:
            for process in list(pool._processes.values()):
                if process.is_alive() and not job.done():
                    process.kill()
            pool.shutdown(wait=True, cancel_futures=True)
        assert telemetry is None
        assert results == serial

    def test_chunks_that_fill_the_cores_run_at_budget_one(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert parallel._chunk_row_threads(1) == 2
        assert parallel._chunk_row_threads(2) == 1
        assert parallel._chunk_row_threads(8) == 1
        seen = []

        def spy(self, scenario, point_index=0, start=0, stop=None):
            seen.append(rowblocks.row_budget())
            return []

        monkeypatch.setattr(TrialCampaign, "run_trials", spy)
        parallel._run_chunk(
            TrialCampaign(), Scenario.river(), 0, True,
            parallel._chunk_row_threads(2),
        )
        assert seen == [1]
        assert rowblocks.row_budget() == 2  # the scope ends with the chunk


class TestUsableCpus:
    def test_affinity_mask_sets_workers_and_budget(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert rowblocks.usable_cpus() == 1
        assert default_workers() == 1
        assert rowblocks.row_budget() == 1

    def test_cpu_count_where_there_is_no_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert rowblocks.usable_cpus() == 3
        assert default_workers() == 3


class TestObservability:
    @pytest.mark.parametrize("trials", [None, 40])
    def test_budget_is_a_metric_not_part_of_the_run_identity(self, trials):
        campaign = (
            None if trials is None
            else TrialCampaign(trials_per_point=trials)
        )
        manifests = {
            budget: at_budget(
                budget, run_observed_campaign, [Scenario.river()], campaign,
                workers=1, progress=False,
            )[1]
            for budget in (1, 2)
        }
        gauge = "repro.sim.parallel.row_threads"
        assert manifests[1].metrics["gauges"][gauge] == 1
        assert manifests[2].metrics["gauges"][gauge] == 2
        assert run_key(manifests[1]) == run_key(manifests[2])
        assert run_id(manifests[1]) == run_id(manifests[2])
