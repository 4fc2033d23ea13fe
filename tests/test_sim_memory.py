"""A campaign point's working set does not scale with its trial count.

The point pipeline runs its sample-domain stages on record tiles of
``repro.sim.engine.TILE_ROWS`` trials and refills the same record and
noise blocks tile by tile, so a point holds a few tile-sized blocks at
a time rather than a few ``(trials, samples)`` blocks. ``tracemalloc``
sees every numpy allocation, so the peak is a deterministic count of
bytes, not a timing.
"""

import tracemalloc

from repro.sim import Scenario, TrialCampaign

PEAK_LIMIT_MB = 16.0
"""Bound on one 250-trial river point; whole-point blocks peaked at 55 MB."""


def point_peak_mb(trials: int) -> float:
    """Peak traced allocation of one river(330 m) point, MB."""
    campaign = TrialCampaign(trials_per_point=trials, seed=2023)
    scenario = Scenario.river(330.0)
    # Warm the channel-response, noise-shaping, template and Doppler
    # caches, which outlive the point.
    campaign.run_trials(scenario, 0)
    tracemalloc.start()
    try:
        campaign.run_trials(scenario, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def test_a_250_trial_point_peaks_under_the_limit():
    assert point_peak_mb(250) <= PEAK_LIMIT_MB


def test_peak_grows_far_slower_than_the_trial_count():
    # 8x the trials: the chip-rate arrays and the results grow with the
    # point, the sample-domain tiles do not.
    assert point_peak_mb(256) < 2.0 * point_peak_mb(32)
