"""The library-wide random-number contract.

Every stochastic entry point in :mod:`repro` takes an explicit
``numpy.random.Generator`` (``rng=``) parameter. Campaign code *must*
thread generators derived from :meth:`repro.sim.trials.TrialCampaign.trial_seeds`
— that is the contract the parallel runner's bit-identical guarantee
rests on, and :mod:`repro.analysis` rule **VAB001** enforces it by
rejecting unseeded ``np.random.default_rng()`` fallbacks in library
code.

For interactive or exploratory use the ``rng`` parameter may still be
omitted. Instead of silently handing out OS entropy, omitted generators
draw from one *documented, process-global* stream seeded with
:data:`DEFAULT_FALLBACK_SEED`:

* successive unseeded calls draw different values (the stream advances),
  so statistical behaviour matches the old ``default_rng()`` fallback;
* two runs of the same process are identical, so "I didn't pass a seed"
  is no longer a reproducibility leak.

Tests and notebooks that want a fresh, independent stream should pass
their own generator; :func:`reseed_fallback` exists to reset the shared
stream between independent experiments in one process.
"""

from __future__ import annotations

from typing import Annotated, Optional

import numpy as np

from repro.contracts import (
    MUTATES_GLOBAL,
    READS_GLOBAL,
    RNG_AMBIENT,
)

DEFAULT_FALLBACK_SEED = 0x5EEDAB5
"""Seed of the process-global fallback stream (arbitrary, documented)."""

_fallback: Optional[np.random.Generator] = None


def fallback_rng() -> Annotated[
    np.random.Generator, READS_GLOBAL, MUTATES_GLOBAL, RNG_AMBIENT
]:
    """The process-global generator backing omitted ``rng`` parameters.

    Library code uses this instead of a bare ``np.random.default_rng()``
    so that unseeded use is reproducible run-to-run. The generator is
    created lazily on first use and shared for the process lifetime;
    every call advances the same stream.
    """
    global _fallback
    if _fallback is None:
        _fallback = np.random.default_rng(DEFAULT_FALLBACK_SEED)
    return _fallback


def reseed_fallback(
    seed: int = DEFAULT_FALLBACK_SEED,
) -> Annotated[np.random.Generator, MUTATES_GLOBAL]:
    """Reset the fallback stream (e.g. between independent experiments).

    Args:
        seed: new seed for the shared stream.

    Returns:
        The freshly seeded generator (also installed as the fallback).
    """
    global _fallback
    _fallback = np.random.default_rng(seed)
    return _fallback


__all__ = ["DEFAULT_FALLBACK_SEED", "fallback_rng", "reseed_fallback"]
