"""The ``out=`` parameter of the batch kernels (:mod:`repro.dsp.buffers`).

A kernel that takes ``out=`` fills the caller's block with the bits it
returns without one, and rejects a block of the wrong shape, dtype or
layout with the same message.
"""

import numpy as np
import pytest

from repro.acoustics.doppler import apply_doppler
from repro.core import Scenario
from repro.dsp.noisegen import colored_noise_batch, white_noise_batch
from repro.sim import reader_node_response

ROWS = 3
SAMPLES = 600
SEED = 2023


def generators():
    return [np.random.default_rng([SEED, t]) for t in range(ROWS)]


def block():
    """A complex ``(ROWS, SAMPLES)`` block."""
    rng = np.random.default_rng([SEED, ROWS])
    shape = (ROWS, SAMPLES)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


OUT_KERNELS = {
    "colored-noise": lambda out: colored_noise_batch(
        SAMPLES, 96_000.0, Scenario.river().noise.psd_db, 18_500.0,
        generators(), out=out,
    ),
    "white-noise": lambda out: white_noise_batch(
        SAMPLES, 2.5, generators(), out=out
    ),
    "doppler": lambda out: apply_doppler(
        block(), 96_000.0, 18_500.0, 1.2, out=out
    ),
    "channel": lambda out: reader_node_response(Scenario.river(330.0)).apply(
        block(), 96_000.0, out=out
    ),
}


class TestOutputBlocks:
    @pytest.mark.parametrize("name", sorted(OUT_KERNELS))
    def test_out_receives_the_fresh_result(self, name):
        kernel = OUT_KERNELS[name]
        fresh = kernel(None)
        out = np.full(fresh.shape, np.nan + 0j)
        assert kernel(out) is out
        assert out.tobytes() == fresh.tobytes()
        rows, n = fresh.shape
        for bad in (
            np.empty((rows, n + 1), dtype=np.complex128),
            np.empty((rows, n), dtype=np.complex64),
            np.empty((n, rows), dtype=np.complex128).T,
        ):
            with pytest.raises(
                ValueError,
                match=rf"out must be a C-contiguous complex128 \({rows}, {n}\)",
            ):
                kernel(bad)
