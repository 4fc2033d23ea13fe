"""Output blocks of the batch kernels' ``out=`` parameters."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def output_block(out: Optional[np.ndarray], shape: Tuple[int, ...]) -> np.ndarray:
    """The block a kernel with an ``out=`` parameter writes its result
    into: ``out`` checked as a C-contiguous complex128 array of
    ``shape``, or a fresh (uninitialised) one when it is None."""
    if out is None:
        return np.empty(shape, dtype=np.complex128)
    if (
        out.shape != shape
        or out.dtype != np.complex128
        or not out.flags.c_contiguous
    ):
        raise ValueError(f"out must be a C-contiguous complex128 {shape} array")
    return out
