"""Bit-error-rate utilities and closed-form references.

The closed forms anchor the waveform simulation: the measured BER of the
end-to-end chain should track the coherent-OOK curve within implementation
loss, and tests enforce that.

SNR convention: average received *data* signal power over noise power in
the chip-rate bandwidth (the post-matched-filter SNR of the paper's
plots).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy import special

from repro.analysis.units.vocab import DB


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def q_inverse(p: float) -> float:
    """Inverse of the Q function."""
    if not 0.0 < p < 1.0:
        raise ValueError("probability must be in (0, 1)")
    return math.sqrt(2.0) * float(special.erfcinv(2.0 * p))


def ber_ook_coherent(snr_db: DB) -> float:
    """Coherent OOK bit error rate at an average-power SNR.

    With levels {0, A}, average power A^2/2 and complex noise power N, the
    derotated decision variable is +-A/2 with per-dimension noise N/2:
    ``Pe = Q(sqrt(SNR))``.
    """
    snr = 10.0 ** (snr_db / 10.0)
    return q_function(math.sqrt(snr))


def ber_ook_noncoherent(snr_db: DB) -> float:
    """Non-coherent (envelope) OOK approximation ``0.5 exp(-SNR/2)``.

    The classic high-SNR approximation with the optimal threshold; about
    1 dB worse than coherent at BER 1e-3.
    """
    snr = 10.0 ** (snr_db / 10.0)
    return 0.5 * math.exp(-snr / 2.0)


def required_snr_db(target_ber: float, coherent: bool = True) -> DB:
    """SNR needed to hit a target BER (inverts the closed forms)."""
    if not 0.0 < target_ber < 0.5:
        raise ValueError("target BER must be in (0, 0.5)")
    if coherent:
        snr = q_inverse(target_ber) ** 2
    else:
        snr = -2.0 * math.log(2.0 * target_ber)
    return 10.0 * math.log10(snr)


def _bit_array(bits: Sequence[int]) -> np.ndarray:
    """Bits as an int64 array; ndarrays convert without a Python list."""
    if isinstance(bits, np.ndarray):
        return bits.astype(np.int64, copy=False)
    return np.asarray(list(bits), dtype=np.int64)


def count_bit_errors(sent: Sequence[int], received: Sequence[int]) -> int:
    """Hamming distance over the overlapping prefix; missing bits count as errors.

    Backscatter links lose whole frame tails when sync slips, so bits the
    receiver never produced are charged as errors rather than ignored —
    matching how over-water experiments score trials.
    """
    sent = _bit_array(sent)
    received = _bit_array(received)
    overlap = min(len(sent), len(received))
    errors = int(np.count_nonzero(sent[:overlap] != received[:overlap]))
    errors += len(sent) - overlap if len(sent) > overlap else 0
    return errors


def ber(sent: Sequence[int], received: Sequence[int]) -> float:
    """Bit error rate of a trial (errors / sent bits)."""
    sent = _bit_array(sent)
    if not len(sent):
        raise ValueError("need at least one sent bit")
    return count_bit_errors(sent, received) / len(sent)
