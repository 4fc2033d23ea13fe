"""Result containers for Monte-Carlo campaigns."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import List, Sequence

from repro.sim.engine import TrialResult


@dataclass(frozen=True)
class BERPoint:
    """Aggregated trials at one operating point.

    Attributes:
        range_m: slant range of the point.
        incidence_deg: node orientation of the point.
        trials: number of trials aggregated.
        ber: mean payload BER across trials.
        frame_success_rate: fraction of trials delivering an intact frame.
        detection_rate: fraction of trials with preamble lock.
        mean_snr_db: mean eye SNR over detected trials (-inf if none).
    """

    range_m: float
    incidence_deg: float
    trials: int
    ber: float
    frame_success_rate: float
    detection_rate: float
    mean_snr_db: float

    @staticmethod
    def from_trials(results: Sequence[TrialResult]) -> "BERPoint":
        """Aggregate a set of trials at one operating point."""
        if not results:
            raise ValueError("need at least one trial")
        n = len(results)
        detected = [r for r in results if r.detected]
        snrs = [r.snr_db for r in detected if math.isfinite(r.snr_db)]
        return BERPoint(
            range_m=results[0].range_m,
            incidence_deg=results[0].incidence_deg,
            trials=n,
            ber=sum(r.ber for r in results) / n,
            frame_success_rate=sum(1 for r in results if r.frame_ok) / n,
            detection_rate=len(detected) / n,
            mean_snr_db=(sum(snrs) / len(snrs)) if snrs else -math.inf,
        )


@dataclass
class CampaignResult:
    """An ordered collection of operating points (one sweep)."""

    label: str
    points: List[BERPoint] = field(default_factory=list)

    def add(self, point: BERPoint) -> None:
        """Append an operating point."""
        self.points.append(point)

    @property
    def total_trials(self) -> int:
        """Trials across all points."""
        return sum(p.trials for p in self.points)

    def max_range_at_ber(self, target_ber: float = 1e-3) -> float:
        """Largest swept range whose measured BER meets the target.

        Returns 0.0 when no point meets it. Points must have been swept
        in increasing range for the answer to be meaningful.
        """
        best = 0.0
        for p in self.points:
            if p.ber <= target_ber and p.range_m > best:
                best = p.range_m
        return best

    def as_rows(self) -> List[dict]:
        """Plain-dict rows for printing benchmark tables."""
        return [asdict(p) for p in self.points]
