"""The river range experiment: BER vs range across node orientations.

A compact version of the paper's headline evaluation (and of benchmark
E3): moor the node at increasing distances and rotations, run Monte-Carlo
frame exchanges at each point, and find where the BER-1e-3 envelope ends.

Run:  python examples/river_range_experiment.py
"""

from repro.core import Scenario, default_vab_budget
from repro.sim.sweep import sweep_range
from repro.sim.parallel import run_campaign_parallel
from repro.sim.trials import TrialCampaign

RANGES = [50.0, 150.0, 250.0, 330.0, 420.0]
ORIENTATIONS = [0.0, 30.0, 60.0]


def main() -> None:
    print(f"{'orient':>6} {'range':>6} {'ber':>8} {'frames':>7} {'snr_db':>7}")
    for offset in ORIENTATIONS:
        scenarios = [
            s.with_node_rotation(offset)
            for s in sweep_range(Scenario.river(), RANGES)
        ]
        campaign = TrialCampaign(trials_per_point=8, seed=int(offset) + 1)
        result = run_campaign_parallel(
            scenarios, campaign, label=f"{offset:.0f} deg", workers=1
        )
        for p in result.points:
            print(
                f"{offset:>6.0f} {p.range_m:>6.0f} {p.ber:>8.4f} "
                f"{p.frame_success_rate:>7.2f} {p.mean_snr_db:>7.1f}"
            )
        print(
            f"   -> orientation {offset:.0f} deg: BER<=1e-3 out to "
            f"~{result.max_range_at_ber(1e-3):.0f} m"
        )

    budget = default_vab_budget(Scenario.river())
    print(f"\nanalytic budget cross-check: {budget.max_range_m(1e-3):.0f} m at BER 1e-3")


if __name__ == "__main__":
    main()
