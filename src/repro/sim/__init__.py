"""End-to-end simulation: scenarios, link budgets, waveform engine, trials.

Two complementary fidelities:

* :mod:`repro.sim.linkbudget` — analytic sonar-equation budget. Instant,
  used for range sweeps, scaling studies, and anywhere a closed form is
  trustworthy.
* :mod:`repro.sim.engine` — full waveform simulation (carrier → multipath
  channel → modulated Van Atta reflection → channel → reader DSP). Used
  for BER-vs-range campaigns, where sync, phase tracking, and multipath
  actually bite.

:mod:`repro.sim.trials` runs seeded Monte-Carlo campaigns over the
waveform engine, and :mod:`repro.sim.parallel` runs their points
serially (``workers=1``) or across worker processes, bit-identically,
with per-point invariants memoized by :mod:`repro.sim.cache`.
"""

from repro.sim.scenario import Scenario
from repro.sim.linkbudget import LinkBudget
from repro.sim.engine import TrialResult, simulate_trial
from repro.sim.downlink import DownlinkResult, simulate_downlink
from repro.sim.multinode import MultiNodeResult, NodePlacement, simulate_slot
from repro.sim.trials import TrialCampaign
from repro.sim.parallel import (
    run_campaign_parallel,
    run_observed_campaign,
    default_workers,
)
from repro.sim.cache import (
    channel_cache_info,
    clear_channel_cache,
    reader_node_response,
    set_channel_cache_enabled,
)
from repro.sim.sweep import sweep_range, sweep_angles, sweep_grid
from repro.sim.results import BERPoint, CampaignResult
from repro.sim.confidence import (
    ProportionEstimate,
    trials_for_ber_confidence,
    wilson_interval,
    zero_error_ber_bound,
)
from repro.sim.export import (
    load_campaign,
    load_manifest,
    save_campaign,
    save_manifest,
)

__all__ = [
    "Scenario",
    "LinkBudget",
    "TrialResult",
    "simulate_trial",
    "DownlinkResult",
    "simulate_downlink",
    "MultiNodeResult",
    "NodePlacement",
    "simulate_slot",
    "TrialCampaign",
    "run_campaign_parallel",
    "run_observed_campaign",
    "default_workers",
    "reader_node_response",
    "clear_channel_cache",
    "channel_cache_info",
    "set_channel_cache_enabled",
    "sweep_range",
    "sweep_angles",
    "sweep_grid",
    "BERPoint",
    "CampaignResult",
    "ProportionEstimate",
    "wilson_interval",
    "zero_error_ber_bound",
    "trials_for_ber_confidence",
    "load_campaign",
    "save_campaign",
    "load_manifest",
    "save_manifest",
]
