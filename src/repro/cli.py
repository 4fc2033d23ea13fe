"""Command-line interface: quick studies without writing a script.

::

    python -m repro budget --site river --range 150
    python -m repro sweep --site ocean --sea-state 3 --start 50 --stop 300
    python -m repro sweep --manifest run.json --events run.jsonl --workers 4
    python -m repro pattern --elements 4
    python -m repro trial --site river --range 250
    python -m repro inventory --nodes 8 --q 3
    python -m repro obs report run.json
    python -m repro obs ls          # content-addressed run ledger
    python -m repro obs diff a1b2 c3d4
    python -m repro obs trace run.json -o run.trace.json

Every subcommand prints a plain table to stdout and exits 0 on success;
they are thin wrappers over the same public API the examples use.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _site_scenario(args: argparse.Namespace):
    from repro.core import Scenario

    if args.site == "river":
        return Scenario.river(range_m=args.range)
    return Scenario.ocean(range_m=args.range, sea_state=args.sea_state)


def cmd_budget(args: argparse.Namespace) -> int:
    """Print the analytic link budget at one operating point."""
    from repro.core import default_vab_budget

    scenario = _site_scenario(args)
    budget = default_vab_budget(scenario, num_elements=args.elements)
    print(f"site              : {scenario.name}")
    print(f"range             : {args.range:.0f} m")
    print(f"array             : {args.elements} elements "
          f"({budget.array_gain_db:.1f} dB)")
    print(f"source level      : {scenario.source_level_db:.1f} dB re 1 uPa @ 1 m")
    print(f"one-way loss      : {budget.one_way_loss_db(args.range):.1f} dB")
    print(f"reflection gain   : {budget.reflection_gain_db():.1f} dB")
    print(f"noise in band     : {budget.noise_level_in_band_db():.1f} dB")
    print(f"SNR               : {budget.snr_db(args.range):.1f} dB")
    print(f"predicted BER     : {budget.ber(args.range):.2e}")
    print(f"max range @1e-3   : {budget.max_range_m(1e-3):.0f} m")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Monte-Carlo BER sweep across range."""
    from repro.sim.parallel import run_observed_campaign
    from repro.sim.sweep import log_ranges, sweep_range

    from repro.sim.trials import TrialCampaign

    scenario = _site_scenario(args)
    ranges = log_ranges(args.start, args.stop, args.points)
    campaign = TrialCampaign(trials_per_point=args.trials, seed=args.seed)
    scenarios = sweep_range(scenario, ranges)
    if args.probes:
        from repro.obs.probes import set_probe_mode

        set_probe_mode(args.probes)
    result, manifest = run_observed_campaign(
        scenarios, campaign, label=args.site, workers=args.workers,
        manifest_path=args.manifest, events_path=args.events,
        progress=args.progress, ledger=args.ledger,
    )
    print(f"{'range_m':>8} {'ber':>9} {'frames':>7} {'snr_db':>7}")
    for p in result.points:
        print(f"{p.range_m:>8.0f} {p.ber:>9.4f} "
              f"{p.frame_success_rate:>7.2f} {p.mean_snr_db:>7.1f}")
    print(f"max range at BER<=1e-3: {result.max_range_at_ber(1e-3):.0f} m")
    if args.manifest:
        print(f"manifest: {args.manifest}")
    if args.events:
        print(f"events  : {args.events}")
    if args.ledger is not None:
        from repro.obs.ledger import Ledger, run_key

        store = Ledger(None if args.ledger is True else args.ledger)
        print(f"ledger  : {store.root} "
              f"(key {run_key(manifest)[:12]})")
    return 0


def cmd_obs_report(args: argparse.Namespace) -> int:
    """Render a run manifest (+ event log) as breakdown tables."""
    from repro.obs.manifest import read_events
    from repro.obs.report import render_report
    from repro.sim.export import load_manifest
    from pathlib import Path

    manifest = load_manifest(args.manifest)
    events = None
    events_path = args.events or manifest.events_path
    if events_path and Path(events_path).exists():
        events = read_events(events_path)
    print(render_report(manifest, events), end="")
    return 0


def cmd_obs_ls(args: argparse.Namespace) -> int:
    """List the content-addressed run ledger."""
    from repro.obs.ledger import Ledger, render_ledger

    print(render_ledger(Ledger(args.ledger)))
    return 0


def _load_ref(ref: str, ledger_root):
    """A manifest from a file path or a ledger key/run-id prefix."""
    from pathlib import Path

    from repro.obs.ledger import Ledger
    from repro.sim.export import load_manifest

    if Path(ref).is_file():
        return load_manifest(ref)
    return Ledger(ledger_root).load(ref)


def cmd_obs_diff(args: argparse.Namespace) -> int:
    """Diff two runs (ledger refs or manifest files): config, metrics, timings."""
    from repro.obs.ledger import diff_manifests, render_diff

    a = _load_ref(args.a, args.ledger)
    b = _load_ref(args.b, args.ledger)
    diff = diff_manifests(a, b)
    print(render_diff(diff))
    differs = bool(
        diff["config"] or diff["scenarios"] or diff["metrics"]
    )
    return 1 if differs else 0


def cmd_obs_trace(args: argparse.Namespace) -> int:
    """Export a run as Chrome trace-event JSON (chrome://tracing, Perfetto)."""
    from pathlib import Path

    from repro.obs.ledger import Ledger
    from repro.obs.manifest import read_events
    from repro.obs.trace import validate_trace_events, write_trace

    if Path(args.ref).is_file():
        manifest = _load_ref(args.ref, args.ledger)
        events_path = args.events or manifest.events_path
    else:
        record = Ledger(args.ledger).resolve(args.ref)
        manifest = _load_ref(args.ref, args.ledger)
        events_path = args.events or (
            str(record.events_path) if record.events_path else None
        )
    events = None
    if events_path and Path(events_path).exists():
        events = read_events(events_path)
    doc = write_trace(args.out, events=events, timings=manifest.timings)
    count = validate_trace_events(doc)
    print(f"wrote {args.out}: {count} trace events "
          f"(open in chrome://tracing or ui.perfetto.dev)")
    return 0


def cmd_pattern(args: argparse.Namespace) -> int:
    """Monostatic gain vs incidence angle (Van Atta vs baselines)."""
    from repro.baselines.conventional_array import conventional_monostatic_gain_db
    from repro.vanatta.array import VanAttaArray
    from repro.vanatta.retrodirective import monostatic_gain_db

    arr = VanAttaArray.uniform(args.elements)
    print(f"{'angle':>6} {'van_atta_db':>12} {'conventional_db':>16}")
    for theta in np.arange(-60.0, 61.0, args.step):
        va = monostatic_gain_db(arr, 18_500.0, float(theta))
        conv = conventional_monostatic_gain_db(arr.positions_m, 18_500.0, float(theta))
        print(f"{theta:>+6.0f} {va:>12.1f} {conv:>16.1f}")
    return 0


def cmd_trial(args: argparse.Namespace) -> int:
    """One verbose waveform trial."""
    from repro.sim.engine import simulate_trial

    scenario = _site_scenario(args)
    result = simulate_trial(scenario, rng=np.random.default_rng(args.seed))
    print(f"site        : {scenario.name}")
    print(f"range       : {result.range_m:.0f} m")
    print(f"incidence   : {result.incidence_deg:.0f} deg")
    print(f"detected    : {result.detected}")
    print(f"frame ok    : {result.frame_ok}")
    print(f"payload BER : {result.ber:.3f}")
    print(f"eye SNR     : {result.snr_db:.1f} dB")
    return 0 if result.detected else 1


def cmd_adapt(args: argparse.Namespace) -> int:
    """Pick the best PHY mode for a node at a range."""
    from repro.core import default_vab_budget
    from repro.link.adaptive import (
        DEFAULT_MODES,
        frame_delivery_probability,
        mode_goodput_bps,
        select_mode,
    )

    scenario = _site_scenario(args)
    budget = default_vab_budget(scenario)
    print(f"{'mode':>14} {'rate_bps':>9} {'p(frame)':>9} {'goodput_bps':>12}")
    for mode in DEFAULT_MODES:
        p = frame_delivery_probability(budget, mode, args.range)
        goodput = mode_goodput_bps(budget, mode, args.range) if p >= 0.5 else 0.0
        print(f"{mode.name:>14} {mode.information_rate_bps():>9.0f} "
              f"{p:>9.3f} {goodput:>12.1f}")
    chosen = select_mode(budget, args.range)
    if chosen is None:
        print("no mode closes the link at this range")
        return 1
    print(f"selected: {chosen.name}")
    return 0


def cmd_inventory(args: argparse.Namespace) -> int:
    """Command-level inventory of a node population."""
    from repro.link.node_fsm import NodeController
    from repro.link.protocol import CommandLevelInventory

    nodes = [NodeController(node_id=i, seed=args.seed) for i in range(1, args.nodes + 1)]
    inventory = CommandLevelInventory(
        q=args.q,
        seed=args.seed,
        downlink_loss=args.downlink_loss,
        uplink_loss=args.uplink_loss,
    )
    trace = inventory.run(nodes)
    print(f"inventoried : {len(trace.inventoried)}/{args.nodes} "
          f"(order {trace.inventoried})")
    print(f"commands    : {trace.commands_sent}")
    print(f"slots       : {trace.slots_single} single, "
          f"{trace.slots_collided} collided, {trace.slots_idle} idle")
    return 0 if len(trace.inventoried) == args.nodes else 1


def build_parser() -> argparse.ArgumentParser:
    """Assemble the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Van Atta acoustic backscatter (SIGCOMM'23) toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_site_args(p):
        p.add_argument("--site", choices=("river", "ocean"), default="river")
        p.add_argument("--range", type=float, default=100.0)
        p.add_argument("--sea-state", type=int, default=3, dest="sea_state")
        p.add_argument("--seed", type=int, default=1)

    p_budget = sub.add_parser("budget", help="analytic link budget")
    add_site_args(p_budget)
    p_budget.add_argument("--elements", type=int, default=4)
    p_budget.set_defaults(func=cmd_budget)

    p_sweep = sub.add_parser("sweep", help="Monte-Carlo BER-vs-range sweep")
    add_site_args(p_sweep)
    p_sweep.add_argument("--start", type=float, default=50.0)
    p_sweep.add_argument("--stop", type=float, default=500.0)
    p_sweep.add_argument("--points", type=int, default=6)
    p_sweep.add_argument("--trials", type=int, default=5)
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="campaign worker processes (default 1: serial)")
    p_sweep.add_argument("--manifest", default=None, metavar="PATH",
                         help="write a run manifest (JSON) here")
    p_sweep.add_argument("--events", default=None, metavar="PATH",
                         help="write a JSONL event log here")
    p_sweep.add_argument("--ledger", nargs="?", const=True, default=None,
                         metavar="DIR",
                         help="file the run in the content-addressed ledger "
                              "(default root: $VAB_LEDGER_DIR or "
                              "~/.repro/ledger)")
    progress_group = p_sweep.add_mutually_exclusive_group()
    progress_group.add_argument("--progress", action="store_true",
                                default=None,
                                help="force the live progress line on")
    progress_group.add_argument("--no-progress", action="store_false",
                                dest="progress",
                                help="force the live progress line off "
                                     "(default: on in a TTY only)")
    p_sweep.add_argument("--probes",
                         choices=("off", "count", "raise"), default=None,
                         help="runtime physics-invariant probe mode "
                              "(default: count, or $VAB_PROBES)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_obs = sub.add_parser("obs", help="observability: inspect run artifacts")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_report = obs_sub.add_parser(
        "report", help="per-stage/per-point breakdown of a run manifest"
    )
    p_report.add_argument("manifest", help="path to a run manifest JSON")
    p_report.add_argument("--events", default=None, metavar="PATH",
                          help="event log (default: the manifest's, if present)")
    p_report.set_defaults(func=cmd_obs_report)

    def add_ledger_arg(p):
        p.add_argument("--ledger", default=None, metavar="DIR",
                       help="ledger root (default: $VAB_LEDGER_DIR or "
                            "~/.repro/ledger)")

    p_ls = obs_sub.add_parser(
        "ls", help="list the content-addressed run ledger"
    )
    add_ledger_arg(p_ls)
    p_ls.set_defaults(func=cmd_obs_ls)

    p_diff = obs_sub.add_parser(
        "diff", help="compare two runs: config, metrics, stage timings"
    )
    p_diff.add_argument("a", help="ledger key/run-id prefix or manifest path")
    p_diff.add_argument("b", help="ledger key/run-id prefix or manifest path")
    add_ledger_arg(p_diff)
    p_diff.set_defaults(func=cmd_obs_diff)

    p_trace = obs_sub.add_parser(
        "trace", help="export a run as Chrome trace-event JSON"
    )
    p_trace.add_argument("ref",
                         help="ledger key/run-id prefix or manifest path")
    p_trace.add_argument("-o", "--out", default="trace.json", metavar="PATH",
                         help="output trace file (default: trace.json)")
    p_trace.add_argument("--events", default=None, metavar="PATH",
                         help="event log (default: the run's, if recorded)")
    add_ledger_arg(p_trace)
    p_trace.set_defaults(func=cmd_obs_trace)

    p_pattern = sub.add_parser("pattern", help="retrodirectivity pattern")
    p_pattern.add_argument("--elements", type=int, default=4)
    p_pattern.add_argument("--step", type=float, default=10.0)
    p_pattern.set_defaults(func=cmd_pattern)

    p_trial = sub.add_parser("trial", help="one verbose waveform trial")
    add_site_args(p_trial)
    p_trial.set_defaults(func=cmd_trial)

    p_adapt = sub.add_parser("adapt", help="pick the best PHY mode at a range")
    add_site_args(p_adapt)
    p_adapt.set_defaults(func=cmd_adapt)

    p_inv = sub.add_parser("inventory", help="command-level node inventory")
    p_inv.add_argument("--nodes", type=int, default=8)
    p_inv.add_argument("--q", type=int, default=3)
    p_inv.add_argument("--downlink-loss", type=float, default=0.0,
                       dest="downlink_loss")
    p_inv.add_argument("--uplink-loss", type=float, default=0.0,
                       dest="uplink_loss")
    p_inv.add_argument("--seed", type=int, default=1)
    p_inv.set_defaults(func=cmd_inventory)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and args.points < 2:
        parser.error("argument --points: need at least two points")
    if args.command == "sweep" and not 0 < args.start < args.stop:
        parser.error("argument --stop: need 0 < --start < --stop")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
