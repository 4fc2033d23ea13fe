"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps public names of the ``repro`` package *where callers
look them up* (a module attribute such as
``repro.sim.engine.colored_noise_batch``, or a method on its class) and
records one span per call, in memory. No file under ``src/`` knows about
it. Private helpers are never wrapped: their time lands in the self time
of the nearest wrapped caller, so renaming one cannot break a run.

Self time of a span is its duration minus the durations of its direct
child spans. Spans whose name is in :data:`FRAME_SPANS` are campaign
scaffolding, not a layer: their self time (payload draws, generator
construction, Python glue between layers) is reported as
``sim.unattributed_s``, and ``trace.coverage`` is the share of a pass's
wall time that the layer spans account for.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Hook = Callable[["Tracer", str, Any], None]


def _result_samples(tracer: "Tracer", name: str, result: Any) -> None:
    tracer.counts[f"{name}.samples"] += getattr(result, "size", 0)


def _demod_outcomes(tracer: "Tracer", name: str, result: Any) -> None:
    # ReaderReceiver.demodulate delegates stock configurations to
    # demodulate_batch; count each record once, at the outermost call.
    if tracer.inside("phy.demod"):
        return
    records = result if isinstance(result, list) else [result]
    counts = tracer.counts
    counts["phy.demod.records"] += len(records)
    counts["phy.demod.detected"] += sum(r.detection is not None for r in records)
    counts["phy.demod.crc_ok"] += sum(bool(r.success) for r in records)


# (module, attribute, span name, hook). A dotted attribute names a
# method on a class of that module. Every entry is a public name.
TARGETS: Tuple[Tuple[str, str, str, Optional[Hook]], ...] = (
    # campaign scaffolding (frames)
    ("repro.sim.parallel", "run_campaign_parallel", "sim.campaign", None),
    ("repro.sim.parallel", "run_observed_campaign", "sim.campaign", None),
    ("repro.sim.trials", "TrialCampaign.run_point", "sim.point", None),
    ("repro.sim.trials", "TrialCampaign.run_trials", "sim.trials", None),
    # sim layers
    ("repro.sim.trials", "TrialCampaign.trial_seeds", "sim.seeds", None),
    ("repro.sim.trials", "simulate_point_batch", "sim.engine", None),
    ("repro.sim.trials", "simulate_trial", "sim.engine", None),
    ("repro.sim.engine", "ber_of", "sim.score", None),
    ("repro.sim.engine", "bits_from_bytes", "sim.score", None),
    ("repro.sim.results", "BERPoint.from_trials", "sim.score", None),
    # acoustics
    ("repro.sim.trials", "reader_node_response", "acoustics.response", None),
    ("repro.sim.engine", "reader_node_response", "acoustics.response", None),
    ("repro.acoustics.channel", "AcousticChannel.between", "acoustics.response", None),
    ("repro.acoustics.channel", "ChannelResponse.apply", "acoustics.channel", _result_samples),
    ("repro.sim.engine", "apply_doppler", "acoustics.doppler", None),
    # node and framing
    ("repro.sim.engine", "build_frames_batch", "phy.frame.build", None),
    ("repro.sim.engine", "build_frame", "phy.frame.build", None),
    ("repro.sim.engine", "chips_to_waveform_batch", "vanatta.modulate", None),
    ("repro.vanatta.node", "VanAttaNode.modulation_waveform", "vanatta.modulate", None),
    ("repro.vanatta.node", "VanAttaNode.reflect", "vanatta.reflect", None),
    # noise
    ("repro.sim.engine", "colored_noise_batch", "dsp.noise", _result_samples),
    ("repro.sim.engine", "white_noise_batch", "dsp.noise", _result_samples),
    ("repro.sim.engine", "colored_noise", "dsp.noise", _result_samples),
    ("repro.sim.engine", "white_noise", "dsp.noise", _result_samples),
    # receive chain
    ("repro.phy.receiver", "ReaderReceiver.for_scenario", "phy.receiver.build", None),
    ("repro.phy.batch", "BatchedReaderReceiver.demodulate_batch", "phy.demod", _demod_outcomes),
    ("repro.phy.receiver", "ReaderReceiver.demodulate", "phy.demod", _demod_outcomes),
    ("repro.phy.batch", "BatchedReaderReceiver.suppress_carrier_batch", "phy.demod.suppress", None),
    ("repro.phy.receiver", "ReaderReceiver.suppress_carrier", "phy.demod.suppress", None),
    ("repro.phy.batch", "detect_preamble_batch", "phy.demod.detect", None),
    ("repro.phy.receiver", "ReaderReceiver.find_preamble", "phy.demod.detect", None),
    ("repro.phy.receiver", "ReaderReceiver.estimate_cfo_hz", "phy.demod.cfo", None),
    ("repro.phy.receiver", "ReaderReceiver.slice_chips", "phy.demod.slice", None),
    ("repro.phy.rake", "estimate_channel", "phy.demod.rake", None),
    ("repro.phy.rake", "rake_combine", "phy.demod.rake", None),
    ("repro.phy.batch", "parse_frames_batch", "phy.demod.parse", None),
    ("repro.phy.receiver", "parse_frame", "phy.demod.parse", None),
    # runtime probes and writers
    ("repro.sim.engine", "probe_signal", "obs.probe", None),
    ("repro.sim.engine", "probe_unit_interval", "obs.probe", None),
    ("repro.sim.trials", "probe_invariant", "obs.probe", None),
    ("repro.phy.batch", "probe_finite", "obs.probe", None),
    ("repro.phy.batch", "probe_invariant", "obs.probe", None),
    ("repro.phy.receiver", "probe_finite", "obs.probe", None),
    ("repro.sim.export", "save_manifest", "obs.manifest.save", None),
    ("repro.obs.ledger", "Ledger.record", "obs.ledger.record", None),
    # static analysis
    ("repro.analysis.linter", "lint_paths", "analysis.lint", None),
    ("repro.analysis.linter", "make_rules", "analysis.rules", None),
    ("repro.analysis.linter", "lint_source", "analysis.rules", None),
    ("repro.analysis.units", "analyze_units", "analysis.units", None),
    ("repro.analysis.shapes", "analyze_shapes", "analysis.shapes", None),
    ("repro.analysis.effects", "analyze_effects", "analysis.effects", None),
)

FRAME_SPANS = frozenset(
    {"sim.campaign", "sim.point", "sim.trials", "analysis.lint"}
)
"""Scaffolding spans: their self time is unattributed, not a layer's."""


class Tracer:
    """Records spans around wrapped public names, in memory.

    Use :meth:`install` / :meth:`restore` around each traced pass and
    :meth:`begin_pass` / :meth:`end_pass` to mark the pass boundaries.
    """

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index].
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.passes: List[Tuple[float, float]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in an imported module; remember the originals.

        A module that was never imported cannot be called, so it is left
        alone; a target missing from an imported module is listed in
        :attr:`missing` (its time then shows as unattributed).
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for module_name, attr, name, hook in TARGETS:
            owner: Any = sys.modules.get(module_name)
            if owner is None:
                continue
            *outer, leaf = attr.split(".")
            try:
                for part in outer:
                    owner = vars(owner)[part]
                raw = vars(owner)[leaf]
            except KeyError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(raw, name, hook))
            self._patched.append((owner, leaf, raw))

    def restore(self) -> None:
        """Put back every replaced attribute, last patched first."""
        while self._patched:
            owner, leaf, raw = self._patched.pop()
            setattr(owner, leaf, raw)

    def patched_targets(self) -> List[str]:
        """Names still wrapped (empty after :meth:`restore`)."""
        return [f"{getattr(o, '__name__', o)}.{leaf}" for o, leaf, _ in self._patched]

    def _wrap(self, raw: Any, name: str, hook: Optional[Hook]) -> Any:
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap_function(raw.__func__, name, hook))
        if isinstance(raw, classmethod):
            return classmethod(self._wrap_function(raw.__func__, name, hook))
        return self._wrap_function(raw, name, hook)

    def _wrap_function(self, fn: Callable, name: str, hook: Optional[Hook]) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, name, result)
            return result

        return traced

    # -- recording ----------------------------------------------------------

    def inside(self, name: str) -> bool:
        """Whether a span of ``name`` encloses the span just closed."""
        return any(self.spans[i][0] == name for i in self.stack)

    def begin_pass(self) -> float:
        return time.perf_counter()

    def end_pass(self, start: float) -> None:
        self.passes.append((start, time.perf_counter()))

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, summed over all passes."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def call_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return dict(out)

    def wall_s(self) -> float:
        """Total wall time of the traced passes."""
        return sum(end - start for start, end in self.passes)

    def chrome_trace(self) -> Dict[str, Any]:
        """The recorded spans as a Chrome trace-event document."""
        origin = self.passes[0][0] if self.passes else 0.0
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "perfbench traced passes"}},
        ]
        for i, (start, end) in enumerate(self.passes):
            events.append({
                "name": f"pass {i}", "ph": "X", "pid": 1, "tid": 0,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            })
        for name, start, end, _ in self.spans:
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "pid": 1, "tid": 0,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
