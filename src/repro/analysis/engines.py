"""The engine table: one record per interprocedural dataflow engine.

``lint_paths(..., units=True)`` runs three engines over one call graph —
units (VAB006..VAB010), shapes (VAB011..VAB016) and effects
(VAB017..VAB018).
Each is described here once: its name (the report, stats and cache
key), its version (bumping it invalidates that engine's cache entries),
its rule table, and the callables the shared machinery drives
(:func:`repro.analysis.incremental.analyze_incremental`,
:func:`repro.analysis.dataflow.run_fixed_point`). The linter loops over
:data:`ENGINES`. Campaign runs never import this package: a lint
engine's version says nothing about a run's numbers.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.analysis.dataflow import ModuleAnalysis
from repro.analysis.effects import engine as effects
from repro.analysis.incremental import EngineReport
from repro.analysis.shapes import engine as shapes
from repro.analysis.units import engine as units
from repro.analysis.units.symbols import ModuleInfo, extract_module


@dataclass(frozen=True)
class Engine:
    """One dataflow engine, as the shared driver runs it.

    Attributes:
        name: report/stats/cache key; the public entry point is
            ``repro.analysis.<name>.analyze_<name>``.
        version: bumping it invalidates this engine's cache entries.
        rules: rule id -> (name, summary) for the engine's findings.
        extract: parses one file (raising ``SyntaxError`` for VAB000).
        seed: the initial summary table of the parsed modules.
        analyze_module: one pass over one module against the table.
        summary_from_dict: decodes one cached summary record.
        max_passes: safety bound on the fixed point.
    """

    name: str
    version: str
    rules: Dict[str, Tuple[str, str]]
    extract: Callable[[Path, str], ModuleInfo]
    seed: Callable[[Sequence[ModuleInfo]], Dict[str, Any]]
    analyze_module: Callable[..., ModuleAnalysis]
    summary_from_dict: Callable[[Dict[str, Any]], Any]
    max_passes: int

    @property
    def rule_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self.rules))

    def analyze(
        self, files: Sequence[Path], cache_path: Optional[Path] = None
    ) -> EngineReport:
        """Run through the public ``analyze_<name>`` entry point.

        It is looked up at call time, so a wrapper installed on it (a
        profiler's tracer) sees lint runs too.
        """
        package = importlib.import_module(f"repro.analysis.{self.name}")
        entry = getattr(package, f"analyze_{self.name}")
        return entry(files, cache_path=cache_path)


ENGINES: Tuple[Engine, ...] = (
    Engine(
        name="units",
        version="1.0.0",
        rules={
            "VAB006": (
                "db-domain-product",
                "multiplying or dividing two dB-domain quantities; log-domain "
                "values compose additively — convert to linear first",
            ),
            "VAB007": (
                "db-linear-mix",
                "additive arithmetic or bindings mixing dB-domain and "
                "linear-domain quantities",
            ),
            "VAB008": (
                "hz-rad-confusion",
                "Hz vs rad/s (and kHz) mismatches: frequency-family conflicts in "
                "arithmetic, call arguments, and trig/filter calls expecting radians",
            ),
            "VAB009": (
                "m-km-mix",
                "metre vs kilometre mixing in range expressions, including dB/km "
                "coefficients multiplied by metres without / 1e3",
            ),
            "VAB010": (
                "call-site-unit-conflict",
                "interprocedural conflicts: argument units contradicting the "
                "callee's parameter units, or returns contradicting declarations",
            ),
        },
        extract=extract_module,
        seed=units.seed_summaries,
        analyze_module=units.analyze_module,
        summary_from_dict=units.FunctionSummary.from_dict,
        max_passes=units.MAX_FIXED_POINT_PASSES,
    ),
    Engine(
        name="shapes",
        version="1.0.0",
        rules={
            "VAB011": (
                "silent-broadcast",
                "elementwise arithmetic between arrays whose symbolic shapes "
                "cannot broadcast (or broadcast to the wrong block) — the "
                "missing-keepdims / wrong-batch-axis class of bug",
            ),
            "VAB012": (
                "batch-collapsing-reduction",
                "reductions over a wrong or unspecified axis on a named batch "
                "block: an axis-less .sum()/.mean() silently collapses the "
                "batch dimension; an out-of-range axis is a latent IndexError",
            ),
            "VAB013": (
                "complex-downcast",
                "complex->real downcasts: float()/int() of a complex value, "
                "complex expressions stored into real-dtype buffers, ordered "
                "comparisons on complex arrays, complex returns declared real",
            ),
            "VAB014": (
                "shared-array-mutation",
                "in-place mutation of an array that crosses a worker/cache "
                "boundary (sim.parallel payloads, sim.cache entries are shared "
                "and read-only by contract — copy before writing)",
            ),
            "VAB015": (
                "unordered-accumulation",
                "order-dependent accumulation or RNG draws driven by set "
                "iteration — float sums and generator streams are only "
                "reproducible over a deterministic order (sort first)",
            ),
            "VAB016": (
                "shape-contract-violation",
                "interprocedural shape-contract conflicts: arguments whose "
                "inferred shape/dtype contradicts the callee's Shaped[...] "
                "contract, or returns contradicting the declared contract",
            ),
        },
        extract=extract_module,
        seed=shapes.seed_shape_summaries,
        analyze_module=shapes.analyze_shape_module,
        summary_from_dict=shapes.ShapeSummary.from_dict,
        max_passes=shapes.MAX_FIXED_POINT_PASSES,
    ),
    Engine(
        name="effects",
        version="1.2.0",
        rules={
            "VAB017": (
                "hidden-cache-input",
                "a hidden input (environ, wall-clock, filesystem, host config, "
                "mutable global, ambient RNG) reaches a memoized or "
                "content-addressed computation whose cache key cannot see it — "
                "cached results go stale silently and poison dedupe for every "
                "user sharing the store",
            ),
            "VAB018": (
                "cache-hit-divergence",
                "a side effect (global/argument mutation, file write) escapes a "
                "memoized function: it happens on the computing call and never "
                "again on a cache hit, so warm and cold runs diverge",
            ),
        },
        extract=extract_module,
        seed=effects.seed_effect_summaries,
        analyze_module=effects.analyze_effect_module,
        summary_from_dict=effects.EffectSummary.from_dict,
        max_passes=effects.MAX_FIXED_POINT_PASSES,
    ),
)


def engine_named(name: str) -> Engine:
    """The :data:`ENGINES` record called ``name``."""
    for engine in ENGINES:
        if engine.name == name:
            return engine
    raise KeyError(f"no analysis engine named {name!r}")

