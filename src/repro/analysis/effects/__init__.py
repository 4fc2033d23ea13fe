"""Effect/purity analysis for the VAB tree (VAB017–VAB022).

Where :mod:`repro.analysis.units` tracks physical units and
:mod:`repro.analysis.shapes` tracks ndarray shapes/dtypes, this
subpackage tracks **effects**: which functions read ambient state
(environ, wall-clock, filesystem, host configuration, mutable module
globals, process-global RNG streams), which mutate state, and which
callables cross the ProcessPool process boundary.  Contracts are
declared with the ``Pure[T]`` / ``Effectful[T, atoms...]`` vocabulary
of :mod:`repro.contracts`, known stdlib/numpy/repro signatures live in
a curated database (:mod:`~repro.analysis.effects.sigdb`), and a
flow-sensitive, interprocedural fixed-point engine
(:mod:`~repro.analysis.effects.engine`) rides the same
:class:`~repro.analysis.units.symbols.ModuleInfo` symbol tables and the
same incremental driver (:mod:`repro.analysis.incremental`) as the
other two engines.

Entry points::

    from repro.analysis.effects import analyze_effects

    report = analyze_effects(discover_files(["src/repro"]))
    assert report.clean, report.findings

``analyze_effects(files, cache_path=...)`` is incremental with the same
sha-keyed, call-graph-aware invalidation contract as ``analyze_units``.
The rules run under the same ``--units`` CLI flag as VAB006..VAB016 —
no new CLI surface.
"""

from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.incremental import EngineReport, analyze_incremental


def analyze_effects(
    files: Sequence[Path], cache_path: Optional[Path] = None
) -> EngineReport:
    """Run the effect/purity analysis engine over ``files``.

    With ``cache_path`` the run is incremental with the same contract as
    ``analyze_units``; without it every file is analyzed cold.
    """
    from repro.analysis.engines import engine_named  # the table imports us

    return analyze_incremental(engine_named("effects"), files, cache_path)


__all__ = ["analyze_effects"]
