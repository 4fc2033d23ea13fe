"""Unit-aware dataflow analysis for the VAB tree (rules VAB006–VAB010).

Where :mod:`repro.analysis.rules` checks unit *spelling* on single
statements (VAB003), this subpackage actually tracks units through the
code: a project-wide symbol table and call graph over ``src/repro``,
unit facts seeded from the ``DB``/``HZ``/``METERS``-style annotation
aliases of :mod:`repro.contracts`, ``_db``/``_hz``/``_m`` name
suffixes, and a curated physics signature database
(:mod:`~repro.analysis.units.sigdb`), propagated flow-sensitively
through assignments, tuple unpacking, and arithmetic, and across call
boundaries by a fixed-point pass
(:mod:`~repro.analysis.units.engine`).

Entry points::

    from repro.analysis.units import analyze_units

    report = analyze_units(discover_files(["src/repro"]))
    assert report.clean, report.findings

``analyze_units(files, cache_path=...)`` is incremental — unchanged
files and their untouched call-graph dependents are served from the
shared engine cache (:mod:`repro.analysis.incremental`).
"""

from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.incremental import EngineReport, analyze_incremental


def analyze_units(
    files: Sequence[Path], cache_path: Optional[Path] = None
) -> EngineReport:
    """Run the dimensional-analysis engine over ``files``.

    With ``cache_path`` the run is incremental: unchanged files (whose
    call-graph dependencies are also unchanged) are served from the
    cache without re-parsing, and the cache is rewritten afterwards.
    Without it, every file is analyzed cold.
    """
    from repro.analysis.engines import engine_named  # the table imports us

    return analyze_incremental(engine_named("units"), files, cache_path)


__all__ = ["analyze_units"]
