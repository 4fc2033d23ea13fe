"""Array shape/dtype dataflow analysis for the VAB tree (VAB011–VAB016).

Where :mod:`repro.analysis.units` tracks physical units through the
call graph, this subpackage tracks **ndarray shapes, dtypes, and
determinism taints** through the batched kernels: symbolic dimension
names seeded from the ``Shaped["trials", "samples"]``-style contracts
of :mod:`repro.contracts`, a curated signature database for the numpy
surface the repo uses (:mod:`~repro.analysis.shapes.sigdb`), and a
flow-sensitive, interprocedural fixed-point engine
(:mod:`~repro.analysis.shapes.engine`) built on the same
:class:`~repro.analysis.units.symbols.ModuleInfo` symbol tables and the
same incremental driver (:mod:`repro.analysis.incremental`) as the
units engine.

Entry points::

    from repro.analysis.shapes import analyze_shapes

    report = analyze_shapes(discover_files(["src/repro"]))
    assert report.clean, report.findings

``analyze_shapes(files, cache_path=...)`` is incremental with the same
sha-keyed, call-graph-aware invalidation contract as ``analyze_units``.
The rules run under the same ``lint_paths(..., units=True)`` switch as
VAB006..VAB010.
"""

from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.incremental import EngineReport, analyze_incremental


def analyze_shapes(
    files: Sequence[Path], cache_path: Optional[Path] = None
) -> EngineReport:
    """Run the shape/dtype dataflow engine over ``files``.

    With ``cache_path`` the run is incremental with the same contract as
    ``analyze_units``; without it every file is analyzed cold.
    """
    from repro.analysis.engines import engine_named  # the table imports us

    return analyze_incremental(engine_named("shapes"), files, cache_path)


__all__ = ["analyze_shapes"]
