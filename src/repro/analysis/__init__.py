"""Static analysis for the reproduction's own invariants (``vablint``).

The campaign engine guarantees parallel runs bit-identical to serial;
the physics guarantees unit consistency (dB vs linear, Hz vs rad). Both
rest on conventions — an explicit ``rng`` threaded everywhere, unit
suffixes on names — that documentation alone cannot hold. This package
machine-checks them with a stdlib-``ast`` lint framework plus five
per-file rules (``VAB001``..``VAB005``; see
:mod:`repro.analysis.rules`), a flow-sensitive, interprocedural
dimensional-analysis engine (``VAB006``..``VAB010``; see
:mod:`repro.analysis.units`) that tracks units through assignments,
arithmetic, and call boundaries, a shape/dtype dataflow engine
(``VAB011``..``VAB016``; see :mod:`repro.analysis.shapes`) that tracks
symbolic ndarray shapes, dtypes, and determinism taints through the
batched kernels, and an effect/purity engine (``VAB017``..``VAB022``;
see :mod:`repro.analysis.effects`). The three engines are rows of one
table (:mod:`repro.analysis.engines`) run by one incremental driver
(:mod:`repro.analysis.incremental`); the annotations they read come
from the dependency-free :mod:`repro.contracts`, so runtime code —
campaign runs and the ``repro`` CLI included — never imports this
package.

Run it via ``python tools/vablint.py src/repro`` or the API::

    from repro.analysis import lint_paths

    report = lint_paths(["src/repro"])
    assert report.clean, report.findings

Suppress a deliberate violation inline with
``# vablint: disable=VAB001`` (see :mod:`repro.analysis.suppressions`),
and add rules by subclassing :class:`~repro.analysis.registry.Rule`
under the :func:`~repro.analysis.registry.register` decorator.
"""

from repro.analysis.findings import Finding
from repro.analysis.linter import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    LintReport,
    discover_files,
    lint_paths,
    lint_source,
)
from repro.analysis.registry import FileContext, Rule, make_rules, register, rule_catalogue
from repro.analysis.reporters import render_catalogue, render_json, render_text
from repro.analysis.suppressions import SuppressionIndex

__all__ = [
    "Finding",
    "LintReport",
    "lint_paths",
    "lint_source",
    "discover_files",
    "Rule",
    "register",
    "rule_catalogue",
    "make_rules",
    "FileContext",
    "SuppressionIndex",
    "render_text",
    "render_json",
    "render_catalogue",
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_ERROR",
]
