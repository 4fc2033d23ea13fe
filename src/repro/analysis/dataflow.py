"""Scaffolding shared by the three interprocedural dataflow engines.

The units, shapes and effects engines have the same three layers:
seeding a summary per function, a flow pass over each module's bodies,
and a fixed point that feeds what the bodies reveal back into the
summary table. What differs is the lattice each flow interprets; this
module holds everything else once:

* :class:`ModuleAnalysis` — the per-file output of one pass,
* :class:`FlowBase` — finding emission and callee resolution for the
  engines' per-function interpreters,
* :func:`run_fixed_point` — the pass loop, driven by an engine record
  from :mod:`repro.analysis.engines`.

A summary type plugs in by exposing ``qualname``, ``path``,
``to_dict()`` and ``absorb(inferred)``, which returns the summary
updated with what a pass inferred (the same object when nothing
changed).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engines import Engine
    from repro.analysis.units.symbols import FunctionInfo, ModuleInfo


@dataclass
class ModuleAnalysis:
    """Per-file output of one engine pass.

    ``inferred`` maps a function's qualname to what its body revealed
    (a return unit, a return shape, an effect set); the fixed point
    folds it into the summary table.
    """

    findings: List[Finding] = field(default_factory=list)
    refs: Set[str] = field(default_factory=set)
    inferred: Dict[str, Any] = field(default_factory=dict)


def method_index(table: Dict[str, Any]) -> Dict[str, Tuple[str, ...]]:
    """bare method name -> qualnames, for unique-name attribute fallback."""
    index: Dict[str, Tuple[str, ...]] = {}
    for qualname in sorted(table):
        parts = qualname.split(".")
        if len(parts) >= 2 and parts[-2][:1].isupper():
            index[parts[-1]] = index.get(parts[-1], ()) + (qualname,)
    return index


class FlowBase:
    """Plumbing for an interpreter of one function (or a module's top level)."""

    def __init__(
        self,
        info: ModuleInfo,
        analysis: ModuleAnalysis,
        summaries: Dict[str, Any],
        methods: Dict[str, Tuple[str, ...]],
        fn: Optional[FunctionInfo],
    ) -> None:
        self.info = info
        self.analysis = analysis
        self.summaries = summaries
        self.methods = methods
        self.fn = fn

    def _emit(self, node: ast.AST, rule_id: str, message: str) -> None:
        self.analysis.findings.append(Finding(
            path=str(self.info.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=rule_id,
            message=message,
        ))

    def _where(self) -> str:
        return self.fn.name + "()" if self.fn is not None else "module level"

    def run(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        raise NotImplementedError

    def _resolve_summary(self, node: ast.Call, resolved: Optional[str]) -> Any:
        """The summary of the function a call targets, recording the ref."""
        candidates: List[str] = []
        if resolved is not None:
            candidates.append(resolved)
            if "." not in resolved:
                candidates.append(f"{self.info.module}.{resolved}")
        if isinstance(node.func, ast.Attribute):
            if (
                isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("self", "cls")
                and self.fn is not None
                and self.fn.class_name is not None
            ):
                candidates.append(
                    f"{self.info.module}.{self.fn.class_name}.{node.func.attr}"
                )
            else:
                unique = self.methods.get(node.func.attr, ())
                if len(unique) == 1:
                    candidates.append(unique[0])
        for candidate in candidates:
            summary = self.summaries.get(candidate)
            if summary is not None:
                self.analysis.refs.add(summary.qualname)
                return summary
        # Remember unresolved candidates too: if the target appears in a
        # later run (new file), this caller must be re-analyzed.
        self.analysis.refs.update(c for c in candidates if "." in c)
        return None


def run_fixed_point(
    engine: "Engine",
    infos: Sequence[ModuleInfo],
    summaries: Dict[str, Any],
) -> Tuple[Dict[str, ModuleAnalysis], Dict[str, Any], int]:
    """Iterate ``engine``'s module pass until the summary table stabilises.

    Args:
        engine: the engine record (its ``analyze_module`` and
            ``max_passes``).
        infos: modules to (re-)analyze this run.
        summaries: global summary table (seeded; may contain cached
            summaries for modules *not* in ``infos``). Mutated in place
            as passes infer new facts.

    Returns:
        (per-path analyses, final summary table, passes run).
    """
    ordered = sorted(infos, key=lambda info: info.path.as_posix())
    analyses: Dict[str, ModuleAnalysis] = {}
    passes = 0
    for _ in range(engine.max_passes):
        passes += 1
        methods = method_index(summaries)
        changed = False
        for info in ordered:
            analysis = engine.analyze_module(info, summaries, methods)
            analyses[info.path.as_posix()] = analysis
            for qualname in sorted(analysis.inferred):
                summary = summaries.get(qualname)
                if summary is None:
                    continue
                updated = summary.absorb(analysis.inferred[qualname])
                if updated is not summary:
                    summaries[qualname] = updated
                    changed = True
        if not changed:
            break
    return analyses, summaries, passes
