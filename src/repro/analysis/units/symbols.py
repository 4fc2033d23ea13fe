"""Project-wide symbol extraction for the dimensional-analysis engine.

One :class:`ModuleInfo` per file: the parsed tree, the module's dotted
name (derived from its path so ``src/repro/acoustics/spreading.py``
and an absolute import ``repro.acoustics.spreading`` agree), import
aliases, and every function/method definition with its parameter and
return **unit seeds** (annotation > signature database > name suffix).

The engine (:mod:`repro.analysis.units.engine`) turns these into
:class:`FunctionSummary` records — the interprocedural currency — and
the set of cross-module references that drives the incremental cache's
dependent invalidation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.registry import _import_aliases
from repro.analysis.units import sigdb
from repro.analysis.units.vocab import unit_from_annotation_name, unit_from_name


def module_name_for_path(path: Path) -> str:
    """Dotted module name a file would import as.

    Anchors on the last ``src`` or site-packages-style segment when the
    path contains a ``repro`` package directory; otherwise falls back to
    the stem (loose scripts, test fixtures, temp trees).
    """
    parts = list(path.parts)
    stem = path.stem
    if "repro" in parts:
        idx = parts.index("repro")
        dotted = parts[idx:-1] + ([] if stem == "__init__" else [stem])
        return ".".join(dotted)
    return stem


@dataclass(frozen=True)
class ParamSeed:
    """One parameter's unit seed.

    Attributes:
        name: parameter name.
        unit: canonical unit token, or None when nothing marks it.
        source: where the unit came from (``annotation`` / ``sigdb`` /
            ``suffix``) — reported in findings so a fix knows which
            convention it is violating.
    """

    name: str
    unit: Optional[str]
    source: str = ""


@dataclass
class FunctionInfo:
    """One function or method definition, with unit seeds."""

    qualname: str
    name: str
    node: ast.AST
    params: List[ParamSeed]
    return_unit: Optional[str]
    return_source: str
    lineno: int
    class_name: Optional[str] = None

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass
class ModuleInfo:
    """Everything the engine needs to know about one parsed file."""

    path: Path
    module: str
    source: str
    tree: ast.Module
    aliases: Dict[str, str] = field(default_factory=dict)
    functions: List[FunctionInfo] = field(default_factory=list)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Fully qualified dotted name of a Name/Attribute chain."""
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.append(current.id)
        parts.reverse()
        head = self.aliases.get(parts[0], parts[0])
        return ".".join([head] + parts[1:])


def _annotation_unit(info: ModuleInfo, node: Optional[ast.AST]) -> Optional[str]:
    """Unit declared by an annotation AST node (a unit alias name)."""
    qualname = info.resolve(node) if node is not None else None
    return unit_from_annotation_name(qualname) if qualname is not None else None


def _param_seeds(
    info: ModuleInfo, qualname: str, node: ast.AST, skip_self: bool
) -> List[ParamSeed]:
    """Ordered unit seeds for a function's parameters."""
    args = node.args
    ordered = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    if skip_self and ordered and ordered[0].arg in ("self", "cls"):
        ordered = ordered[1:]
    sig = sigdb.lookup(qualname)
    sig_units = dict(sig.params) if sig is not None else {}
    seeds: List[ParamSeed] = []
    for arg in ordered:
        unit = _annotation_unit(info, arg.annotation)
        source = "annotation"
        if unit is None and arg.arg in sig_units:
            unit, source = sig_units[arg.arg], "sigdb"
        if unit is None:
            unit, source = unit_from_name(arg.arg), "suffix"
        seeds.append(ParamSeed(name=arg.arg, unit=unit, source=unit and source or ""))
    return seeds


def _return_seed(
    info: ModuleInfo, qualname: str, name: str, node: ast.AST
) -> Tuple[Optional[str], str]:
    """(unit, source) the function's return value is declared to carry."""
    unit = _annotation_unit(info, node.returns)
    if unit is not None:
        return unit, "annotation"
    sig = sigdb.lookup(qualname)
    if sig is not None and isinstance(sig.returns, str):
        return sig.returns, "sigdb"
    suffix_unit = unit_from_name(name)
    if suffix_unit is not None:
        return suffix_unit, "suffix"
    return None, ""


def extract_module(path: Path, source: str) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo`.

    Raises:
        SyntaxError: for unparsable sources (the caller reports VAB000).
    """
    tree = ast.parse(source, filename=str(path))
    info = ModuleInfo(
        path=path,
        module=module_name_for_path(path),
        source=source,
        tree=tree,
        aliases=_import_aliases(tree),
    )
    _collect_functions(info, tree.body, class_name=None)
    return info


def _collect_functions(
    info: ModuleInfo, body: Sequence[ast.stmt], class_name: Optional[str]
) -> None:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{info.module}.{class_name}" if class_name else info.module
            qualname = f"{scope}.{node.name}"
            seeds = _param_seeds(info, qualname, node, skip_self=class_name is not None)
            unit, source = _return_seed(info, qualname, node.name, node)
            info.functions.append(FunctionInfo(
                qualname=qualname,
                name=node.name,
                node=node,
                params=seeds,
                return_unit=unit,
                return_source=source,
                lineno=node.lineno,
                class_name=class_name,
            ))
        elif isinstance(node, ast.ClassDef) and class_name is None:
            _collect_functions(info, node.body, class_name=node.name)
