"""Flow-sensitive, interprocedural effect/purity analysis (VAB017–VAB018).

The engine mirrors the three-layer architecture of the units and shapes
engines, reusing their symbol tables
(:class:`~repro.analysis.units.symbols.ModuleInfo`) verbatim:

1. **Seeding** — every function gets an :class:`EffectSummary` whose
   declared contract comes from ``Pure[...]`` / ``Effectful[...]`` /
   ``Annotated[T, TAG]`` annotations
   (:mod:`repro.contracts`) read straight off the
   annotation AST, plus flags for memoization decorators and
   ``rng``-style parameters.
2. **Flow analysis** — each body is walked once: calls are matched
   against the curated effect signature database
   (:mod:`repro.analysis.effects.sigdb`) and against callee summaries;
   module-global and argument mutations are detected syntactically
   against the set of names bound locally.
3. **Fixed point** — each function's *propagatable* effect set feeds
   back into the summary table and analysis repeats until stable, so an
   un-annotated caller inherits the effects of everything it calls.

A declared contract (``Pure``/``Effectful``) is a trusted boundary:
callers inherit nothing from an annotated function, and the annotated
body is verified instead (VAB017/VAB018 for memoized/pure functions).

The rules:

* **VAB017** ``hidden-cache-input`` — a hidden input (environ, clock,
  filesystem, host config, mutable global, ambient RNG) reaches a
  memoized or content-addressed computation that its cache key cannot
  see.
* **VAB018** ``cache-hit-divergence`` — a side effect (global/argument
  mutation, file write) escapes a memoized function: it happens on the
  computing call and never again on a cache hit.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.dataflow import FlowBase, ModuleAnalysis
from repro.analysis.effects import sigdb
from repro.analysis.effects.vocab import (
    CONTRACT_FACTORIES,
    HIDDEN_INPUT_ATOMS,
    SIDE_EFFECT_ATOMS,
    TAG_CONSTANTS,
)
from repro.analysis.findings import Finding
from repro.analysis.units.symbols import FunctionInfo, ModuleInfo
from repro.contracts import (
    MUTATES_ARG_ATOM,
    MUTATES_GLOBAL_ATOM,
    READS_ENVIRON_ATOM,
    READS_FILE_ATOM,
    READS_GLOBAL_ATOM,
    READS_HOST_ATOM,
    RNG_AMBIENT_ATOM,
    WRITES_FILE_ATOM,
)

MAX_FIXED_POINT_PASSES = 16
"""Safety bound; effect chains through the campaign runner are deeper
than the shape-inference chains (run_observed_campaign -> parallel ->
chunk -> trials -> engine) — the full tree currently converges in 8
path-ordered passes, so the bound leaves 2x headroom."""

RULE_CACHE_INPUT = "VAB017"
RULE_CACHE_DIVERGENCE = "VAB018"


@dataclass(frozen=True)
class EffectSummary:
    """The interprocedural effect contract of one function."""

    qualname: str
    path: str
    effects: Tuple[Tuple[str, str], ...] = ()
    declared: Optional[Tuple[str, ...]] = None
    has_rng_param: bool = False
    memoized: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "qualname": self.qualname,
            "path": self.path,
            "effects": [list(pair) for pair in self.effects],
            "declared": list(self.declared) if self.declared is not None else None,
            "has_rng_param": self.has_rng_param,
            "memoized": self.memoized,
        }

    @staticmethod
    def from_dict(raw: Dict[str, object]) -> "EffectSummary":
        declared = raw.get("declared")
        return EffectSummary(
            qualname=str(raw["qualname"]),
            path=str(raw["path"]),
            effects=tuple(
                (str(a), str(o)) for a, o in raw.get("effects", [])  # type: ignore[union-attr]
            ),
            declared=tuple(str(a) for a in declared) if declared is not None else None,  # type: ignore[union-attr]
            has_rng_param=bool(raw.get("has_rng_param", False)),
            memoized=bool(raw.get("memoized", False)),
        )

    def absorb(self, effects: Tuple[Tuple[str, str], ...]) -> "EffectSummary":
        """This summary with the effect set inferred from the body."""
        if self.effects == effects:
            return self
        return replace(self, effects=effects)


@dataclass(frozen=True)
class EffectHit:
    """One effect atom observed in a function body."""

    atom: str
    origin: str
    line: int
    col: int


def annotation_effects(
    info: ModuleInfo, node: Optional[ast.AST]
) -> Optional[Tuple[str, ...]]:
    """Declared effect atoms from an annotation AST, if any.

    Recognises ``Pure[T]`` (-> ``()``), ``Effectful[T, "atom", ...]``,
    and the mypy-friendly ``Annotated[T, TAG, ...]`` spelling with the
    :data:`~repro.analysis.effects.vocab.TAG_CONSTANTS` names.
    """
    if not isinstance(node, ast.Subscript):
        return None
    resolved = info.resolve(node.value)
    if resolved is None:
        return None
    tail = resolved.rsplit(".", 1)[-1]
    if tail == "Pure" and tail in CONTRACT_FACTORIES:
        return ()
    if tail == "Effectful":
        if not isinstance(node.slice, ast.Tuple) or len(node.slice.elts) < 2:
            return None
        atoms: List[str] = []
        for item in node.slice.elts[1:]:
            if not (isinstance(item, ast.Constant) and isinstance(item.value, str)):
                return None
            atoms.append(item.value)
        return tuple(sorted(set(atoms)))
    if tail == "Annotated" and isinstance(node.slice, ast.Tuple):
        atoms = []
        matched = False
        for item in node.slice.elts[1:]:
            item_resolved = info.resolve(item)
            if item_resolved is None:
                continue
            tag = TAG_CONSTANTS.get(item_resolved.rsplit(".", 1)[-1])
            if tag is not None:
                matched = True
                atoms.extend(tag.atoms)
        if matched:
            return tuple(sorted(set(atoms)))
    return None


def _is_memo_decorated(info: ModuleInfo, fn: FunctionInfo) -> bool:
    for dec in getattr(fn.node, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        resolved = info.resolve(target)
        if resolved is not None and resolved in sigdb.MEMO_DECORATORS:
            return True
    return False


def _has_rng_param(fn: FunctionInfo) -> bool:
    args = fn.node.args  # type: ignore[attr-defined]
    names = [
        a.arg
        for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ]
    return any(name in sigdb.RNG_PARAM_NAMES for name in names)


def seed_effect_summaries(infos: Sequence[ModuleInfo]) -> Dict[str, EffectSummary]:
    """Initial summary table from contracts and decorators."""
    table: Dict[str, EffectSummary] = {}
    for info in infos:
        path = info.path.as_posix()
        for fn in info.functions:
            declared = annotation_effects(info, fn.node.returns)  # type: ignore[attr-defined]
            memoized = (
                _is_memo_decorated(info, fn)
                or fn.qualname in sigdb.MEMOIZED_FUNCS
                or declared == ()
            )
            table[fn.qualname] = EffectSummary(
                qualname=fn.qualname,
                path=path,
                declared=declared,
                has_rng_param=_has_rng_param(fn),
                memoized=memoized,
            )
    return table


def _module_globals(info: ModuleInfo) -> Set[str]:
    names: Set[str] = set()
    for stmt in info.tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
    return names


def _mutable_globals(info: ModuleInfo, module_globals: Set[str]) -> Set[str]:
    """Module-level names that are actually written to somewhere."""
    mutable: Set[str] = set()
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Global):
            mutable.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                root = _root_name(target)
                if (
                    isinstance(target, (ast.Subscript, ast.Attribute))
                    and root is not None
                    and root in module_globals
                ):
                    mutable.add(root)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in sigdb.MUTATING_METHODS:
                root = _root_name(node.func.value)
                if root is not None and root in module_globals:
                    mutable.add(root)
    return mutable & module_globals | {
        n for node in ast.walk(info.tree) if isinstance(node, ast.Global)
        for n in node.names
    }


def _root_name(node: ast.AST) -> Optional[str]:
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return None


class _EffectFlow(FlowBase):
    """Walks one function body, collecting effect hits."""

    fn: FunctionInfo

    def __init__(
        self,
        info: ModuleInfo,
        analysis: ModuleAnalysis,
        summaries: Dict[str, EffectSummary],
        methods: Dict[str, Tuple[str, ...]],
        fn: FunctionInfo,
        mutable_globals: Set[str],
    ) -> None:
        super().__init__(info, analysis, summaries, methods, fn)
        self.mutable_globals = mutable_globals
        self.summary = summaries.get(fn.qualname)
        self.hits: List[EffectHit] = []
        self.declared_globals: Set[str] = set()
        args = fn.node.args  # type: ignore[attr-defined]
        self.params: Set[str] = {
            arg.arg
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            )
        }
        self.bound: Set[str] = set(self.params)
        """Names bound in the body so far: these shadow module globals."""

    def _hit(self, node: ast.AST, atom: str, origin: str) -> None:
        self.hits.append(EffectHit(
            atom=atom,
            origin=origin,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        ))

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def binds a local name; its body is not walked.
            self.bound.add(stmt.name)
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, ast.Global):
            self.declared_globals.update(stmt.names)
            return
        if isinstance(stmt, ast.Assign):
            self._visit(stmt.value)
            for target in stmt.targets:
                self._bind(target, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            self._visit(stmt.value)
            self._bind(stmt.target, stmt)
        elif isinstance(stmt, ast.AugAssign):
            self._visit(stmt.value)
            self._check_store(stmt.target, stmt)
            if isinstance(stmt.target, ast.Name):
                self._read_name(stmt.target)
                self.bound.add(stmt.target.id)
        elif isinstance(stmt, (ast.Return, ast.Expr)):
            self._visit(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._visit(stmt.test)
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.For):
            self._visit(stmt.iter)
            self._bind(stmt.target, stmt)
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._visit(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, stmt)
            self.run(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.run(stmt.body)
            for handler in stmt.handlers:
                self.run(handler.body)
            self.run(stmt.orelse)
            self.run(stmt.finalbody)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._check_store(target, stmt)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._visit(child)

    def _bind(self, target: ast.expr, stmt: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.declared_globals:
                self._hit(
                    stmt, MUTATES_GLOBAL_ATOM,
                    f"{self.info.module}.{target.id}",
                )
            self.bound.add(target.id)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self._check_store(target, stmt)
            if isinstance(target, ast.Subscript):
                self._visit(target.slice)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, stmt)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, stmt)

    def _check_store(self, target: ast.expr, stmt: ast.stmt) -> None:
        """A store through a Subscript/Attribute: who owns the base?"""
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        root = _root_name(target)
        if root is None or root in ("self", "cls"):
            return
        if root in self.params:
            self._hit(stmt, MUTATES_ARG_ATOM, root)
        elif root in self.mutable_globals:
            self._hit(stmt, MUTATES_GLOBAL_ATOM, f"{self.info.module}.{root}")

    def _read_name(self, node: ast.Name) -> None:
        name = node.id
        if name in self.declared_globals or (
            name not in self.bound and name in self.mutable_globals
        ):
            self._hit(node, READS_GLOBAL_ATOM, f"{self.info.module}.{name}")

    # -- expressions --------------------------------------------------------

    def _visit(self, node: Optional[ast.AST]) -> None:
        """Record the effects of evaluating one expression."""
        if node is None or isinstance(node, (ast.Constant, ast.Lambda)):
            return
        if isinstance(node, ast.Name):
            self._read_name(node)
        elif isinstance(node, ast.Attribute):
            self._visit_attribute(node)
        elif isinstance(node, ast.Call):
            self._visit_call(node)
        elif isinstance(node, ast.BinOp):
            self._visit(node.left)
            self._visit(node.right)
        elif isinstance(node, ast.BoolOp):
            for child in node.values:
                self._visit(child)
        elif isinstance(node, ast.IfExp):
            self._visit(node.test)
            self._visit(node.body)
            self._visit(node.orelse)
        elif isinstance(node, ast.Compare):
            self._visit(node.left)
            for comp in node.comparators:
                self._visit(comp)
        elif isinstance(node, ast.Subscript):
            self._visit(node.value)
            self._visit(node.slice)
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                self._visit(elt)
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                self._visit(key)
            for value in node.values:
                self._visit(value)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            self._comprehension_generators(node.generators)
            self._visit(node.elt)
        elif isinstance(node, ast.DictComp):
            self._comprehension_generators(node.generators)
            self._visit(node.key)
            self._visit(node.value)
        elif isinstance(node, ast.NamedExpr):
            self._visit(node.value)
            if isinstance(node.target, ast.Name):
                self.bound.add(node.target.id)
        elif isinstance(node, ast.UnaryOp):
            self._visit(node.operand)
        elif isinstance(node, (ast.Starred, ast.Await, ast.YieldFrom, ast.Yield)):
            self._visit(node.value)
        elif isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self._visit(value.value)
        elif isinstance(node, ast.Slice):
            for bound in (node.lower, node.upper, node.step):
                self._visit(bound)

    def _comprehension_generators(
        self, generators: Sequence[ast.comprehension]
    ) -> None:
        for gen in generators:
            self._visit(gen.iter)
            self._bind(gen.target, ast.Pass())
            for cond in gen.ifs:
                self._visit(cond)

    def _visit_attribute(self, node: ast.Attribute) -> None:
        resolved = self.info.resolve(node)
        if resolved is not None and any(
            resolved == e or resolved.startswith(e + ".")
            for e in sigdb.ENVIRON_ATTRS
        ):
            self._hit(node, READS_ENVIRON_ATOM, resolved)
            return
        self._visit(node.value)

    # -- calls ------------------------------------------------------------

    def _visit_call(self, node: ast.Call) -> None:
        resolved = self.info.resolve(node.func)
        for arg in node.args:
            self._visit(arg)
        for kw in node.keywords:
            self._visit(kw.value)
        if not isinstance(node.func, (ast.Name, ast.Attribute)):
            self._visit(node.func)

        if resolved is not None and self._known_call(node, resolved):
            return

        if isinstance(node.func, ast.Attribute):
            self._visit(node.func.value)
            self._method_effects(node, node.func)

        summary = self._resolve_summary(node, resolved)
        if summary is not None:
            if summary.declared is not None:
                # Trust the contract: the declared grant *is* the call's
                # effect set (the body is verified separately), so it
                # propagates to callers like any inferred effect.
                hits = [(atom, summary.qualname) for atom in summary.declared]
            else:
                hits = list(summary.effects)
            for atom, origin in hits:
                if atom != MUTATES_ARG_ATOM:  # does not alias-propagate
                    self._hit(node, atom, origin)

    def _known_call(self, node: ast.Call, resolved: str) -> bool:
        """Record a call from the curated signatures; False if unknown."""
        atom = sigdb.EFFECT_CALLS.get(resolved)
        if atom is not None:
            self._hit(node, atom, resolved)
        elif any(
            resolved == e or resolved.startswith(e + ".")
            for e in sigdb.ENVIRON_ATTRS
        ):
            self._hit(node, READS_ENVIRON_ATOM, resolved)
        elif resolved in sigdb.AMBIENT_RNG_CALLS:
            self._hit(node, RNG_AMBIENT_ATOM, resolved)
        elif resolved == "numpy.random.default_rng":
            seeded = bool(node.args) and not (
                len(node.args) == 1
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value is None
            )
            seeded = seeded or any(kw.arg == "seed" for kw in node.keywords)
            if not seeded:
                self._hit(node, RNG_AMBIENT_ATOM, resolved)
        elif resolved in sigdb.FALLBACK_RNG_FUNCS:
            if self.summary is None or not self.summary.has_rng_param:
                self._hit(node, RNG_AMBIENT_ATOM, resolved)
        elif resolved == "open":
            mode = ""
            if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
                mode = str(node.args[1].value)
            for kw in node.keywords:
                if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                    mode = str(kw.value.value)
            writing = any(c in mode for c in "wax+")
            self._hit(
                node,
                WRITES_FILE_ATOM if writing else READS_FILE_ATOM,
                "open",
            )
        else:
            return False
        return True

    def _method_effects(self, node: ast.Call, func: ast.Attribute) -> None:
        attr = func.attr
        root = _root_name(func.value)
        if attr in sigdb.MUTATING_METHODS:
            if root is not None and root not in ("self", "cls"):
                if root in self.params:
                    self._hit(node, MUTATES_ARG_ATOM, root)
                elif root not in self.bound and root in self.mutable_globals:
                    self._hit(
                        node, MUTATES_GLOBAL_ATOM,
                        f"{self.info.module}.{root}",
                    )
        elif attr in sigdb.FILE_READ_METHODS:
            self._hit(node, READS_FILE_ATOM, f".{attr}()")
        elif attr in sigdb.FILE_WRITE_METHODS:
            self._hit(node, WRITES_FILE_ATOM, f".{attr}()")
        elif attr == "isatty":
            self._hit(node, READS_HOST_ATOM, f".{attr}()")


def _check_memoized(
    info: ModuleInfo,
    analysis: ModuleAnalysis,
    fn: FunctionInfo,
    summary: Optional[EffectSummary],
    hits: Sequence[EffectHit],
) -> None:
    """VAB017/VAB018 over a memoized function's observed effects."""
    if summary is None or not summary.memoized:
        return
    declared = set(summary.declared or ())
    seen: Set[Tuple[str, str, int]] = set()
    for hit in hits:
        if hit.atom in declared:
            continue
        key = (hit.atom, hit.origin, hit.line)
        if key in seen:
            continue
        seen.add(key)
        if hit.atom in HIDDEN_INPUT_ATOMS:
            analysis.findings.append(Finding(
                path=str(info.path), line=hit.line, col=hit.col,
                rule_id=RULE_CACHE_INPUT,
                message=(
                    f"hidden input ({hit.atom} via {hit.origin}) reaches "
                    f"the memoized/content-addressed {fn.name}(); the "
                    "cache key cannot see it, so cached results go stale "
                    "silently — pass it as an argument or declare the "
                    "grant with Effectful[...]"
                ),
            ))
        elif hit.atom in SIDE_EFFECT_ATOMS:
            analysis.findings.append(Finding(
                path=str(info.path), line=hit.line, col=hit.col,
                rule_id=RULE_CACHE_DIVERGENCE,
                message=(
                    f"side effect ({hit.atom} on {hit.origin}) escapes the "
                    f"memoized {fn.name}(); it happens on the computing "
                    "call and never again on a cache hit — hoist it out "
                    "of the cached computation or declare it with "
                    "Effectful[...]"
                ),
            ))


def analyze_effect_module(
    info: ModuleInfo,
    summaries: Dict[str, EffectSummary],
    methods: Dict[str, Tuple[str, ...]],
) -> ModuleAnalysis:
    """One engine pass over one module with the given summary table."""
    analysis = ModuleAnalysis()
    module_globals = _module_globals(info)
    mutable = _mutable_globals(info, module_globals)
    for fn in info.functions:
        flow = _EffectFlow(info, analysis, summaries, methods, fn, mutable)
        flow.run(getattr(fn.node, "body", []))
        summary = summaries.get(fn.qualname)
        _check_memoized(info, analysis, fn, summary, flow.hits)
        propagatable = sorted({
            (hit.atom, hit.origin)
            for hit in flow.hits
            if hit.atom != MUTATES_ARG_ATOM
        })
        analysis.inferred[fn.qualname] = tuple(propagatable)
    analysis.findings.sort()
    return analysis

