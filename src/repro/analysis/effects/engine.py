"""Flow-sensitive, interprocedural effect/purity analysis (VAB017–VAB022).

The engine mirrors the three-layer architecture of the units and shapes
engines, reusing their symbol tables
(:class:`~repro.analysis.units.symbols.ModuleInfo`) verbatim:

1. **Seeding** — every function gets an :class:`EffectSummary` whose
   declared contract comes from ``Pure[...]`` / ``Effectful[...]`` /
   ``Annotated[T, TAG]`` annotations
   (:mod:`repro.contracts`) read straight off the
   annotation AST, plus flags for memoization decorators and
   ``rng``-style parameters.  Stamp sites — ``engine_versions={...}``
   dict literals — become pseudo-summaries so VAB021 sees them across
   files and cache runs.
2. **Flow analysis** — each body is walked once: calls are matched
   against the curated effect signature database
   (:mod:`repro.analysis.effects.sigdb`) and against callee summaries;
   module-global and argument mutations are detected syntactically;
   process-pool objects, nested callables and host-tainted values are
   tracked through a name environment.
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
* **VAB019** ``worker-rng-indiscipline`` — a callable dispatched across
  the process boundary draws from an ambient RNG stream instead of a
  passed ``SeedSequence``-derived generator.
* **VAB020** ``unpicklable-submit`` — a lambda or closure-capturing
  nested function crosses the ProcessPool submit path (it cannot
  pickle, or silently re-binds its closure in the worker).
* **VAB021** ``version-stamp-completeness`` — a ``*_ENGINE_VERSION``
  constant that does not flow into any ``engine_versions={...}``
  manifest stamp, so results computed by different engine versions
  would collide under one ``run_key``.
* **VAB022** ``host-dependent-result`` — a host-configuration read
  (``os.cpu_count()``, TTY/CI detection, locale) flowing into a return
  value without a declared ``reads:host`` grant: results must not
  depend on where they were computed, only scheduling may.
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
RULE_WORKER_RNG = "VAB019"
RULE_UNPICKLABLE = "VAB020"
RULE_VERSION_STAMP = "VAB021"
RULE_HOST_RESULT = "VAB022"

STAMPS_MARKER = "<engine_versions>"
"""Suffix of the pseudo-summary qualname carrying a module's
``engine_versions`` stamp site (VAB021's cross-file currency)."""


@dataclass(frozen=True)
class EffectSummary:
    """The interprocedural effect contract of one function.

    ``kind == "stamps"`` marks the pseudo-summary of a module's
    ``engine_versions={...}`` stamp site(s); ``stamped`` then holds the
    canonical qualnames of every version constant it references.
    """

    qualname: str
    path: str
    effects: Tuple[Tuple[str, str], ...] = ()
    declared: Optional[Tuple[str, ...]] = None
    has_rng_param: bool = False
    memoized: bool = False
    kind: str = "function"
    stamped: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "qualname": self.qualname,
            "path": self.path,
            "effects": [list(pair) for pair in self.effects],
            "declared": list(self.declared) if self.declared is not None else None,
            "has_rng_param": self.has_rng_param,
            "memoized": self.memoized,
            "kind": self.kind,
            "stamped": list(self.stamped),
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
            kind=str(raw.get("kind", "function")),
            stamped=tuple(str(s) for s in raw.get("stamped", ())),  # type: ignore[union-attr]
        )

    def absorb(self, effects: Tuple[Tuple[str, str], ...]) -> "EffectSummary":
        """This summary with the effect set inferred from the body."""
        if self.effects == effects:
            return self
        return replace(self, effects=effects)


@dataclass(frozen=True)
class EffectVal:
    """What the flow knows about one bound value."""

    kind: str = "value"  # "value" | "pool" | "nested"
    host: bool = False  # carries a host/environment-derived payload


_PLAIN = EffectVal()
_HOST = EffectVal(host=True)
_POOL = EffectVal(kind="pool")
_NESTED = EffectVal(kind="nested")


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


def _version_constants(info: ModuleInfo) -> List[Tuple[str, int]]:
    """Module-level ``*_ENGINE_VERSION`` constant definitions."""
    out: List[Tuple[str, int]] = []
    for stmt in info.tree.body:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        name = target.id
        if name == sigdb.VERSION_CONSTANT_BARE or name.endswith(
            sigdb.VERSION_CONSTANT_SUFFIX
        ):
            if isinstance(stmt.value, ast.Constant):
                out.append((name, stmt.lineno))
    return out


def _canonical(info: ModuleInfo, resolved: str) -> str:
    return resolved if "." in resolved else f"{info.module}.{resolved}"


def _stamped_qualnames(info: ModuleInfo) -> Tuple[str, ...]:
    """Canonical qualnames referenced by ``engine_versions={...}`` sites."""
    stamped: Set[str] = set()
    found = False
    for node in ast.walk(info.tree):
        if not isinstance(node, ast.Call):
            continue
        for kw in node.keywords:
            if kw.arg != sigdb.STAMP_KEYWORD or not isinstance(kw.value, ast.Dict):
                continue
            found = True
            for value in kw.value.values:
                resolved = info.resolve(value)
                if resolved is not None:
                    stamped.add(_canonical(info, resolved))
    if not found:
        return ()
    return tuple(sorted(stamped)) or ("<empty>",)


def seed_effect_summaries(infos: Sequence[ModuleInfo]) -> Dict[str, EffectSummary]:
    """Initial summary table from contracts, decorators and stamp sites."""
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
        stamped = _stamped_qualnames(info)
        if stamped:
            qualname = f"{info.module}.{STAMPS_MARKER}"
            table[qualname] = EffectSummary(
                qualname=qualname, path=path, kind="stamps", stamped=stamped
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
    """Walks one function body, collecting effect hits and rule findings."""

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
        self.declared: Optional[Tuple[str, ...]] = (
            self.summary.declared if self.summary is not None else None
        )
        self.hits: List[EffectHit] = []
        self.env: Dict[str, EffectVal] = {}
        self.declared_globals: Set[str] = set()
        self.params: Set[str] = set()
        args = fn.node.args  # type: ignore[attr-defined]
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            self.params.add(arg.arg)
            self.env[arg.arg] = _PLAIN

    def _hit(self, node: ast.AST, atom: str, origin: str) -> None:
        self.hits.append(EffectHit(
            atom=atom,
            origin=origin,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        ))

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def is a closure-capturing callable, not a new
            # scope to analyze: remember the name for VAB020.
            self.env[stmt.name] = _NESTED
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, ast.Global):
            self.declared_globals.update(stmt.names)
            return
        if isinstance(stmt, ast.Assign):
            val = self._infer(stmt.value)
            for target in stmt.targets:
                self._bind(target, val, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            val = self._infer(stmt.value) if stmt.value is not None else _PLAIN
            self._bind(stmt.target, val, stmt)
        elif isinstance(stmt, ast.AugAssign):
            val = self._infer(stmt.value)
            self._check_store(stmt.target, stmt)
            if isinstance(stmt.target, ast.Name):
                name = stmt.target.id
                current = self.env.get(name, _PLAIN)
                self._read_name(stmt.target)
                self.env[name] = EffectVal(host=current.host or val.host)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                val = self._infer(stmt.value)
                self._check_host_return(stmt, val)
        elif isinstance(stmt, ast.Expr):
            self._infer(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._infer(stmt.test)
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.For):
            iter_val = self._infer(stmt.iter)
            self._bind(stmt.target, EffectVal(host=iter_val.host), stmt)
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                val = self._infer(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, val, stmt)
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
                    self._infer(child)

    def _bind(self, target: ast.expr, val: EffectVal, stmt: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.declared_globals:
                self._hit(
                    stmt, MUTATES_GLOBAL_ATOM,
                    f"{self.info.module}.{target.id}",
                )
            self.env[target.id] = val
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self._check_store(target, stmt)
            if isinstance(target, ast.Subscript):
                self._infer(target.slice) if isinstance(
                    target.slice, ast.expr
                ) else None
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, EffectVal(host=val.host), stmt)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, _PLAIN, stmt)

    def _check_store(self, target: ast.expr, stmt: ast.stmt) -> None:
        """A store through a Subscript/Attribute: who owns the base?"""
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        root = _root_name(target)
        if root is None:
            return
        if root in ("self", "cls"):
            return
        if root in self.params and root in self.env:
            self._hit(stmt, MUTATES_ARG_ATOM, root)
        elif root in self.mutable_globals or (
            root not in self.env and root in self._module_names()
        ):
            self._hit(stmt, MUTATES_GLOBAL_ATOM, f"{self.info.module}.{root}")

    def _module_names(self) -> Set[str]:
        return self.mutable_globals

    def _read_name(self, node: ast.Name) -> EffectVal:
        name = node.id
        if name in self.declared_globals or (
            name not in self.env and name in self.mutable_globals
        ):
            self._hit(node, READS_GLOBAL_ATOM, f"{self.info.module}.{name}")
        return self.env.get(name, _PLAIN)

    def _check_host_return(self, stmt: ast.Return, val: EffectVal) -> None:
        if not val.host:
            return
        declared = self.declared or ()
        if READS_HOST_ATOM in declared:
            return
        if self.summary is not None and self.summary.memoized:
            return  # VAB017 reports hidden inputs of memoized functions
        self._emit(
            stmt, RULE_HOST_RESULT,
            f"host-dependent value flows into the return of "
            f"{self.fn.name}(); stored results must not depend on the "
            f"machine that computed them — pass the value in explicitly, "
            f'or declare Effectful[..., "reads:host"] if this only tunes '
            f"scheduling or display",
        )

    # -- expression inference ---------------------------------------------

    def _infer(self, node: Optional[ast.expr]) -> EffectVal:
        if node is None:
            return _PLAIN
        if isinstance(node, ast.Constant):
            return _PLAIN
        if isinstance(node, ast.Name):
            return self._read_name(node)
        if isinstance(node, ast.Attribute):
            return self._infer_attribute(node)
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, ast.Lambda):
            return _NESTED
        if isinstance(node, ast.BinOp):
            left = self._infer(node.left)
            right = self._infer(node.right)
            return EffectVal(host=left.host or right.host)
        if isinstance(node, ast.UnaryOp):
            return self._infer(node.operand)
        if isinstance(node, ast.BoolOp):
            host = False
            for child in node.values:
                host = self._infer(child).host or host
            return EffectVal(host=host)
        if isinstance(node, ast.IfExp):
            self._infer(node.test)
            a = self._infer(node.body)
            b = self._infer(node.orelse)
            return EffectVal(host=a.host or b.host)
        if isinstance(node, ast.Compare):
            self._infer(node.left)
            for comp in node.comparators:
                self._infer(comp)
            return _PLAIN
        if isinstance(node, ast.Subscript):
            base = self._infer(node.value)
            if isinstance(node.slice, ast.expr):
                self._infer(node.slice)
            return EffectVal(host=base.host)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            host = False
            for elt in node.elts:
                host = self._infer(elt).host or host
            return EffectVal(host=host)
        if isinstance(node, ast.Dict):
            host = False
            for key in node.keys:
                if key is not None:
                    host = self._infer(key).host or host
            for value in node.values:
                host = self._infer(value).host or host
            return EffectVal(host=host)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            self._comprehension_generators(node.generators)
            self._infer(node.elt)
            return _PLAIN
        if isinstance(node, ast.DictComp):
            self._comprehension_generators(node.generators)
            self._infer(node.key)
            self._infer(node.value)
            return _PLAIN
        if isinstance(node, ast.NamedExpr):
            val = self._infer(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = val
            return val
        if isinstance(node, ast.Starred):
            return self._infer(node.value)
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self._infer(value.value)
            return _PLAIN
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self._infer(node.value)
        if isinstance(node, ast.Yield):
            return self._infer(node.value) if node.value else _PLAIN
        if isinstance(node, ast.Slice):
            for bound in (node.lower, node.upper, node.step):
                self._infer(bound)
            return _PLAIN
        return _PLAIN

    def _comprehension_generators(
        self, generators: Sequence[ast.comprehension]
    ) -> None:
        for gen in generators:
            iter_val = self._infer(gen.iter)
            self._bind(gen.target, EffectVal(host=iter_val.host), ast.Pass())
            for cond in gen.ifs:
                self._infer(cond)

    def _infer_attribute(self, node: ast.Attribute) -> EffectVal:
        resolved = self.info.resolve(node)
        if resolved is not None and any(
            resolved == e or resolved.startswith(e + ".")
            for e in sigdb.ENVIRON_ATTRS
        ):
            self._hit(node, READS_ENVIRON_ATOM, resolved)
            return _HOST
        base = self._infer(node.value)
        return EffectVal(host=base.host)

    # -- calls ------------------------------------------------------------

    def _infer_call(self, node: ast.Call) -> EffectVal:
        resolved = self.info.resolve(node.func)
        if isinstance(node.func, ast.Attribute) and self._check_submit(
            node, node.func
        ):
            # arguments were handled by the submit check
            return _PLAIN
        arg_vals = [self._infer(arg) for arg in node.args]
        kw_vals = [self._infer(kw.value) for kw in node.keywords]
        if not isinstance(node.func, (ast.Name, ast.Attribute)):
            self._infer(node.func)

        if resolved is not None:
            handled = self._known_call(node, resolved, arg_vals, kw_vals)
            if handled is not None:
                return handled

        if isinstance(node.func, ast.Attribute):
            self._infer(node.func.value)
            self._method_effects(node, node.func)

        summary = self._resolve_summary(node, resolved)
        if summary is not None and summary.kind == "function":
            if summary.declared is not None:
                # Trust the contract: the declared grant *is* the call's
                # effect set (the body is verified separately), so it
                # propagates to callers like any inferred effect.
                for atom in summary.declared:
                    if atom == MUTATES_ARG_ATOM:
                        continue
                    self._hit(node, atom, summary.qualname)
                return _HOST if READS_HOST_ATOM in summary.declared else _PLAIN
            for atom, origin in summary.effects:
                if atom == MUTATES_ARG_ATOM:
                    continue  # argument mutation does not alias-propagate
                self._hit(node, atom, origin)
        return _PLAIN

    def _known_call(
        self,
        node: ast.Call,
        resolved: str,
        arg_vals: List[EffectVal],
        kw_vals: List[EffectVal],
    ) -> Optional[EffectVal]:
        if resolved in sigdb.POOL_CONSTRUCTORS:
            return _POOL
        atom = sigdb.EFFECT_CALLS.get(resolved)
        if atom is not None:
            self._hit(node, atom, resolved)
            host = atom in (READS_HOST_ATOM, READS_ENVIRON_ATOM)
            return _HOST if host else _PLAIN
        if any(
            resolved == e or resolved.startswith(e + ".")
            for e in sigdb.ENVIRON_ATTRS
        ):
            self._hit(node, READS_ENVIRON_ATOM, resolved)
            return _HOST
        if resolved in sigdb.AMBIENT_RNG_CALLS:
            self._hit(node, RNG_AMBIENT_ATOM, resolved)
            return _PLAIN
        if resolved == "numpy.random.default_rng":
            seeded = bool(node.args) and not (
                len(node.args) == 1
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value is None
            )
            seeded = seeded or any(kw.arg == "seed" for kw in node.keywords)
            if not seeded:
                self._hit(node, RNG_AMBIENT_ATOM, resolved)
            return _PLAIN
        if resolved in sigdb.FALLBACK_RNG_FUNCS:
            if self.summary is None or not self.summary.has_rng_param:
                self._hit(node, RNG_AMBIENT_ATOM, resolved)
            return _PLAIN
        if resolved == "open":
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
            return _PLAIN
        if resolved in sigdb.HOST_PASSTHROUGH_CALLS:
            host = any(v.host for v in arg_vals) or any(v.host for v in kw_vals)
            return _HOST if host else _PLAIN
        return None

    def _method_effects(self, node: ast.Call, func: ast.Attribute) -> None:
        attr = func.attr
        root = _root_name(func.value)
        if attr in sigdb.MUTATING_METHODS:
            if root is not None and root not in ("self", "cls"):
                if root in self.params:
                    self._hit(node, MUTATES_ARG_ATOM, root)
                elif root not in self.env and root in self.mutable_globals:
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

    def _check_submit(self, node: ast.Call, func: ast.Attribute) -> bool:
        """VAB019/VAB020 at a ``pool.submit(f, ...)``-style call site.

        Returns True when the call was recognised as a process-boundary
        dispatch (the caller then skips generic argument inference).
        """
        if func.attr not in sigdb.SUBMIT_METHODS:
            return False
        base = self._infer(func.value)
        if base.kind != "pool":
            return False
        for arg in node.args[1:]:
            self._infer(arg)
        for kw in node.keywords:
            self._infer(kw.value)
        if not node.args:
            return True
        target = node.args[0]
        if isinstance(target, ast.Lambda):
            self._emit(
                node, RULE_UNPICKLABLE,
                f"lambda passed to .{func.attr}() crosses the process "
                f"boundary in {self.fn.name}(); lambdas do not pickle — "
                "use a module-level function",
            )
            return True
        if isinstance(target, ast.Name):
            bound = self.env.get(target.id)
            if bound is not None and bound.kind == "nested":
                self._emit(
                    node, RULE_UNPICKLABLE,
                    f"nested function {target.id!r} passed to "
                    f".{func.attr}() crosses the process boundary in "
                    f"{self.fn.name}(); closures do not pickle — hoist it "
                    "to module level and pass captured state as arguments",
                )
                return True
        summary = self._resolve_summary(node, self.info.resolve(target))
        if summary is not None and summary.kind == "function":
            if summary.declared is not None:
                atoms = [(a, summary.qualname) for a in summary.declared]
            else:
                atoms = list(summary.effects)
            for atom, origin in atoms:
                if atom == RNG_AMBIENT_ATOM:
                    callee = summary.qualname.rsplit(".", 1)[-1]
                    self._emit(
                        node, RULE_WORKER_RNG,
                        f"{callee}() is dispatched to a worker process but "
                        f"draws from an ambient RNG stream (via {origin}); "
                        "thread a SeedSequence-derived generator through "
                        "its parameters instead",
                    )
                    break
        return True


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


def _check_worker_entry(
    info: ModuleInfo,
    analysis: ModuleAnalysis,
    fn: FunctionInfo,
    summary: Optional[EffectSummary],
    hits: Sequence[EffectHit],
) -> None:
    """VAB019 for the curated worker-dispatch entry points."""
    if fn.qualname not in sigdb.WORKER_ENTRY_FUNCS:
        return
    if summary is not None and summary.declared is not None:
        return
    seen: Set[Tuple[str, int]] = set()
    for hit in hits:
        if hit.atom != RNG_AMBIENT_ATOM:
            continue
        key = (hit.origin, hit.line)
        if key in seen:
            continue
        seen.add(key)
        analysis.findings.append(Finding(
            path=str(info.path), line=hit.line, col=hit.col,
            rule_id=RULE_WORKER_RNG,
            message=(
                f"{fn.name}() runs in worker processes but draws from an "
                f"ambient RNG stream (via {hit.origin}); worker results "
                "are only reproducible when every stream derives from "
                "the campaign's SeedSequence spawn"
            ),
        ))


def _check_version_stamps(
    info: ModuleInfo,
    analysis: ModuleAnalysis,
    summaries: Dict[str, EffectSummary],
) -> None:
    """VAB021: every version constant must reach a stamp site."""
    constants = _version_constants(info)
    if not constants:
        return
    sites = [
        s for s in summaries.values()
        if s.kind == "stamps" and s.qualname.endswith(STAMPS_MARKER)
    ]
    if not sites:
        return
    analysis.refs.update(s.qualname for s in sites)
    stamped: Set[str] = set()
    for site in sites:
        stamped.update(site.stamped)
    site_modules = sorted(
        s.qualname[: -len(STAMPS_MARKER) - 1] for s in sites
    )
    for name, lineno in constants:
        qualname = f"{info.module}.{name}"
        if qualname not in stamped:
            analysis.findings.append(Finding(
                path=str(info.path), line=lineno, col=0,
                rule_id=RULE_VERSION_STAMP,
                message=(
                    f"version constant {name} never reaches an "
                    f"engine_versions manifest stamp "
                    f"({', '.join(site_modules)}); results computed by "
                    "different engine versions would collide under one "
                    "run_key — add it to the stamp dict"
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
    _check_version_stamps(info, analysis, summaries)
    for fn in info.functions:
        flow = _EffectFlow(info, analysis, summaries, methods, fn, mutable)
        flow.run(getattr(fn.node, "body", []))
        summary = summaries.get(fn.qualname)
        _check_memoized(info, analysis, fn, summary, flow.hits)
        _check_worker_entry(info, analysis, fn, summary, flow.hits)
        propagatable = sorted({
            (hit.atom, hit.origin)
            for hit in flow.hits
            if hit.atom != MUTATES_ARG_ATOM
        })
        analysis.inferred[fn.qualname] = tuple(propagatable)
    analysis.findings.sort()
    return analysis

