"""Flow-sensitive, interprocedural dimensional analysis (VAB006–VAB010).

The engine runs in three layers:

1. **Seeding** — every function gets a :class:`FunctionSummary` whose
   parameter/return units come from annotations
   (:mod:`repro.contracts`), the curated signature database
   (:mod:`repro.analysis.units.sigdb`), or ``_db``-style name suffixes,
   in that priority order.
2. **Flow analysis** — each function body is interpreted statement by
   statement: assignments and tuple unpacking extend a name -> unit
   environment, arithmetic combines units through the vocab algebra
   (including conversion constants like ``/ 1e3``), and calls pull
   return units from the summary table.
3. **Fixed point** — return units inferred from bodies feed back into
   the summary table and analysis repeats (in practice two passes)
   until no summary changes, so units flow across call boundaries in
   either direction.

The rules:

* **VAB006** ``db-domain-product`` — multiplying or dividing two
  dB-domain quantities (log-domain values compose additively).
* **VAB007** ``db-linear-mix`` — additive arithmetic or a binding that
  mixes the dB domain with an explicitly linear-domain ratio.
* **VAB008** ``hz-rad-confusion`` — frequency-family mismatches: Hz
  where rad/s (or kHz) is in play, frequencies fed raw into
  trigonometric or filter-design calls that expect radians.
* **VAB009** ``m-km-mix`` — length-family mismatches in range
  expressions, including the factor-1000 slip of multiplying a dB/km
  absorption coefficient by metres with no ``/ 1e3``.
* **VAB010** ``call-site-unit-conflict`` — interprocedural checks: an
  argument whose inferred unit conflicts with the callee's declared
  parameter unit, or a return value that contradicts the function's
  declared return unit.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.dataflow import FlowBase, ModuleAnalysis
from repro.analysis.units import sigdb
from repro.analysis.units.symbols import FunctionInfo, ModuleInfo
from repro.analysis.units.vocab import (
    DB_DOMAIN,
    DB_TIMES_M_PER_KM_UNIT,
    DB_UNIT,
    DEG_UNIT,
    HZ_UNIT,
    KHZ_UNIT,
    KM_UNIT,
    LINEAR_UNIT,
    M_UNIT,
    PI_SCALAR_UNIT,
    RAD_PER_S_UNIT,
    SCALAR_UNIT,
    combine_additive,
    combine_divisive,
    combine_multiplicative,
    family_of,
    unit_from_name,
)

MAX_FIXED_POINT_PASSES = 4
"""Safety bound; the issue's two-pass scheme converges in 2 on this tree."""

LOG10_RESULT = "__log10__"
"""Pseudo-unit of a bare ``log10(...)`` call, promoted to dB by 10x/20x."""

RULE_DB_PRODUCT = "VAB006"
RULE_DB_LINEAR_MIX = "VAB007"
RULE_HZ_RAD = "VAB008"
RULE_M_KM = "VAB009"
RULE_CALL_SITE = "VAB010"

_FREQ_UNITS = frozenset({HZ_UNIT, KHZ_UNIT, RAD_PER_S_UNIT})
_TRIG_BAD_UNITS = frozenset({HZ_UNIT, KHZ_UNIT, RAD_PER_S_UNIT, DEG_UNIT})
_LINSPACE_CALLS = frozenset({"numpy.linspace", "numpy.arange", "numpy.geomspace"})

Unit = Optional[str]


@dataclass(frozen=True)
class FunctionSummary:
    """The interprocedural unit contract of one function."""

    qualname: str
    params: Tuple[Tuple[str, Unit], ...]
    returns: Unit
    return_source: str
    path: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "qualname": self.qualname,
            "params": [[n, u] for n, u in self.params],
            "returns": self.returns,
            "return_source": self.return_source,
            "path": self.path,
        }

    @staticmethod
    def from_dict(raw: Dict[str, object]) -> "FunctionSummary":
        return FunctionSummary(
            qualname=str(raw["qualname"]),
            params=tuple((str(n), u) for n, u in raw["params"]),  # type: ignore[union-attr]
            returns=raw["returns"],  # type: ignore[arg-type]
            return_source=str(raw.get("return_source", "")),
            path=str(raw["path"]),
        )

    def absorb(self, unit: str) -> "FunctionSummary":
        """This summary with a return unit inferred from the body."""
        if self.returns == unit:
            return self
        return replace(self, returns=unit, return_source="inferred")


def seed_summaries(infos: Sequence[ModuleInfo]) -> Dict[str, FunctionSummary]:
    """Initial summary table from annotations, sigdb, and suffixes."""
    table: Dict[str, FunctionSummary] = {}
    for info in infos:
        for fn in info.functions:
            table[fn.qualname] = FunctionSummary(
                qualname=fn.qualname,
                params=tuple((p.name, p.unit) for p in fn.params),
                returns=fn.return_unit,
                return_source=fn.return_source,
                path=info.path.as_posix(),
            )
    return table


def _conflict(a: Unit, b: Unit) -> Optional[Tuple[str, str]]:
    """(rule_id, description) when units ``a`` and ``b`` must not meet
    additively, else None. Pseudo-units and unknowns never conflict."""
    if a is None or b is None or a == b:
        return None
    in_db_a, in_db_b = a in DB_DOMAIN, b in DB_DOMAIN
    if (in_db_a and b == LINEAR_UNIT) or (in_db_b and a == LINEAR_UNIT):
        return RULE_DB_LINEAR_MIX, "dB-domain and linear-domain quantities"
    if DB_TIMES_M_PER_KM_UNIT in (a, b) and (in_db_a or in_db_b):
        return (
            RULE_M_KM,
            "a dB/km coefficient multiplied by metres (missing / 1e3) "
            "and a dB quantity",
        )
    if {a, b} == {M_UNIT, KM_UNIT}:
        return RULE_M_KM, "metre and kilometre quantities"
    if a in _FREQ_UNITS and b in _FREQ_UNITS:
        return RULE_HZ_RAD, f"{a} and {b} frequency conventions"
    return None


def _call_conflict(arg_unit: Unit, param_unit: Unit) -> Optional[Tuple[str, str]]:
    """Conflict classification for an argument against a parameter."""
    if arg_unit is None or param_unit is None or arg_unit == param_unit:
        return None
    if arg_unit in (SCALAR_UNIT, PI_SCALAR_UNIT, LOG10_RESULT):
        return None
    if arg_unit in _FREQ_UNITS and param_unit in _FREQ_UNITS:
        return RULE_HZ_RAD, f"{arg_unit} argument for a {param_unit} parameter"
    in_db_arg, in_db_param = arg_unit in DB_DOMAIN, param_unit in DB_DOMAIN
    if (in_db_arg and param_unit == LINEAR_UNIT) or (in_db_param and arg_unit == LINEAR_UNIT):
        return RULE_CALL_SITE, f"{arg_unit} argument for a {param_unit} parameter"
    if arg_unit == DB_TIMES_M_PER_KM_UNIT and in_db_param:
        return RULE_CALL_SITE, "unconverted dB/km * m argument for a dB parameter"
    fam_a, fam_p = family_of(arg_unit), family_of(param_unit)
    if fam_a is not None and fam_a == fam_p and fam_a != "level":
        return RULE_CALL_SITE, f"{arg_unit} argument for a {param_unit} parameter"
    return None


class _FunctionFlow(FlowBase):
    """Interprets one function (or the module top level) in order."""

    def __init__(
        self,
        info: ModuleInfo,
        analysis: ModuleAnalysis,
        summaries: Dict[str, FunctionSummary],
        methods: Dict[str, Tuple[str, ...]],
        fn: Optional[FunctionInfo],
        module_env: Optional[Dict[str, Unit]] = None,
    ) -> None:
        super().__init__(info, analysis, summaries, methods, fn)
        self.module_env = module_env or {}
        self.env: Dict[str, Unit] = {}
        self.return_units: List[Unit] = []
        if fn is not None:
            for param in fn.params:
                self.env[param.name] = param.unit

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are analyzed separately (or skipped)
        if isinstance(stmt, ast.Assign):
            unit, _ = self._infer(stmt.value)
            for target in stmt.targets:
                self._bind(target, stmt.value, unit)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                unit, _ = self._infer(stmt.value)
                self._bind(stmt.target, stmt.value, unit)
        elif isinstance(stmt, ast.AugAssign):
            unit, _ = self._infer(stmt.value)
            if isinstance(stmt.op, (ast.Add, ast.Sub)) and isinstance(stmt.target, ast.Name):
                existing = self._name_unit(stmt.target.id)
                clash = _conflict(existing, unit)
                if clash is not None:
                    self._emit(stmt, clash[0],
                               f"augmented assignment mixes {clash[1]} "
                               f"({stmt.target.id!r} is {existing}, value is {unit}) "
                               f"in {self._where()}")
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                unit, _ = self._infer(stmt.value)
                self.return_units.append(unit)
                self._check_return(stmt, unit)
        elif isinstance(stmt, ast.Expr):
            self._infer(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._infer(stmt.test)
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.For):
            iter_unit, _ = self._infer(stmt.iter)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = iter_unit
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._infer(item.context_expr)
            self.run(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.run(stmt.body)
            for handler in stmt.handlers:
                self.run(handler.body)
            self.run(stmt.orelse)
            self.run(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._infer(child)

    def _bind(self, target: ast.expr, value: ast.expr, unit: Unit) -> None:
        if isinstance(target, ast.Name):
            declared = unit_from_name(target.id)
            self._check_binding(target, target.id, declared, unit)
            self.env[target.id] = declared if declared is not None else unit
        elif isinstance(target, ast.Attribute):
            declared = unit_from_name(target.attr)
            self._check_binding(target, target.attr, declared, unit)
            dotted = self.info.resolve(target)
            if dotted is not None:
                self.env[dotted] = declared if declared is not None else unit
        elif isinstance(target, (ast.Tuple, ast.List)):
            values: List[Optional[ast.expr]]
            units: List[Unit]
            if isinstance(value, (ast.Tuple, ast.List)) and (
                len(value.elts) == len(target.elts)
            ):
                values = list(value.elts)
                units = [self._infer(v)[0] for v in values]
            else:
                values = [None] * len(target.elts)
                units = [None] * len(target.elts)
            for sub_target, sub_value, sub_unit in zip(target.elts, values, units):
                self._bind(sub_target, sub_value or target, sub_unit)

    def _check_binding(
        self, node: ast.AST, name: str, declared: Unit, value_unit: Unit
    ) -> None:
        if declared is None or value_unit is None:
            return
        if value_unit == DB_TIMES_M_PER_KM_UNIT and declared in DB_DOMAIN:
            self._emit(node, RULE_M_KM,
                       f"{name!r} ({declared}) bound to a dB/km coefficient "
                       "multiplied by metres; divide the distance by 1e3 "
                       "(dB/km expects km)")
            return
        clash = _conflict(declared, value_unit)
        if clash is not None:
            self._emit(node, clash[0],
                       f"{name!r} declares {declared} but is bound to a "
                       f"{value_unit} expression ({clash[1]}) in {self._where()}")

    def _check_return(self, node: ast.AST, unit: Unit) -> None:
        if self.fn is None or self.fn.return_unit is None or unit is None:
            return
        declared = self.fn.return_unit
        if unit in (SCALAR_UNIT, PI_SCALAR_UNIT, LOG10_RESULT):
            return
        if unit == DB_TIMES_M_PER_KM_UNIT and declared in DB_DOMAIN:
            self._emit(node, RULE_M_KM,
                       f"{self.fn.name}() declares a {declared} return but "
                       "returns a dB/km coefficient multiplied by metres "
                       "(missing / 1e3)")
            return
        if _conflict(declared, unit) is not None or (
            family_of(declared) == family_of(unit)
            and declared != unit and family_of(declared) != "level"
        ):
            self._emit(node, RULE_CALL_SITE,
                       f"{self.fn.name}() declares a {declared} return "
                       f"({self.fn.return_source}) but returns a {unit} "
                       "expression")

    # -- name resolution --------------------------------------------------

    def _name_unit(self, name: str) -> Unit:
        if name in self.env:
            return self.env[name]
        if name in self.module_env:
            return self.module_env[name]
        resolved = self.info.aliases.get(name)
        if resolved is not None:
            if resolved in sigdb.PI_NAMES:
                return PI_SCALAR_UNIT
            return unit_from_name(resolved.rsplit(".", 1)[-1])
        return unit_from_name(name)

    # -- expression inference ---------------------------------------------

    def _infer(self, node: ast.expr) -> Tuple[Unit, Optional[float]]:
        """(unit, numeric constant value) of one expression."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
                return None, float(node.value)
            return None, None
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            unit, const = self._infer(node.operand)
            return unit, (None if const is None else -const)
        if isinstance(node, ast.Name):
            return self._name_unit(node.id), None
        if isinstance(node, ast.Attribute):
            resolved = self.info.resolve(node)
            if resolved is not None:
                if resolved in sigdb.PI_NAMES:
                    return PI_SCALAR_UNIT, None
                if resolved in self.env:
                    return self.env[resolved], None
            return unit_from_name(node.attr), None
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node)
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, ast.IfExp):
            self._infer(node.test)
            a, _ = self._infer(node.body)
            b, _ = self._infer(node.orelse)
            return (a if a == b else combine_additive(a, b)), None
        if isinstance(node, ast.Subscript):
            unit, _ = self._infer(node.value)
            return unit, None
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                self._infer(elt)
            return None, None
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._infer(child)
            return None, None
        return None, None

    def _infer_binop(self, node: ast.BinOp) -> Tuple[Unit, Optional[float]]:
        left, left_const = self._infer(node.left)
        right, right_const = self._infer(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            clash = _conflict(left, right)
            if clash is not None:
                self._emit(node, clash[0],
                           f"additive arithmetic mixes {clash[1]} "
                           f"({left} vs {right}) in {self._where()}")
                return None, None
            return combine_additive(left, right), None
        if isinstance(node.op, ast.Mult):
            if left in DB_DOMAIN and right in DB_DOMAIN:
                self._emit(node, RULE_DB_PRODUCT,
                           f"product of two dB-domain quantities ({left} * "
                           f"{right}) in {self._where()}; dB compose "
                           "additively — convert to linear before multiplying")
                return None, None
            if LOG10_RESULT in (left, right):
                const = right_const if left == LOG10_RESULT else left_const
                if const in (10.0, 20.0):
                    return DB_UNIT, None
                return None, None
            return combine_multiplicative(left, right, left_const, right_const), None
        if isinstance(node.op, ast.Div):
            if left in DB_DOMAIN and right in DB_DOMAIN:
                self._emit(node, RULE_DB_PRODUCT,
                           f"ratio of two dB-domain quantities ({left} / "
                           f"{right}) in {self._where()}; subtract dB values "
                           "instead of dividing them")
                return None, None
            return combine_divisive(left, right, right_const), None
        if isinstance(node.op, ast.Pow):
            if left_const == 10.0 and left is None and right in DB_DOMAIN:
                return LINEAR_UNIT, None
            return None, None
        return None, None

    def _infer_call(self, node: ast.Call) -> Tuple[Unit, Optional[float]]:
        arg_units = [self._infer(arg)[0] for arg in node.args
                     if not isinstance(arg, ast.Starred)]
        kw_units = {
            kw.arg: self._infer(kw.value)[0]
            for kw in node.keywords if kw.arg is not None
        }
        resolved = self.info.resolve(node.func)

        if resolved in sigdb.LOG10_CALLS:
            return LOG10_RESULT, None
        if resolved in sigdb.TRIG_CALLS:
            if arg_units and arg_units[0] in _TRIG_BAD_UNITS:
                self._emit(node, RULE_HZ_RAD,
                           f"{resolved}() expects radians but the argument "
                           f"is {arg_units[0]}-valued in {self._where()}; "
                           "build the phase explicitly (2*pi*f*t, or "
                           "math.radians for angles)")
            return None, None
        if resolved in sigdb.FILTER_TIME_CALLS:
            critical = sigdb.FILTER_TIME_CALLS[resolved]
            unit = kw_units.get(critical)
            if unit in (RAD_PER_S_UNIT, KHZ_UNIT):
                self._emit(node, RULE_HZ_RAD,
                           f"{resolved}() critical frequency {critical!r} is "
                           f"{unit}-valued in {self._where()}; with fs= the "
                           "filter design expects Hz")
            return None, None
        if resolved in sigdb.PASSTHROUGH_CALLS:
            return (arg_units[0] if arg_units else None), None
        if resolved in _LINSPACE_CALLS:
            if len(arg_units) >= 2:
                return combine_additive(arg_units[0], arg_units[1]), None
            return (arg_units[0] if arg_units else None), None

        summary = self._resolve_summary(node, resolved)
        if summary is not None:
            self._check_call_args(node, summary, arg_units, kw_units)
            if summary.returns is not None:
                return summary.returns, None
        signature = sigdb.lookup(resolved)
        if signature is None and isinstance(node.func, ast.Attribute):
            signature = sigdb.method_signature(node.func.attr)
        if signature is not None and summary is None:
            self._check_external_args(node, resolved, signature, arg_units, kw_units)
            if signature.returns is not None:
                return signature.returns, None

        # Fallback: trust the callee's own name suffix (bandwidth_hz()).
        callee_name = None
        if isinstance(node.func, ast.Attribute):
            callee_name = node.func.attr
        elif isinstance(node.func, ast.Name):
            callee_name = node.func.id
        if callee_name is not None:
            return unit_from_name(callee_name), None
        return None, None

    def _check_call_args(
        self,
        node: ast.Call,
        summary: FunctionSummary,
        arg_units: List[Unit],
        kw_units: Dict[str, Unit],
    ) -> None:
        params = list(summary.params)
        by_name = dict(params)
        callee = summary.qualname.rsplit(".", 1)[-1]
        for i, unit in enumerate(arg_units):
            if i >= len(params):
                break
            self._flag_arg(node, callee, params[i][0], params[i][1], unit)
        for name, unit in sorted(kw_units.items()):
            if name in by_name:
                self._flag_arg(node, callee, name, by_name[name], unit)

    def _check_external_args(
        self,
        node: ast.Call,
        resolved: Optional[str],
        signature: sigdb.Signature,
        arg_units: List[Unit],
        kw_units: Dict[str, Unit],
    ) -> None:
        callee = (resolved or "?").rsplit(".", 1)[-1]
        order = signature.param_order
        for i, unit in enumerate(arg_units):
            if i >= len(order):
                break
            name = order[i]
            self._flag_arg(node, callee, name, signature.params.get(name), unit)
        for name, unit in sorted(kw_units.items()):
            if name in signature.params:
                self._flag_arg(node, callee, name, signature.params[name], unit)

    def _flag_arg(
        self, node: ast.Call, callee: str, param: str, declared: Unit, actual: Unit
    ) -> None:
        clash = _call_conflict(actual, declared)
        if clash is None:
            return
        rule_id, description = clash
        self._emit(node, rule_id,
                   f"call to {callee}() passes a {actual} value for "
                   f"parameter {param!r} which expects {declared} "
                   f"({description}) in {self._where()}")


def analyze_module(
    info: ModuleInfo,
    summaries: Dict[str, FunctionSummary],
    methods: Dict[str, Tuple[str, ...]],
) -> ModuleAnalysis:
    """One engine pass over one module with the given summary table."""
    analysis = ModuleAnalysis()
    module_flow = _FunctionFlow(info, analysis, summaries, methods, fn=None)
    module_flow.run(info.tree.body)
    module_env = dict(module_flow.env)
    for fn in info.functions:
        flow = _FunctionFlow(
            info, analysis, summaries, methods, fn=fn, module_env=module_env
        )
        flow.run(getattr(fn.node, "body", []))
        if fn.return_unit is None:
            units = {u for u in flow.return_units
                     if u not in (None, SCALAR_UNIT, PI_SCALAR_UNIT, LOG10_RESULT)}
            if len(units) == 1:
                analysis.inferred[fn.qualname] = units.pop()
    analysis.findings.sort()
    return analysis

