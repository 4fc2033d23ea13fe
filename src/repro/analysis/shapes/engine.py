"""Flow-sensitive, interprocedural shape/dtype analysis (VAB011–VAB016).

The engine mirrors the three-layer architecture of
:mod:`repro.analysis.units.engine`, reusing its symbol tables
(:class:`~repro.analysis.units.symbols.ModuleInfo`) verbatim:

1. **Seeding** — every function gets a :class:`ShapeSummary` whose
   parameter/return shapes come from ``Shaped["trials", "samples"]``
   contracts (:mod:`repro.contracts`) read straight off the
   annotation AST.
2. **Flow analysis** — each body is interpreted statement by statement
   over a name -> :class:`~repro.analysis.shapes.vocab.ShapeVal`
   environment: the curated numpy signature database
   (:mod:`repro.analysis.shapes.sigdb`) models constructors,
   elementwise ufuncs, reductions, ``reshape``, the FFT family and a
   minimal ``einsum``; binary arithmetic goes through the numpy
   broadcast algebra; subscripts slice symbolic dims.
3. **Fixed point** — shapes/dtypes inferred at ``return`` statements
   feed back into the summary table and analysis repeats until stable,
   so a kernel's declared contract flows out through its delegating
   wrappers (``monostatic_field_sum`` -> ``monostatic_batch`` ->
   ``monostatic_pattern_db``).

The engine only reports what it can *prove* from the contracts and the
signature DB — an unknown shape or dtype silences every rule, so
un-annotated code stays quiet.

The rules:

* **VAB011** ``silent-broadcast`` — elementwise arithmetic whose
  operand shapes provably cannot broadcast (two different named dims,
  or two different fixed extents, in the same aligned slot). The
  classic instance is a reduction missing ``keepdims=True``.
* **VAB012** ``batch-collapsing-reduction`` — an axis-less reduction
  that collapses a named batch dimension, or an ``axis=`` that is out
  of range for the known rank.
* **VAB013** ``complex-downcast`` — ``float()``/``int()`` of a complex
  value, complex expressions stored into real-dtype buffers, ordered
  comparisons on complex data, and complex values returned/passed where
  a real contract is declared (the ``np.abs`` vs ``.real`` confusion).
* **VAB014** ``shared-array-mutation`` — in-place mutation (subscript/
  attribute stores, augmented assignment, mutating ndarray methods,
  ``ufunc.at``) of a value that crossed a worker/cache boundary.
* **VAB015** ``unordered-accumulation`` — set iteration feeding an
  accumulation or RNG draws, and ``sum()`` over a set — float addition
  is not associative and generator streams are order-sensitive.
* **VAB016** ``shape-contract-violation`` — call arguments or returns
  whose inferred dims contradict the declared ``Shaped[...]`` contract.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.dataflow import FlowBase, ModuleAnalysis
from repro.analysis.shapes import sigdb
from repro.analysis.shapes.vocab import (
    SCALAR_BOOL,
    SCALAR_COMPLEX,
    SCALAR_FLOAT,
    SCALAR_INT,
    SET_VAL,
    SHAPED_FACTORIES,
    SHARED_UNKNOWN,
    UNKNOWN,
    ShapeVal,
    broadcast_dims,
    contract_conflict,
    dims_conflict,
    format_dims,
    promote_dtype,
)
from repro.analysis.units.symbols import FunctionInfo, ModuleInfo
from repro.contracts import BOOL, COMPLEX, FLOAT, INT, UNKNOWN_DIM, VARIADIC, Dim

MAX_FIXED_POINT_PASSES = 4
"""Safety bound; the delegating-wrapper chains converge in <= 3."""

RULE_BROADCAST = "VAB011"
RULE_REDUCTION = "VAB012"
RULE_DOWNCAST = "VAB013"
RULE_SHARED_MUT = "VAB014"
RULE_UNORDERED = "VAB015"
RULE_CONTRACT = "VAB016"

_REAL_DTYPES = frozenset({FLOAT, INT})
_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)
_BIT_OPS = (ast.BitAnd, ast.BitOr, ast.BitXor)
_ORDERED_CMP = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
_ARRAY_CMP = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)

_MISSING = object()


@dataclass(frozen=True)
class ShapeSummary:
    """The interprocedural shape contract of one function."""

    qualname: str
    params: Tuple[Tuple[str, Optional[ShapeVal]], ...]
    returns: Optional[ShapeVal]
    return_source: str
    path: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "qualname": self.qualname,
            "params": [
                [n, v.to_dict() if v is not None else None] for n, v in self.params
            ],
            "returns": self.returns.to_dict() if self.returns is not None else None,
            "return_source": self.return_source,
            "path": self.path,
        }

    @staticmethod
    def from_dict(raw: Dict[str, object]) -> "ShapeSummary":
        returns = raw.get("returns")
        return ShapeSummary(
            qualname=str(raw["qualname"]),
            params=tuple(
                (str(n), ShapeVal.from_dict(v) if v is not None else None)
                for n, v in raw["params"]  # type: ignore[union-attr]
            ),
            returns=ShapeVal.from_dict(returns) if returns is not None else None,  # type: ignore[arg-type]
            return_source=str(raw.get("return_source", "")),
            path=str(raw["path"]),
        )

    def absorb(self, val: ShapeVal) -> "ShapeSummary":
        """This summary with a return shape inferred from the body."""
        if self.returns == val:
            return self
        return replace(self, returns=val, return_source="inferred")


def _dims_from_annotation_slice(node: ast.expr) -> Optional[Tuple[Dim, ...]]:
    items = list(node.elts) if isinstance(node, ast.Tuple) else [node]
    dims: List[Dim] = []
    for item in items:
        if not isinstance(item, ast.Constant):
            return None
        value = item.value
        if value is Ellipsis:
            dims.append(VARIADIC)
        elif isinstance(value, str):
            dims.append(value)
        elif isinstance(value, int) and not isinstance(value, bool):
            dims.append(value)
        else:
            return None
    return tuple(dims)


def annotation_shape(info: ModuleInfo, node: Optional[ast.AST]) -> Optional[ShapeVal]:
    """ShapeVal declared by a ``Shaped[...]`` annotation AST, if any."""
    if not isinstance(node, ast.Subscript):
        return None
    resolved = info.resolve(node.value)
    if resolved is None:
        return None
    tail = resolved.rsplit(".", 1)[-1]
    if tail not in SHAPED_FACTORIES:
        return None
    dims = _dims_from_annotation_slice(node.slice)
    if dims is None:
        return None
    return ShapeVal(dims=dims, dtype=SHAPED_FACTORIES[tail])


def seed_shape_summaries(infos: Sequence[ModuleInfo]) -> Dict[str, ShapeSummary]:
    """Initial summary table from the ``Shaped[...]`` contracts."""
    table: Dict[str, ShapeSummary] = {}
    for info in infos:
        for fn in info.functions:
            args = fn.node.args  # type: ignore[attr-defined]
            ordered = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            if fn.class_name is not None and ordered and ordered[0].arg in ("self", "cls"):
                ordered = ordered[1:]
            params = tuple(
                (arg.arg, annotation_shape(info, arg.annotation)) for arg in ordered
            )
            returns = annotation_shape(info, fn.node.returns)  # type: ignore[attr-defined]
            table[fn.qualname] = ShapeSummary(
                qualname=fn.qualname,
                params=params,
                returns=returns,
                return_source="contract" if returns is not None else "",
                path=info.path.as_posix(),
            )
    return table


def _elementwise_dtype(tag: str, dtype: Optional[str]) -> Optional[str]:
    if tag == "float":
        return FLOAT
    if tag == "bool":
        return BOOL
    if tag == "abs":
        if dtype == COMPLEX:
            return FLOAT
        return dtype
    # "keep": claim nothing for integral inputs (numpy often promotes
    # them to float64); complex/float survive.
    if dtype in (COMPLEX, FLOAT):
        return dtype
    return None


def _reduction_dtype(tag: str, dtype: Optional[str]) -> Optional[str]:
    if tag == "bool":
        return BOOL
    if tag == "int":
        return INT
    if tag == "float":
        return FLOAT
    return dtype


class _ShapeFlow(FlowBase):
    """Interprets one function (or the module top level) in order."""

    def __init__(
        self,
        info: ModuleInfo,
        analysis: ModuleAnalysis,
        summaries: Dict[str, ShapeSummary],
        methods: Dict[str, Tuple[str, ...]],
        fn: Optional[FunctionInfo],
        module_env: Optional[Dict[str, ShapeVal]] = None,
    ) -> None:
        super().__init__(info, analysis, summaries, methods, fn)
        self.module_env = module_env or {}
        self.env: Dict[str, ShapeVal] = {}
        self.return_vals: List[ShapeVal] = []
        self.declared_return: Optional[ShapeVal] = None
        if fn is not None:
            summary = summaries.get(fn.qualname)
            if summary is not None:
                for name, val in summary.params:
                    self.env[name] = val if val is not None else UNKNOWN
                if summary.return_source == "contract":
                    self.declared_return = summary.returns
            if fn.qualname in sigdb.BOUNDARY_PARAM_FUNCS:
                for name in list(self.env):
                    self.env[name] = ShapeVal(
                        self.env[name].dims, self.env[name].dtype, shared=True
                    )

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are analyzed separately (or skipped)
        if isinstance(stmt, ast.Assign):
            val = self._infer(stmt.value)
            for target in stmt.targets:
                self._bind(target, stmt.value, val, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            declared = annotation_shape(self.info, stmt.annotation)
            if stmt.value is not None:
                val = self._infer(stmt.value)
                if declared is not None:
                    self._check_contract_binding(stmt, declared, val, "binding")
                self._bind(stmt.target, stmt.value, declared or val, stmt)
            elif declared is not None and isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = declared
        elif isinstance(stmt, ast.AugAssign):
            val = self._infer(stmt.value)
            self._check_mutation_target(stmt.target, stmt, "augmented assignment")
            if isinstance(stmt.target, ast.Name):
                current = self._lookup(stmt.target.id)
                result = self._combine_arith(stmt, current, val, stmt.op)
                self.env[stmt.target.id] = result
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                val = self._infer(stmt.value)
                self.return_vals.append(val)
                self._check_return(stmt, val)
        elif isinstance(stmt, ast.Expr):
            self._infer(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._infer(stmt.test)
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.For):
            iter_val = self._infer(stmt.iter)
            self._check_unordered_iteration(stmt, iter_val)
            self._bind_loop_target(stmt.target, iter_val)
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

    def _bind(
        self, target: ast.expr, value: ast.expr, val: ShapeVal, stmt: ast.stmt
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = val
        elif isinstance(target, ast.Attribute):
            self._check_mutation_target(target, stmt, "attribute assignment")
            dotted = self.info.resolve(target)
            if dotted is not None:
                self.env[dotted] = val
        elif isinstance(target, ast.Subscript):
            self._check_mutation_target(target, stmt, "subscript assignment")
            base = self._infer(target.value)
            if base.dtype in _REAL_DTYPES and val.dtype == COMPLEX:
                self._emit(target, RULE_DOWNCAST,
                           f"storing a complex expression into a {base.dtype}-dtype "
                           f"buffer silently discards the imaginary part in "
                           f"{self._where()}; take np.abs(...) for magnitude or "
                           ".real for the in-phase component explicitly")
        elif isinstance(target, (ast.Tuple, ast.List)):
            values: List[Optional[ast.expr]]
            vals: List[ShapeVal]
            if isinstance(value, (ast.Tuple, ast.List)) and (
                len(value.elts) == len(target.elts)
            ):
                values = list(value.elts)
                vals = [self._infer(v) for v in values]
            else:
                values = [None] * len(target.elts)
                vals = [UNKNOWN] * len(target.elts)
            for sub_target, sub_value, sub_val in zip(target.elts, values, vals):
                self._bind(sub_target, sub_value or target, sub_val, stmt)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, value, UNKNOWN, stmt)

    def _bind_loop_target(self, target: ast.expr, iter_val: ShapeVal) -> None:
        element = UNKNOWN
        if iter_val.dims is not None and len(iter_val.dims) >= 1 and (
            VARIADIC not in iter_val.dims
        ):
            element = ShapeVal(iter_val.dims[1:], iter_val.dtype, shared=iter_val.shared)
        elif iter_val.shared:
            element = SHARED_UNKNOWN
        if isinstance(target, ast.Name):
            self.env[target.id] = element
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_loop_target(elt, UNKNOWN)

    def _check_mutation_target(
        self, target: ast.expr, stmt: ast.stmt, what: str
    ) -> None:
        base: Optional[ShapeVal] = None
        label = ""
        if isinstance(target, ast.Name):
            base = self._lookup(target.id)
            label = target.id
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            base = self._infer(target.value)
            label = ast.unparse(target.value) if hasattr(ast, "unparse") else "value"
        if base is not None and base.shared:
            self._emit(stmt, RULE_SHARED_MUT,
                       f"{what} mutates {label!r}, which crosses a worker/cache "
                       f"boundary and is shared across trials in {self._where()}; "
                       "copy it first (.copy()) — cache entries and parallel "
                       "payloads are read-only by contract")

    def _check_contract_binding(
        self, node: ast.AST, declared: ShapeVal, val: ShapeVal, what: str
    ) -> None:
        conflict = contract_conflict(declared.dims, val.dims)
        if conflict is not None:
            self._emit(node, RULE_CONTRACT,
                       f"{what} declares {format_dims(declared.dims)} but the "
                       f"value has shape {format_dims(val.dims)} ({conflict}) "
                       f"in {self._where()}")
        elif declared.dtype in _REAL_DTYPES and val.dtype == COMPLEX:
            self._emit(node, RULE_DOWNCAST,
                       f"{what} declares {declared.dtype} but the value is "
                       f"complex in {self._where()}; use np.abs(...) or .real "
                       "to make the downcast explicit")

    def _check_return(self, node: ast.AST, val: ShapeVal) -> None:
        declared = self.declared_return
        if self.fn is None or declared is None:
            return
        conflict = contract_conflict(declared.dims, val.dims)
        if conflict is not None:
            self._emit(node, RULE_CONTRACT,
                       f"{self.fn.name}() declares a {format_dims(declared.dims)} "
                       f"return but returns {format_dims(val.dims)} ({conflict})")
        elif declared.dtype in _REAL_DTYPES and val.dtype == COMPLEX:
            self._emit(node, RULE_DOWNCAST,
                       f"{self.fn.name}() declares a {declared.dtype} return but "
                       "returns a complex expression; np.abs(...) for magnitude "
                       "or .real for the in-phase part — the implicit cast "
                       "discards phase")

    def _check_unordered_iteration(self, stmt: ast.For, iter_val: ShapeVal) -> None:
        if iter_val.kind != "set":
            return
        reason = self._order_dependent_body(stmt.body)
        if reason is not None:
            self._emit(stmt, RULE_UNORDERED,
                       f"iteration over a set {reason} in {self._where()}; set "
                       "order is arbitrary, so the result is not reproducible "
                       "— iterate over sorted(...) instead")

    def _order_dependent_body(self, body: Sequence[ast.stmt]) -> Optional[str]:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.AugAssign):
                    return "feeds an accumulation"
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    base = node.func.value
                    if isinstance(base, ast.Name) and (
                        "rng" in base.id.lower() or base.id in ("gen", "generator")
                    ):
                        return "drives RNG draws"
                    resolved = self.info.resolve(node.func)
                    if resolved is not None and resolved.startswith("numpy.random."):
                        return "drives RNG draws"
        return None

    # -- name resolution --------------------------------------------------

    def _lookup(self, name: str) -> ShapeVal:
        if name in self.env:
            return self.env[name]
        if name in self.module_env:
            return self.module_env[name]
        resolved = self.info.aliases.get(name)
        if resolved is not None and resolved in sigdb.SCALAR_CONSTANTS:
            return ShapeVal((), sigdb.SCALAR_CONSTANTS[resolved])
        return UNKNOWN

    # -- expression inference ---------------------------------------------

    def _infer(self, node: ast.expr) -> ShapeVal:
        if isinstance(node, ast.Constant):
            value = node.value
            if isinstance(value, bool):
                return SCALAR_BOOL
            if isinstance(value, int):
                return SCALAR_INT
            if isinstance(value, float):
                return SCALAR_FLOAT
            if isinstance(value, complex):
                return SCALAR_COMPLEX
            return UNKNOWN
        if isinstance(node, ast.Name):
            return self._lookup(node.id)
        if isinstance(node, ast.Attribute):
            return self._infer_attribute(node)
        if isinstance(node, ast.UnaryOp):
            operand = self._infer(node.operand)
            if isinstance(node.op, ast.Not):
                return ShapeVal(operand.dims, BOOL)
            return operand.without_taint() if not operand.shared else operand
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node)
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, ast.Compare):
            return self._infer_compare(node)
        if isinstance(node, ast.BoolOp):
            for child in node.values:
                self._infer(child)
            return UNKNOWN
        if isinstance(node, ast.IfExp):
            self._infer(node.test)
            a = self._infer(node.body)
            b = self._infer(node.orelse)
            if a == b:
                return a
            return ShapeVal(shared=a.shared or b.shared)
        if isinstance(node, ast.Subscript):
            return self._infer_subscript(node)
        if isinstance(node, (ast.Set, ast.SetComp)):
            if isinstance(node, ast.Set):
                for elt in node.elts:
                    self._infer(elt)
            return SET_VAL
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                self._infer(elt)
            return UNKNOWN
        if isinstance(node, ast.Starred):
            self._infer(node.value)
            return UNKNOWN
        if isinstance(node, ast.NamedExpr):
            val = self._infer(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = val
            return val
        return UNKNOWN

    def _infer_attribute(self, node: ast.Attribute) -> ShapeVal:
        resolved = self.info.resolve(node)
        if resolved is not None:
            if resolved in sigdb.SCALAR_CONSTANTS:
                return ShapeVal((), sigdb.SCALAR_CONSTANTS[resolved])
            if resolved in self.env:
                return self.env[resolved]
            if resolved in self.module_env:
                return self.module_env[resolved]
        base = self._infer(node.value)
        attr = node.attr
        if attr == "T":
            dims = None
            if base.dims is not None and VARIADIC not in base.dims:
                dims = tuple(reversed(base.dims))
            return ShapeVal(dims, base.dtype, shared=base.shared)
        if attr in ("real", "imag"):
            dtype = FLOAT if base.dtype == COMPLEX else base.dtype
            return ShapeVal(base.dims, dtype, shared=base.shared)
        if attr in ("size", "ndim", "itemsize", "nbytes"):
            return SCALAR_INT
        # Attributes of a shared object (cache-entry fields like
        # response.taps) are views into the shared state.
        return ShapeVal(shared=base.shared)

    def _infer_binop(self, node: ast.BinOp) -> ShapeVal:
        left = self._infer(node.left)
        right = self._infer(node.right)
        return self._combine_arith(node, left, right, node.op)

    def _combine_arith(
        self, node: ast.AST, left: ShapeVal, right: ShapeVal, op: ast.operator
    ) -> ShapeVal:
        if isinstance(op, ast.MatMult):
            return self._matmul(node, left, right)
        if not isinstance(op, _ARITH_OPS + _BIT_OPS + (ast.LShift, ast.RShift)):
            return UNKNOWN
        dims, conflict = broadcast_dims(left.dims, right.dims)
        if conflict is not None:
            self._emit(node, RULE_BROADCAST,
                       f"elementwise arithmetic on incompatible shapes "
                       f"{format_dims(left.dims)} and {format_dims(right.dims)} "
                       f"(dim {conflict[0]!r} vs {conflict[1]!r}) in "
                       f"{self._where()}; a reduction feeding this usually "
                       "needs keepdims=True (or an explicit [:, None])")
            return UNKNOWN
        dtype = promote_dtype(left.dtype, right.dtype)
        if isinstance(op, ast.Div) and dtype == INT:
            dtype = FLOAT
        if isinstance(op, _BIT_OPS) and left.dtype == BOOL and right.dtype == BOOL:
            dtype = BOOL
        return ShapeVal(dims, dtype)

    def _matmul(self, node: ast.AST, left: ShapeVal, right: ShapeVal) -> ShapeVal:
        dtype = promote_dtype(left.dtype, right.dtype)
        a, b = left.dims, right.dims
        if (
            a is None or b is None or VARIADIC in a or VARIADIC in b
            or len(a) < 2 or len(b) < 2
        ):
            return ShapeVal(None, dtype)
        if dims_conflict(a[-1], b[-2]):
            self._emit(node, RULE_BROADCAST,
                       f"matmul contracts dim {a[-1]!r} of {format_dims(a)} "
                       f"against dim {b[-2]!r} of {format_dims(b)} in "
                       f"{self._where()}; the inner dimensions disagree")
            return ShapeVal(None, dtype)
        batch, conflict = broadcast_dims(a[:-2], b[:-2])
        if conflict is not None or batch is None:
            return ShapeVal(None, dtype)
        return ShapeVal(batch + (a[-2], b[-1]), dtype)

    def _infer_compare(self, node: ast.Compare) -> ShapeVal:
        operands = [node.left] + list(node.comparators)
        vals = [self._infer(operand) for operand in operands]
        if not all(isinstance(op, _ARRAY_CMP) for op in node.ops):
            return ShapeVal(None, BOOL)
        if any(isinstance(op, _ORDERED_CMP) for op in node.ops):
            for operand, val in zip(operands, vals):
                if val.dtype == COMPLEX:
                    self._emit(node, RULE_DOWNCAST,
                               f"ordered comparison on a complex value in "
                               f"{self._where()}; complex numbers are "
                               "unordered — compare np.abs(...) or .real "
                               "explicitly")
                    break
        dims = vals[0].dims
        for val in vals[1:]:
            dims, conflict = broadcast_dims(dims, val.dims)
            if conflict is not None:
                self._emit(node, RULE_BROADCAST,
                           f"comparison broadcasts incompatible shapes "
                           f"(dim {conflict[0]!r} vs {conflict[1]!r}) in "
                           f"{self._where()}")
                return ShapeVal(None, BOOL)
        return ShapeVal(dims, BOOL)

    def _infer_subscript(self, node: ast.Subscript) -> ShapeVal:
        base = self._infer(node.value)
        items = (
            list(node.slice.elts) if isinstance(node.slice, ast.Tuple) else [node.slice]
        )
        known = base.dims is not None and VARIADIC not in (base.dims or ())
        out: List[Dim] = []
        pos = 0
        advanced = not known
        for item in items:
            if isinstance(item, ast.Slice):
                for bound in (item.lower, item.upper, item.step):
                    if bound is not None:
                        self._infer(bound)
                if advanced:
                    continue
                if pos >= len(base.dims):  # type: ignore[arg-type]
                    advanced = True
                    continue
                full = item.lower is None and item.upper is None and item.step is None
                out.append(base.dims[pos] if full else UNKNOWN_DIM)  # type: ignore[index]
                pos += 1
            elif isinstance(item, ast.Constant) and item.value is None:
                if not advanced:
                    out.append(1)
            elif (
                isinstance(item, ast.Constant)
                and isinstance(item.value, int)
                and not isinstance(item.value, bool)
            ):
                if advanced:
                    continue
                if pos >= len(base.dims):  # type: ignore[arg-type]
                    advanced = True
                    continue
                pos += 1  # this dimension is dropped
            else:
                if not isinstance(item, ast.Constant):
                    self._infer(item)
                advanced = True
        if advanced:
            return ShapeVal(None, base.dtype, shared=base.shared)
        out.extend(base.dims[pos:])  # type: ignore[index]
        return ShapeVal(tuple(out), base.dtype, shared=base.shared)

    # -- calls ------------------------------------------------------------

    def _infer_call(self, node: ast.Call) -> ShapeVal:
        arg_vals = [
            self._infer(arg) for arg in node.args if not isinstance(arg, ast.Starred)
        ]
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                self._infer(arg.value)
        kw_vals: Dict[str, ShapeVal] = {}
        for kw in node.keywords:
            inferred = self._infer(kw.value)
            if kw.arg is not None:
                kw_vals[kw.arg] = inferred
        resolved = self.info.resolve(node.func)
        if not isinstance(node.func, (ast.Name, ast.Attribute)):
            self._infer(node.func)
        first = arg_vals[0] if arg_vals else UNKNOWN

        handled = self._infer_known_call(node, resolved, first, arg_vals, kw_vals)
        if handled is not None:
            return handled

        summary = self._resolve_summary(node, resolved)
        if summary is not None:
            self._check_call_args(node, summary, arg_vals, kw_vals)
            if summary.returns is not None:
                return summary.returns.without_taint() if not summary.returns.shared else summary.returns
            return UNKNOWN

        if isinstance(node.func, ast.Attribute):
            return self._infer_method_call(node, node.func, arg_vals, kw_vals)
        return UNKNOWN

    def _infer_known_call(
        self,
        node: ast.Call,
        resolved: Optional[str],
        first: ShapeVal,
        arg_vals: List[ShapeVal],
        kw_vals: Dict[str, ShapeVal],
    ) -> Optional[ShapeVal]:
        """Builtins + the curated numpy surface; None when unhandled."""
        if resolved is None:
            return None
        if resolved in ("float", "int"):
            if first.dtype == COMPLEX:
                self._emit(node, RULE_DOWNCAST,
                           f"{resolved}() on a complex value discards the "
                           f"imaginary part in {self._where()}; use abs() for "
                           "magnitude or .real for the real component")
            return ShapeVal((), FLOAT if resolved == "float" else INT)
        if resolved == "complex":
            return SCALAR_COMPLEX
        if resolved == "bool":
            return SCALAR_BOOL
        if resolved == "len":
            return SCALAR_INT
        if resolved == "abs":
            return ShapeVal(first.dims, _elementwise_dtype("abs", first.dtype))
        if resolved == "range":
            return ShapeVal((UNKNOWN_DIM,), INT)
        if resolved in sigdb.SET_CALLS:
            return SET_VAL
        if resolved in sigdb.ORDERING_CALLS:
            return UNKNOWN
        if resolved in ("sum", "math.fsum"):
            is_set_arg = first.kind == "set" or (
                node.args and isinstance(node.args[0], (ast.Set, ast.SetComp))
            )
            if is_set_arg:
                self._emit(node, RULE_UNORDERED,
                           f"{resolved.rsplit('.', 1)[-1]}() over a set in "
                           f"{self._where()}; float accumulation is "
                           "order-sensitive and set order is arbitrary — "
                           "sum over sorted(...) instead")
            return UNKNOWN
        if isinstance(node.func, ast.Attribute) and node.func.attr == "at":
            owner = self.info.resolve(node.func.value)
            if owner in sigdb.AT_UFUNCS and first.shared:
                self._emit(node, RULE_SHARED_MUT,
                           f"{owner}.at() mutates its first argument in place, "
                           f"but that array crosses a worker/cache boundary in "
                           f"{self._where()}; operate on a copy")
            return UNKNOWN if owner in sigdb.AT_UFUNCS else None
        if resolved in sigdb.BOUNDARY_CALLS:
            self.analysis.refs.add(resolved)
            return SHARED_UNKNOWN
        if resolved in sigdb.SHAPE_CONSTRUCTORS:
            dims = self._ctor_dims(node.args[0]) if node.args else None
            dtype = self._dtype_kw(node, default=sigdb.SHAPE_CONSTRUCTORS[resolved])
            if resolved == "numpy.full" and dtype is None and len(arg_vals) >= 2:
                dtype = arg_vals[1].dtype
            return ShapeVal(dims, dtype)
        if resolved in sigdb.LIKE_CONSTRUCTORS:
            return ShapeVal(first.dims, self._dtype_kw(node, default=first.dtype))
        if resolved in sigdb.RANGE_CONSTRUCTORS:
            default = sigdb.RANGE_CONSTRUCTORS[resolved]
            dtype = self._dtype_kw(node, default=None)
            if dtype is None:
                if resolved == "numpy.arange":
                    seen = {v.dtype for v in arg_vals}
                    dtype = FLOAT if FLOAT in seen else (INT if seen == {INT} else None)
                else:
                    dtype = default
            return ShapeVal((UNKNOWN_DIM,), dtype)
        if resolved in sigdb.PASSTHROUGH_CALLS:
            return ShapeVal(first.dims, self._dtype_kw(node, default=first.dtype))
        if resolved in sigdb.ELEMENTWISE:
            tag = sigdb.ELEMENTWISE[resolved]
            return ShapeVal(first.dims, _elementwise_dtype(tag, first.dtype))
        if resolved in sigdb.FFT_CALLS:
            if resolved.endswith("fftfreq"):
                return ShapeVal((UNKNOWN_DIM,), FLOAT)
            dims = first.dims
            if (len(node.args) >= 2 or "n" in kw_vals) and dims is not None and (
                VARIADIC not in dims
            ) and len(dims) >= 1:
                dims = dims[:-1] + (UNKNOWN_DIM,)
            return ShapeVal(dims, sigdb.FFT_CALLS[resolved])
        if resolved in sigdb.BROADCAST_CALLS:
            operands = arg_vals if resolved != "numpy.where" else arg_vals[:3]
            if resolved == "numpy.where" and len(operands) < 3:
                return UNKNOWN
            dims = operands[0].dims if operands else None
            for val in operands[1:]:
                dims, conflict = broadcast_dims(dims, val.dims)
                if conflict is not None:
                    self._emit(node, RULE_BROADCAST,
                               f"{resolved}() broadcasts incompatible shapes "
                               f"(dim {conflict[0]!r} vs {conflict[1]!r}) in "
                               f"{self._where()}; a reduction feeding this "
                               "usually needs keepdims=True")
                    return UNKNOWN
            if resolved in ("numpy.arctan2", "numpy.hypot"):
                dtype: Optional[str] = FLOAT
            elif resolved == "numpy.where":
                dtype = promote_dtype(operands[1].dtype, operands[2].dtype)
            else:
                dtype = None
                for val in operands:
                    dtype = val.dtype if dtype is None else promote_dtype(dtype, val.dtype)
                if resolved in ("numpy.divide", "numpy.true_divide") and dtype == INT:
                    dtype = FLOAT
            return ShapeVal(dims, dtype)
        if resolved == "numpy.transpose":
            dims = None
            if first.dims is not None and VARIADIC not in first.dims and (
                len(node.args) < 2 and "axes" not in kw_vals
            ):
                dims = tuple(reversed(first.dims))
            return ShapeVal(dims, first.dtype)
        if resolved == "numpy.reshape":
            dims = self._reshape_dims(node.args[1:]) if len(node.args) >= 2 else None
            return ShapeVal(dims, first.dtype)
        if resolved == "numpy.einsum":
            return self._einsum(node, arg_vals)
        if resolved.startswith("numpy."):
            tail = resolved.rsplit(".", 1)[-1]
            if tail in sigdb.REDUCTIONS:
                axis = self._call_operand(node, position=1, keyword="axis")
                keepdims = self._call_operand(node, position=None, keyword="keepdims")
                return self._reduce(node, tail, first, axis, keepdims)
        return None

    def _infer_method_call(
        self,
        node: ast.Call,
        func: ast.Attribute,
        arg_vals: List[ShapeVal],
        kw_vals: Dict[str, ShapeVal],
    ) -> ShapeVal:
        base = self._infer(func.value)
        attr = func.attr
        if attr in sigdb.MUTATING_METHODS and base.shared:
            label = ast.unparse(func.value) if hasattr(ast, "unparse") else "value"
            self._emit(node, RULE_SHARED_MUT,
                       f".{attr}() mutates {label!r} in place, but it crosses "
                       f"a worker/cache boundary and is shared across trials "
                       f"in {self._where()}; operate on a copy")
            return UNKNOWN
        if attr == "copy":
            return base.without_taint()
        if attr == "astype":
            dtype = None
            if node.args:
                dtype = self._dtype_of_node(node.args[0])
            elif "dtype" in kw_vals:
                dtype = self._dtype_kw(node, default=None)
            return ShapeVal(base.dims, dtype)
        if attr in ("conj", "conjugate"):
            return ShapeVal(base.dims, base.dtype)
        if attr == "reshape":
            args = node.args
            if len(args) == 1 and isinstance(args[0], ast.Tuple):
                args = args[0].elts
            return ShapeVal(self._reshape_dims(args), base.dtype)
        if attr == "transpose":
            dims = None
            if base.dims is not None and VARIADIC not in base.dims and not node.args:
                dims = tuple(reversed(base.dims))
            return ShapeVal(dims, base.dtype)
        if attr == "item":
            return ShapeVal((), base.dtype)
        if attr in sigdb.REDUCTIONS and base.dims is not None:
            axis = self._call_operand(node, position=0, keyword="axis")
            keepdims = self._call_operand(node, position=None, keyword="keepdims")
            return self._reduce(node, attr, base, axis, keepdims)
        return UNKNOWN

    # -- call helpers -----------------------------------------------------

    @staticmethod
    def _call_operand(
        node: ast.Call, position: Optional[int], keyword: str
    ) -> object:
        for kw in node.keywords:
            if kw.arg == keyword:
                return kw.value
        if position is not None and len(node.args) > position:
            return node.args[position]
        return _MISSING

    def _reduce(
        self,
        node: ast.Call,
        name: str,
        base: ShapeVal,
        axis: object,
        keepdims: object,
    ) -> ShapeVal:
        dtype = _reduction_dtype(sigdb.REDUCTIONS[name], base.dtype)
        dims = base.dims
        if dims is None or VARIADIC in dims:
            return ShapeVal(None, dtype)
        rank = len(dims)
        if axis is _MISSING:
            if rank >= 2 and isinstance(dims[0], str) and dims[0] != UNKNOWN_DIM:
                self._emit(node, RULE_REDUCTION,
                           f"{name}() without axis= collapses the whole "
                           f"{format_dims(dims)} block — including the "
                           f"{dims[0]!r} batch dimension — in {self._where()}; "
                           "pass axis=... (or an explicit axis=None if the "
                           "full collapse is intended)")
            return ShapeVal((), dtype)
        if isinstance(axis, ast.Constant) and axis.value is None:
            return ShapeVal((), dtype)
        axes: List[int] = []
        if isinstance(axis, ast.Constant) and isinstance(axis.value, int):
            axes = [axis.value]
        elif isinstance(axis, ast.UnaryOp) and isinstance(axis.op, ast.USub) and (
            isinstance(axis.operand, ast.Constant)
            and isinstance(axis.operand.value, int)
        ):
            axes = [-axis.operand.value]
        elif isinstance(axis, ast.Tuple) and all(
            isinstance(e, ast.Constant) and isinstance(e.value, int)
            for e in axis.elts
        ):
            axes = [e.value for e in axis.elts]  # type: ignore[union-attr]
        else:
            return ShapeVal(None, dtype)
        resolved_axes = set()
        for ax in axes:
            actual = ax if ax >= 0 else rank + ax
            if actual < 0 or actual >= rank:
                self._emit(node, RULE_REDUCTION,
                           f"{name}(axis={ax}) is out of range for the rank-"
                           f"{rank} array {format_dims(dims)} in {self._where()}")
                return ShapeVal(None, dtype)
            resolved_axes.add(actual)
        keep = (
            isinstance(keepdims, ast.Constant) and keepdims.value is True
        )
        out: List[Dim] = []
        for i, d in enumerate(dims):
            if i in resolved_axes:
                if keep:
                    out.append(1)
            else:
                out.append(d)
        return ShapeVal(tuple(out), dtype)

    def _ctor_dims(self, node: ast.expr) -> Optional[Tuple[Dim, ...]]:
        items = list(node.elts) if isinstance(node, (ast.Tuple, ast.List)) else [node]
        dims: List[Dim] = []
        for item in items:
            if (
                isinstance(item, ast.Constant)
                and isinstance(item.value, int)
                and not isinstance(item.value, bool)
            ):
                dims.append(item.value)
            else:
                dims.append(UNKNOWN_DIM)
        return tuple(dims)

    def _reshape_dims(self, args: Sequence[ast.expr]) -> Optional[Tuple[Dim, ...]]:
        if not args:
            return None
        dims: List[Dim] = []
        for arg in args:
            if (
                isinstance(arg, ast.Constant)
                and isinstance(arg.value, int)
                and not isinstance(arg.value, bool)
                and arg.value >= 0
            ):
                dims.append(arg.value)
            else:
                dims.append(UNKNOWN_DIM)
        return tuple(dims)

    def _einsum(self, node: ast.Call, arg_vals: List[ShapeVal]) -> ShapeVal:
        dtype = None
        for val in arg_vals[1:]:
            dtype = val.dtype if dtype is None else promote_dtype(dtype, val.dtype)
        spec = node.args[0] if node.args else None
        if not (isinstance(spec, ast.Constant) and isinstance(spec.value, str)):
            return ShapeVal(None, dtype)
        subscripts = spec.value.replace(" ", "")
        if "->" not in subscripts:
            return ShapeVal(None, dtype)
        output = subscripts.split("->", 1)[1]
        if "." in output:
            return ShapeVal(None, dtype)
        return ShapeVal(tuple(UNKNOWN_DIM for _ in output), dtype)

    def _dtype_of_node(self, node: ast.expr) -> Optional[str]:
        resolved = self.info.resolve(node)
        if resolved is not None:
            return sigdb.DTYPE_NAMES.get(resolved)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            value = node.value
            for name, dtype in sigdb.DTYPE_NAMES.items():
                if name.rsplit(".", 1)[-1] == value:
                    return dtype
        return None

    def _dtype_kw(self, node: ast.Call, default: Optional[str]) -> Optional[str]:
        for kw in node.keywords:
            if kw.arg == "dtype":
                return self._dtype_of_node(kw.value)
        return default

    def _check_call_args(
        self,
        node: ast.Call,
        summary: ShapeSummary,
        arg_vals: List[ShapeVal],
        kw_vals: Dict[str, ShapeVal],
    ) -> None:
        params = list(summary.params)
        by_name = dict(params)
        callee = summary.qualname.rsplit(".", 1)[-1]
        for i, val in enumerate(arg_vals):
            if i >= len(params):
                break
            self._flag_arg(node, callee, params[i][0], params[i][1], val)
        for name, val in sorted(kw_vals.items()):
            if name in by_name:
                self._flag_arg(node, callee, name, by_name[name], val)

    def _flag_arg(
        self,
        node: ast.Call,
        callee: str,
        param: str,
        declared: Optional[ShapeVal],
        actual: ShapeVal,
    ) -> None:
        if declared is None:
            return
        conflict = contract_conflict(declared.dims, actual.dims)
        if conflict is not None:
            self._emit(node, RULE_CONTRACT,
                       f"call to {callee}() passes {format_dims(actual.dims)} "
                       f"for parameter {param!r} which declares "
                       f"{format_dims(declared.dims)} ({conflict}) in "
                       f"{self._where()}")
            return
        if declared.dtype in _REAL_DTYPES and actual.dtype == COMPLEX:
            self._emit(node, RULE_DOWNCAST,
                       f"call to {callee}() passes a complex value for "
                       f"parameter {param!r} which declares {declared.dtype} "
                       f"in {self._where()}; np.abs(...) or .real makes the "
                       "downcast explicit")


def analyze_shape_module(
    info: ModuleInfo,
    summaries: Dict[str, ShapeSummary],
    methods: Dict[str, Tuple[str, ...]],
) -> ModuleAnalysis:
    """One engine pass over one module with the given summary table."""
    analysis = ModuleAnalysis()
    module_flow = _ShapeFlow(info, analysis, summaries, methods, fn=None)
    module_flow.run(info.tree.body)
    module_env = dict(module_flow.env)
    for fn in info.functions:
        flow = _ShapeFlow(
            info, analysis, summaries, methods, fn=fn, module_env=module_env
        )
        flow.run(getattr(fn.node, "body", []))
        summary = summaries.get(fn.qualname)
        if summary is not None and summary.return_source != "contract":
            inferred = _merge_returns(flow.return_vals)
            if inferred is not None:
                analysis.inferred[fn.qualname] = inferred
    analysis.findings.sort()
    return analysis


def _merge_returns(vals: Sequence[ShapeVal]) -> Optional[ShapeVal]:
    """Join of all return values; None unless something is known."""
    if not vals:
        return None
    dims = vals[0].dims
    dtype = vals[0].dtype
    shared = all(v.shared for v in vals)
    for val in vals[1:]:
        if val.dims != dims:
            dims = None
        if val.dtype != dtype:
            dtype = None
    if dims is None and dtype is None and not shared:
        return None
    return ShapeVal(dims, dtype, shared=shared)

