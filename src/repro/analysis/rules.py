"""The project-specific lint rules (``VAB001`` .. ``VAB005``).

These encode the invariants the reproduction's headline guarantees rest
on — determinism of the campaign engine, unit discipline in the physics,
and a typed public API:

* **VAB001** — unseeded RNG in library code. Every stochastic entry
  point must thread an explicit ``np.random.Generator``; the documented
  fallback is :func:`repro.rng.fallback_rng`, never a bare
  ``np.random.default_rng()`` or legacy ``np.random.*`` global state.
* **VAB002** — generator construction inside loop bodies (per-trial hot
  paths). Generators are derived once from centralized seeds
  (``TrialCampaign.trial_seeds``) and threaded in; constructing them
  per-iteration hides the seeding contract and costs time under spans.
* **VAB003** — unit-suffix hygiene: dB/linear, Hz/rad, m/km mixing, and
  dB-valued expressions bound to names not marked ``_db``.
* **VAB004** — wall-clock reads (``time.time``, ``datetime.now``) in
  simulation code. Wall time is telemetry; it lives in :mod:`repro.obs`
  (exempt) so physics stays replayable.
* **VAB005** — API hygiene: mutable default arguments anywhere, and
  missing type annotations on the public surface.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.registry import FileContext, Rule, register

RNG_FACTORY = "numpy.random.default_rng"

LEGACY_RANDOM_CALLS = {
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "gamma", "geometric", "gumbel", "laplace", "logistic",
    "lognormal", "multinomial", "multivariate_normal", "normal",
    "permutation", "poisson", "rand", "randint", "randn", "random",
    "random_integers", "random_sample", "ranf", "rayleigh", "sample",
    "seed", "shuffle", "standard_cauchy", "standard_exponential",
    "standard_gamma", "standard_normal", "standard_t", "triangular",
    "uniform", "vonmises", "wald", "weibull", "zipf",
}
"""numpy legacy global-state API: nondeterministic unless globally seeded."""

GENERATOR_CONSTRUCTORS = {
    RNG_FACTORY,
    "numpy.random.Generator",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "numpy.random.MT19937",
    "numpy.random.SFC64",
}

WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

LOG10_CALLS = {"math.log10", "numpy.log10"}

DB_SUFFIXES = ("_db", "_dbm")
"""Name endings that mark a decibel-valued quantity."""

CONFLICTING_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("db", "lin"),
    ("hz", "rad"),
    ("m", "km"),
    ("deg", "rad"),
    ("s", "ms"),
)
"""Unit families that must not meet in additive arithmetic."""

_SUFFIX_TOKENS = {s for pair in CONFLICTING_SUFFIXES for s in pair}


def _terminal_names(node: ast.AST) -> Iterator[str]:
    """Identifiers carrying unit suffixes inside an expression.

    Yields plain names, the final attribute of attribute chains, and the
    names of called functions — anything whose trailing ``_db``-style
    token marks the unit of the value it stands for.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _unit_suffix(name: str) -> Optional[str]:
    """The trailing unit token of ``name`` (``snr_db`` -> ``db``)."""
    token = name.rsplit("_", 1)[-1].lower()
    if token != name.lower() and token in _SUFFIX_TOKENS:
        return token
    return None


def _is_db_marked(name: str) -> bool:
    """True when the name declares a decibel quantity.

    Accepts trailing markers (``snr_db``), mid-name markers with a
    per-unit tail (``alpha_db_per_km``, ``loss_db_per_bounce``), and the
    bare conversion-helper spellings ``db``/``dbm``.
    """
    lowered = name.lower()
    return (
        lowered.endswith(DB_SUFFIXES)
        or "_db_" in lowered
        or lowered in ("db", "dbm")
    )


def _constant_value(node: ast.AST) -> Optional[float]:
    """Numeric literal value, seeing through unary minus; else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _constant_value(node.operand)
        return None if inner is None else -inner
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value)
    return None


@register
class UnseededRngRule(Rule):
    """VAB001: unseeded or legacy global-state RNG in library code."""

    rule_id = "VAB001"
    name = "unseeded-rng"
    summary = (
        "library code must thread an explicit np.random.Generator; "
        "no unseeded default_rng() and no legacy np.random.* global state"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved is None:
                continue
            if resolved == RNG_FACTORY and not node.args and not node.keywords:
                yield ctx.finding(
                    self, node,
                    "unseeded np.random.default_rng(); thread an explicit "
                    "Generator or use repro.rng.fallback_rng()",
                )
            elif (
                resolved.startswith("numpy.random.")
                and resolved.rsplit(".", 1)[-1] in LEGACY_RANDOM_CALLS
            ):
                yield ctx.finding(
                    self, node,
                    f"legacy global-state call {resolved}(); "
                    "use a threaded np.random.Generator",
                )


@register
class RngInLoopRule(Rule):
    """VAB002: RNG constructed inside a loop body / per-trial hot path."""

    rule_id = "VAB002"
    name = "rng-in-loop"
    summary = (
        "derive all generators up front (e.g. from TrialCampaign.trial_seeds) "
        "and thread them; do not construct Generators inside loop bodies"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        rule = self

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                self.loop_depth = 0
                self.found: List[Finding] = []

            def _visit_loop(self, node: ast.AST) -> None:
                self.loop_depth += 1
                self.generic_visit(node)
                self.loop_depth -= 1

            visit_For = _visit_loop
            visit_While = _visit_loop

            def visit_Call(self, node: ast.Call) -> None:
                resolved = ctx.resolve(node.func)
                if self.loop_depth and resolved in GENERATOR_CONSTRUCTORS:
                    self.found.append(ctx.finding(
                        rule, node,
                        f"{resolved.rsplit('.', 1)[-1]}() constructed inside "
                        "a loop body; hoist generator construction out of "
                        "the hot path and thread it as a parameter",
                    ))
                self.generic_visit(node)

        visitor = Visitor()
        visitor.visit(ctx.tree)
        yield from visitor.found


@register
class UnitSuffixRule(Rule):
    """VAB003: unit-suffix arithmetic and naming mismatches."""

    rule_id = "VAB003"
    name = "unit-suffix-mismatch"
    summary = (
        "dB/linear, Hz/rad, m/km quantities must not meet in additive "
        "arithmetic; dB-valued expressions must bind to *_db names"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_double_db(ctx, node)
            elif isinstance(node, ast.Assign):
                yield from self._check_db_binding(ctx, node)
            elif isinstance(node, ast.BinOp):
                if isinstance(node.op, (ast.Add, ast.Sub)):
                    yield from self._check_suffix_conflict(ctx, node)
                elif isinstance(node.op, ast.Pow):
                    yield from self._check_db_to_linear(ctx, node)

    def _check_double_db(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        """``log10`` applied to an already-dB quantity."""
        if ctx.resolve(node.func) not in LOG10_CALLS or not node.args:
            return
        for name in _terminal_names(node.args[0]):
            if _is_db_marked(name):
                yield ctx.finding(
                    self, node,
                    f"log10 applied to dB-marked quantity {name!r} "
                    "(double dB conversion)",
                )
                return

    def _check_db_binding(self, ctx: FileContext, node: ast.Assign) -> Iterator[Finding]:
        """``x = 20 * log10(...)`` must bind to a ``*_db`` name."""
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            return
        target = node.targets[0].id
        if _is_db_marked(target) or not self._is_db_expression(ctx, node.value):
            return
        yield ctx.finding(
            self, node,
            f"dB-valued expression assigned to {target!r}; "
            f"name it {target}_db (unit suffix discipline)",
        )

    def _is_db_expression(self, ctx: FileContext, node: ast.AST) -> bool:
        """Does the expression contain a ``10|20 * log10(...)`` term?"""
        for sub in ast.walk(node):
            if not (isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult)):
                continue
            for factor, other in ((sub.left, sub.right), (sub.right, sub.left)):
                if _constant_value(factor) in (10.0, 20.0) and any(
                    isinstance(c, ast.Call) and ctx.resolve(c.func) in LOG10_CALLS
                    for c in ast.walk(other)
                ):
                    return True
        return False

    def _check_db_to_linear(self, ctx: FileContext, node: ast.BinOp) -> Iterator[Finding]:
        """``10 ** (x / 10|20)`` where nothing in ``x`` is dB-marked."""
        if _constant_value(node.left) != 10.0:
            return
        exponent = node.right
        if isinstance(exponent, ast.UnaryOp) and isinstance(exponent.op, ast.USub):
            exponent = exponent.operand
        if not (isinstance(exponent, ast.BinOp) and isinstance(exponent.op, ast.Div)):
            return
        if _constant_value(exponent.right) not in (10.0, 20.0):
            return
        names = list(_terminal_names(exponent.left))
        if names and not any(_is_db_marked(n) for n in names):
            yield ctx.finding(
                self, node,
                "dB-to-linear conversion 10**(x/{:d}) applied to {!r}, which "
                "is not marked _db".format(int(_constant_value(exponent.right)),
                                           names[0]),
            )

    def _check_suffix_conflict(self, ctx: FileContext, node: ast.BinOp) -> Iterator[Finding]:
        """``a_db + b_lin``-style additive mixing of unit families."""
        left = self._operand_suffixes(node.left)
        right = self._operand_suffixes(node.right)
        for a, b in CONFLICTING_SUFFIXES:
            if (a in left and b in right) or (b in left and a in right):
                yield ctx.finding(
                    self, node,
                    f"additive arithmetic mixes _{a} and _{b} quantities; "
                    "convert to one unit first",
                )
                return

    @staticmethod
    def _operand_suffixes(node: ast.AST) -> Set[str]:
        """Unit tokens present among an operand's *direct* value names.

        Only names at the top of the operand (not buried inside calls,
        whose return units differ from their arguments') count.
        """
        suffixes: Set[str] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, ast.Name):
                token = _unit_suffix(current.id)
                if token:
                    suffixes.add(token)
            elif isinstance(current, ast.Attribute):
                token = _unit_suffix(current.attr)
                if token:
                    suffixes.add(token)
            elif isinstance(current, ast.BinOp):
                stack.extend([current.left, current.right])
            elif isinstance(current, ast.UnaryOp):
                stack.append(current.operand)
        return suffixes


@register
class WallClockRule(Rule):
    """VAB004: wall-clock reads outside the telemetry layer."""

    rule_id = "VAB004"
    name = "wall-clock-in-sim"
    summary = (
        "time.time/datetime.now make simulation state depend on when it "
        "runs; wall-clock reads belong in repro.obs (exempt)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if "obs" in ctx.path_parts:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved in WALL_CLOCK_CALLS:
                yield ctx.finding(
                    self, node,
                    f"wall-clock read {resolved}() outside repro.obs; "
                    "route timestamps through the telemetry layer "
                    "(repro.obs.manifest.wall_clock_unix)",
                )


@register
class ApiHygieneRule(Rule):
    """VAB005: mutable defaults and missing public type annotations."""

    rule_id = "VAB005"
    name = "api-hygiene"
    summary = (
        "no mutable default arguments; public repro.* functions and "
        "methods carry full parameter and return annotations"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_mutable_defaults(ctx, node)
        yield from self._walk_body(ctx, ctx.tree.body, public_scope=True)

    def _walk_body(
        self, ctx: FileContext, body: Sequence[ast.stmt], public_scope: bool
    ) -> Iterator[Finding]:
        """Annotation checks on the public surface (nested defs exempt)."""
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from self._walk_body(
                    ctx, node.body,
                    public_scope=public_scope and not node.name.startswith("_"),
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                private = node.name.startswith("_")
                if public_scope and not private and not dunder:
                    yield from self._check_annotations(ctx, node)

    def _check_mutable_defaults(
        self, ctx: FileContext, node: ast.FunctionDef
    ) -> Iterator[Finding]:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in {"list", "dict", "set", "bytearray"}
            )
            if mutable:
                yield ctx.finding(
                    self, default,
                    f"mutable default argument in {node.name}(); "
                    "default to None and construct inside the body",
                )

    def _check_annotations(
        self, ctx: FileContext, node: ast.FunctionDef
    ) -> Iterator[Finding]:
        decorators = {
            name.rsplit(".", 1)[-1]
            for name in (ctx.resolve(d) for d in node.decorator_list)
            if name is not None
        }
        args = list(node.args.posonlyargs) + list(node.args.args)
        if args and args[0].arg in ("self", "cls") and "staticmethod" not in decorators:
            args = args[1:]
        missing = [a.arg for a in args + list(node.args.kwonlyargs)
                   if a.annotation is None]
        if node.returns is None:
            missing.append("return")
        if missing:
            yield ctx.finding(
                self, node,
                f"public function {node.name}() missing type annotations "
                f"for: {', '.join(missing)}",
            )

