"""Rule registry and the per-file context rules run against.

A rule is a class with a ``rule_id`` (``VABxxx``), a one-line
``summary``, and a ``check(ctx)`` generator yielding
:class:`~repro.analysis.findings.Finding` objects. Registering is one
decorator::

    @register
    class MyRule(Rule):
        rule_id = "VAB042"
        name = "no-spherical-cows"
        summary = "reject frictionless approximations"

        def check(self, ctx: FileContext) -> Iterator[Finding]:
            ...

The linter instantiates every registered rule once per process and runs
each against every file's :class:`FileContext` — parsed AST, source
lines, and an import-alias map that lets rules resolve dotted call names
(``nr.default_rng`` -> ``numpy.random.default_rng``) without guessing
at aliasing conventions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Type

from repro.analysis.findings import Finding


@dataclass
class FileContext:
    """Everything a rule may inspect about one file.

    Attributes:
        path: the file's path as reported in findings.
        source: full module source.
        tree: parsed ``ast`` module.
        lines: source split into lines (1-based access via index-1).
        aliases: local name -> fully qualified module/symbol, built from
            the module's import statements.
    """

    path: Path
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    aliases: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, source: str) -> "FileContext":
        """Parse ``source``; raises ``SyntaxError`` on unparsable files."""
        tree = ast.parse(source, filename=str(path))
        ctx = cls(path=path, source=source, tree=tree, lines=source.splitlines())
        ctx.aliases = _import_aliases(tree)
        return ctx

    @property
    def path_parts(self) -> Tuple[str, ...]:
        """The path's components (rules use these for package exemptions)."""
        return self.path.parts

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Fully qualified dotted name of a Name/Attribute chain.

        ``np.random.default_rng`` resolves through the module's import
        aliases to ``numpy.random.default_rng``; unresolvable shapes
        (calls on call results, subscripts, ...) return None.
        """
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

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node`` for ``rule``."""
        return Finding(
            path=str(self.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=rule.rule_id,
            message=message,
        )


class Rule:
    """Base class for lint rules; subclass and :func:`register`."""

    rule_id: str = ""
    name: str = ""
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file (override)."""
        raise NotImplementedError
        yield  # pragma: no cover - makes the override a generator


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry.

    Raises:
        ValueError: on a missing or duplicate ``rule_id``.
    """
    if not rule_cls.rule_id:
        raise ValueError(f"{rule_cls.__name__} has no rule_id")
    if rule_cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.rule_id}")
    _REGISTRY[rule_cls.rule_id] = rule_cls
    return rule_cls


def rule_catalogue() -> Dict[str, Type[Rule]]:
    """rule_id -> rule class, sorted by id (a fresh dict)."""
    return {rule_id: _REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)}


def make_rules() -> List[Rule]:
    """Instantiate every registered rule, in rule-id order."""
    return [rule_cls() for rule_cls in rule_catalogue().values()]


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to fully qualified origins from import statements."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".")[0]
                aliases[local] = item.name if item.asname else item.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases
