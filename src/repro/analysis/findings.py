"""Lint findings: the unit of output of every :mod:`repro.analysis` rule.

A :class:`Finding` pins one violation to a ``(path, line, column)`` and
names the rule that produced it. Findings are plain values — hashable,
orderable, JSON-safe — so the linter, the engines' incremental cache
and the tests all work on the same objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

PARSE_ERROR_RULE = "VAB000"
"""Pseudo-rule id attached to files the linter could not parse."""


@dataclass(frozen=True, order=True)
class Finding:
    """One lint violation.

    Attributes:
        path: file the violation is in (as given to the linter).
        line: 1-based line number.
        col: 0-based column offset.
        rule_id: ``VABxxx`` identifier of the rule that fired.
        message: human-readable description of the violation.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe mapping (the incremental cache's record shape)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }

    @staticmethod
    def from_dict(raw: Dict[str, Any]) -> "Finding":
        """Inverse of :meth:`to_dict`."""
        return Finding(
            path=str(raw["path"]),
            line=int(raw["line"]),
            col=int(raw["col"]),
            rule_id=str(raw["rule"]),
            message=str(raw["message"]),
        )

    def render(self) -> str:
        """One-line ``path:line:col: VABxxx message`` rendering."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    @property
    def is_error(self) -> bool:
        """True for parse failures (``VAB000``), not rule hits."""
        return self.rule_id == PARSE_ERROR_RULE
