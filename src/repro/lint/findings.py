"""Lint findings: the one record every layer of the linter exchanges.

A :class:`Finding` pins a rule violation to ``path:line:col`` and
carries the human-facing message, the rule's fix hint, and the stripped
source line (``snippet``) the reports quote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str       #: rule id, e.g. ``"REPRO-D001"``
    path: str       #: posix-style path relative to the lint root
    line: int       #: 1-based line of the offending node
    col: int        #: 0-based column of the offending node
    message: str    #: what is wrong, concretely
    hint: str = ""  #: how to fix it (rule-level guidance)
    snippet: str = ""  #: stripped source line

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "snippet": self.snippet,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Finding":
        return cls(
            rule=str(payload["rule"]),
            path=str(payload["path"]),
            line=int(payload.get("line", 0)),
            col=int(payload.get("col", 0)),
            message=str(payload.get("message", "")),
            hint=str(payload.get("hint", "")),
            snippet=str(payload.get("snippet", "")),
        )
