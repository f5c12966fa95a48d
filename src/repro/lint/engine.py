"""The lint engine: file collection, pragma handling, rule dispatch.

The engine walks the requested paths, parses each Python file once,
runs every rule whose path scope covers the file, and returns sorted
:class:`~repro.lint.findings.Finding` objects.  The one escape hatch
is an inline pragma that suppresses specific rules on one line::

    cold = set(pending)  # repro-lint: disable=REPRO-D001 (membership only)

The pragma may sit on the offending line or on the line directly
above it; ``disable=ALL`` suppresses every rule; several ids may be
comma-separated.  A parenthesised reason is encouraged (docs) but
not enforced here.

Files that do not parse produce a single ``REPRO-E000`` pseudo-finding
(the linter cannot vouch for a file it cannot read), so syntax errors
fail lint runs rather than silently skipping the file.
"""

from __future__ import annotations

import ast
import os
import re
from typing import List, Optional, Sequence, Set

from repro.lint.findings import Finding
from repro.lint.rules import Rule, all_rules
from repro.lint.scope import DEFAULT_EXCLUDE_DIRS, collect_py_files, rel_posix

#: rule id attached to files the engine cannot parse.
PARSE_ERROR_RULE = "REPRO-E000"

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9\-_,\s]+?)\s*(?:\(|$)")


def _pragma_rules(line: str) -> Set[str]:
    """Rule ids disabled by a pragma on ``line`` (empty when none)."""
    match = _PRAGMA_RE.search(line)
    if not match:
        return set()
    return {part.strip().upper()
            for part in match.group(1).split(",") if part.strip()}


class FileContext:
    """Per-file reporting surface handed to each rule's ``check``.

    Carries the relative path and source lines so findings can be
    stamped with their snippet, and applies pragma suppression at
    report time (pragma on the finding's line or the line above).
    """

    def __init__(self, rel_path: str, source_lines: Sequence[str]):
        self.rel_path = rel_path
        self._lines = source_lines
        self._rule: Optional[Rule] = None
        self.findings: List[Finding] = []
        self.suppressed = 0

    def set_rule(self, rule: Rule) -> None:
        self._rule = rule

    def _line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self._lines):
            return self._lines[lineno - 1]
        return ""

    def _is_suppressed(self, rule_id: str, lineno: int) -> bool:
        for text in (self._line_text(lineno), self._line_text(lineno - 1)):
            disabled = _pragma_rules(text)
            if disabled and ("ALL" in disabled or rule_id in disabled):
                return True
        return False

    def report(self, node: ast.AST, message: str) -> None:
        assert self._rule is not None, "report() outside a rule run"
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self._is_suppressed(self._rule.id, line):
            self.suppressed += 1
            return
        self.findings.append(Finding(
            rule=self._rule.id,
            path=self.rel_path,
            line=line,
            col=col,
            message=message,
            hint=self._rule.hint,
            snippet=self._line_text(line).strip(),
        ))


class LintEngine:
    """Run a rule set over files/directories under one root."""

    def __init__(self, root: str, rules: Optional[Sequence[Rule]] = None,
                 exclude_dirs: Optional[Set[str]] = None):
        self.root = os.path.abspath(root)
        self.rules: List[Rule] = list(rules) if rules is not None \
            else all_rules()
        self.exclude_dirs = (set(exclude_dirs) if exclude_dirs is not None
                             else set(DEFAULT_EXCLUDE_DIRS))
        self.suppressed = 0

    # ------------------------------------------------------------------
    # file collection (delegates to repro.lint.scope so the engine walk
    # and the rule scopes agree on path semantics)
    def rel_path(self, path: str) -> str:
        return rel_posix(path, self.root)

    def collect_files(self, paths: Sequence[str]) -> List[str]:
        """Expand files/directories into a sorted, de-duplicated list of
        absolute ``.py`` paths.  Directory walks skip
        :attr:`exclude_dirs`; explicitly named files are always taken."""
        return collect_py_files(self.root, paths, self.exclude_dirs)

    # ------------------------------------------------------------------
    # linting
    def lint_file(self, abs_path: str) -> List[Finding]:
        rel = self.rel_path(abs_path)
        try:
            with open(abs_path, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            return [Finding(rule=PARSE_ERROR_RULE, path=rel, line=1, col=0,
                            message=f"cannot read file: {exc}",
                            hint="", snippet="")]
        try:
            tree = ast.parse(source, filename=abs_path)
        except SyntaxError as exc:
            return [Finding(
                rule=PARSE_ERROR_RULE, path=rel,
                line=exc.lineno or 1, col=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}",
                hint="fix the syntax error; the linter cannot vouch for "
                     "a file it cannot parse",
                snippet=(exc.text or "").strip(),
            )]
        lines = source.splitlines()
        ctx = FileContext(rel, lines)
        for rule in self.rules:
            if not rule.applies_to(rel):
                continue
            ctx.set_rule(rule)
            rule.check(tree, ctx)
        self.suppressed += ctx.suppressed
        ctx.findings.sort(key=Finding.sort_key)
        return ctx.findings

    def lint_paths(self, paths: Sequence[str]) -> List[Finding]:
        findings: List[Finding] = []
        for abs_path in self.collect_files(paths):
            findings.extend(self.lint_file(abs_path))
        findings.sort(key=Finding.sort_key)
        return findings

