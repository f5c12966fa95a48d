"""``python -m repro lint`` — the linter's command-line surface.

Exit codes follow the CI contract:

* ``0`` — clean (no findings), or a successful ``--list-rules``;
* ``1`` — findings reported;
* ``2`` — usage error (unknown rule id or family prefix, missing
  path), reported as ``error: ...`` on stderr like the other
  subcommands.
"""

from __future__ import annotations

import os
import sys
from typing import List, Optional, Sequence

from repro.lint.engine import LintEngine
from repro.lint.output import FORMATS, format_catalog, render
from repro.lint.rules import Rule, all_rules, normalize_rule_id, rules_by_id

#: fallback lint target when no paths are given: every rule is scoped
#: under ``src/repro``, so other trees would only be parsed.
DEFAULT_PATH = "src"


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _select_rules(selectors: Sequence[str]) -> List[Rule]:
    """Resolve ``--select`` values against the catalog (order kept).

    A selector is a full rule id (``REPRO-D001``, shorthand ``D001``)
    or a family prefix (``REPRO-D``, shorthand ``D``, also ``REPRO-S0``)
    selecting every rule whose id starts with it.  A selector matching
    no rule in the catalog raises ValueError (exit code 2)."""
    catalog = all_rules()
    by_id = rules_by_id(catalog)
    wanted = set()
    for raw in selectors:
        for part in raw.split(","):
            part = part.strip()
            if not part:
                continue
            rid = normalize_rule_id(part)
            if rid == "ALL":
                wanted.update(by_id)
                continue
            matched = [known for known in by_id
                       if known == rid or known.startswith(rid)]
            if not matched:
                known = ", ".join(sorted(by_id))
                raise ValueError(
                    f"unknown rule id or family prefix {part!r} "
                    f"(known: {known})")
            wanted.update(matched)
    return [rule for rule in catalog if rule.id in wanted]


def _resolve_paths(root: str, raw_paths: Sequence[str]) -> List[str]:
    """Validate requested paths (default: ``src`` under root)."""
    if raw_paths:
        for path in raw_paths:
            abs_path = path if os.path.isabs(path) \
                else os.path.join(root, path)
            if not os.path.exists(abs_path):
                raise ValueError(f"path does not exist: {path}")
        return list(raw_paths)
    if not os.path.isdir(os.path.join(root, DEFAULT_PATH)):
        raise ValueError(
            f"no paths given and no {DEFAULT_PATH} directory under {root}")
    return [DEFAULT_PATH]


def run_lint_command(paths: Sequence[str], fmt: str = "text",
                     select: Sequence[str] = (),
                     list_rules: bool = False,
                     root: Optional[str] = None) -> int:
    """Execute one lint run; returns the process exit code."""
    if list_rules:
        print(format_catalog(all_rules()))
        return 0

    if fmt not in FORMATS:
        return _usage_error(
            f"unknown format {fmt!r} (choose from {', '.join(FORMATS)})")

    try:
        rules = _select_rules(select) if select else all_rules()
    except ValueError as exc:
        return _usage_error(str(exc))

    root = os.path.abspath(root or os.getcwd())
    try:
        targets = _resolve_paths(root, list(paths))
    except ValueError as exc:
        return _usage_error(str(exc))

    findings = LintEngine(root, rules=rules).lint_paths(targets)
    print(render(findings, fmt))
    return 1 if findings else 0
