"""Rule base class, the rule registry, and shared path-scope helpers.

Every rule is a small object with catalog metadata (id, name,
rationale, fix hint, bad/good example) plus a ``check(tree, ctx)``
method that reports findings through the
:class:`~repro.lint.engine.FileContext`.  Rules are *path-scoped*: the
engine only runs a rule on files whose root-relative posix path falls
under one of the rule's ``scope`` prefixes (and under none of its
``exclude`` prefixes).  An empty ``scope`` means "every linted file".
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.scope import path_in_scope


class Rule:
    """One lint rule.  Subclasses fill the catalog metadata in and
    implement :meth:`check`."""

    id: str = ""
    name: str = ""
    rationale: str = ""
    hint: str = ""
    #: path prefixes the rule is active under; () = everywhere.
    scope: Tuple[str, ...] = ()
    #: path prefixes exempted even inside ``scope``.
    exclude: Tuple[str, ...] = ()
    #: catalog examples (docs / --list-rules).
    bad: str = ""
    good: str = ""

    def applies_to(self, rel_path: str) -> bool:
        if self.exclude and path_in_scope(rel_path, self.exclude):
            return False
        if not self.scope:
            return True
        return path_in_scope(rel_path, self.scope)

    def check(self, tree: ast.AST, ctx) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.id} {self.name}>"


# ----------------------------------------------------------------------
# shared AST helpers
def expr_key(node: ast.AST) -> Optional[str]:
    """Dotted-name string for a plain ``Name``/``Attribute`` chain
    (``self._obs``, ``milg._obs``); None for anything more dynamic."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = expr_key(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def iter_scopes(tree: ast.AST) -> Iterable[Tuple[ast.AST, List[ast.stmt]]]:
    """Yield ``(scope_node, body)`` for the module and every function /
    class body, so per-scope analyses (local aliases, local set
    bindings) never leak across scope boundaries."""
    yield tree, list(getattr(tree, "body", []))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node, list(node.body)


def local_statements(body: Sequence[ast.stmt]) -> Iterable[ast.AST]:
    """Walk every node under ``body`` without descending into nested
    function/class scopes (their bodies are separate scopes)."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue  # nested scope: iter_scopes() visits it separately
        stack.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------
# registry
def all_rules() -> List[Rule]:
    """One fresh instance of every shipped rule, catalog order."""
    from repro.lint.rules.determinism import (IdOrderingRule,
                                              SetIterationRule,
                                              UnseededRandomRule,
                                              WallClockRule)
    from repro.lint.rules.hooks import UnguardedHookRule
    from repro.lint.rules.pickles import ProcessBoundaryRule
    from repro.lint.rules.stats import (ExhaustiveStallChainRule,
                                        StallReasonRule)
    return [
        SetIterationRule(),
        UnseededRandomRule(),
        WallClockRule(),
        IdOrderingRule(),
        UnguardedHookRule(),
        StallReasonRule(),
        ExhaustiveStallChainRule(),
        ProcessBoundaryRule(),
    ]


def rules_by_id(rules: Optional[Iterable[Rule]] = None) -> Dict[str, Rule]:
    return {rule.id: rule for rule in (rules or all_rules())}


def normalize_rule_id(raw: str) -> str:
    """Accept ``REPRO-D001``, ``repro-d001`` and the ``D001`` shorthand."""
    rid = raw.strip().upper()
    if rid and not rid.startswith("REPRO-") and rid != "ALL":
        rid = f"REPRO-{rid}"
    return rid
