"""REPRO-O0xx — sentinel-hook discipline.

The observability layer's zero-cost contract (PR 2) is that every
instrumentation hook in the simulator hot paths costs exactly one
attribute test when observability is off: hook calls are written

    if self._obs is not None:
        self._obs.issue_event(...)

or through a local alias::

    obs = self._obs
    ...
    if obs is not None:
        obs.lsu_rsfail(...)

**REPRO-O001** enforces that contract structurally: inside the
simulator packages, every *use* of an obs sentinel (an attribute access
or call **through** ``X._obs`` / ``X.obs`` or a local bound to one)
must be dominated by an ``is not None`` guard on that same sentinel.
Bare loads of the sentinel itself — aliasing it into a local, passing
it as an argument, comparing it against ``None`` — are free.

The dominance analysis is a conservative per-function walk that
understands:

* ``if S is not None: ...`` bodies (and ``elif`` arms);
* early exits — ``if S is None: return/raise/continue/break`` guards
  the rest of the block, including ``or``-chains of None-checks;
* ``and``-chains — ``S is not None and S.hook()``;
* conditional expressions — ``S.x() if S is not None else y``;
* truthiness guards (``if S:``) as an accepted spelling;
* alias assignment (``obs = self._obs``) with guard transfer, and
  reassignment of the sentinel clearing its guard.

Anything the analysis cannot prove is reported; restructure so the
guard dominates, or pragma a deliberate exception with
``# repro-lint: disable=REPRO-O001 (reason)``.
"""

from __future__ import annotations

import ast
from typing import Optional, Set, Tuple

from repro.lint.rules import Rule, expr_key
from repro.lint.scope import SIM_SCOPE

#: attribute names treated as observability sentinels.
SENTINEL_ATTRS = ("_obs", "obs")

#: statements that terminate a block on every path.
_TERMINATORS = (ast.Return, ast.Raise, ast.Continue, ast.Break)


class UnguardedHookRule(Rule):
    """REPRO-O001: obs hook uses must be sentinel-guarded."""

    id = "REPRO-O001"
    name = "unguarded-obs-hook"
    rationale = (
        "An obs hook call not dominated by an `is not None` check on "
        "its sentinel either crashes with observability off or forces "
        "hot paths to pay for instrumentation unconditionally — both "
        "break the zero-cost-hooks contract the obs-on/obs-off "
        "bit-identity proof relies on.")
    hint = ("guard with `if self._obs is not None:` (or alias "
            "`obs = self._obs` and guard the alias), or pass the "
            "already-guarded sentinel in as a parameter")
    scope = SIM_SCOPE
    bad = "self._obs.issue_event(sm, sched, k, op, cycle)"
    good = ("if self._obs is not None:\n"
            "    self._obs.issue_event(sm, sched, k, op, cycle)")

    def check(self, tree: ast.AST, ctx) -> None:
        # The block walk recurses into nested functions and class
        # bodies itself, so one top-level walk covers the whole module.
        _GuardWalker(ctx).run_block(getattr(tree, "body", []))


class _GuardWalker:
    """One function body's conservative dominance walk."""

    def __init__(self, ctx):
        self.ctx = ctx
        #: local names currently bound to a sentinel.
        self.aliases: Set[str] = set()

    # ------------------------------------------------------------------
    def run(self, fn) -> None:
        self.aliases = set()
        self._block(fn.body, set())

    def run_block(self, body) -> None:
        self.aliases = set()
        self._block(list(body), set())

    # ------------------------------------------------------------------
    # sentinel identification
    def _sentinel_key(self, node: ast.AST) -> Optional[str]:
        """Canonical key when ``node`` *is* a sentinel expression."""
        if isinstance(node, ast.Attribute) and node.attr in SENTINEL_ATTRS:
            return expr_key(node)
        if isinstance(node, ast.Name) and node.id in self.aliases:
            return node.id
        return None

    # ------------------------------------------------------------------
    # guard extraction from a test expression
    def _guards(self, test: ast.AST) -> Tuple[Set[str], Set[str]]:
        """(keys non-None when test is true, keys non-None when false)."""
        pos: Set[str] = set()
        neg: Set[str] = set()
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            left, op, right = test.left, test.ops[0], test.comparators[0]
            operand = None
            if isinstance(right, ast.Constant) and right.value is None:
                operand = left
            elif isinstance(left, ast.Constant) and left.value is None:
                operand = right
            if operand is not None:
                key = self._sentinel_key(operand)
                if key is not None:
                    if isinstance(op, ast.IsNot):
                        pos.add(key)
                    elif isinstance(op, ast.Is):
                        neg.add(key)
        elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            p, n = self._guards(test.operand)
            pos, neg = n, p
        elif isinstance(test, ast.BoolOp):
            parts = [self._guards(value) for value in test.values]
            if isinstance(test.op, ast.And):
                # All conjuncts hold when the test passes.
                for p, _n in parts:
                    pos |= p
            else:
                # `X is None or Y is None` failing proves both non-None.
                for _p, n in parts:
                    neg |= n
        else:
            key = self._sentinel_key(test)
            if key is not None:
                pos.add(key)  # truthiness guard
        return pos, neg

    # ------------------------------------------------------------------
    # statement walk
    def _block(self, stmts, guarded: Set[str]) -> bool:
        """Walk a statement list; returns True when every path through
        it terminates (return/raise/continue/break)."""
        guarded = set(guarded)
        for st in stmts:
            if isinstance(st, _TERMINATORS):
                if isinstance(st, ast.Return) and st.value is not None:
                    self._scan(st.value, guarded)
                if isinstance(st, ast.Raise):
                    if st.exc is not None:
                        self._scan(st.exc, guarded)
                    if st.cause is not None:
                        self._scan(st.cause, guarded)
                return True
            if isinstance(st, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                self._assign(st, guarded)
            elif isinstance(st, ast.If):
                pos, neg = self._guards(st.test)
                self._scan(st.test, guarded)
                body_term = self._block(st.body, guarded | pos)
                else_term = (self._block(st.orelse, guarded | neg)
                             if st.orelse else False)
                if body_term:
                    guarded |= neg
                if st.orelse and else_term:
                    guarded |= pos
                if body_term and st.orelse and else_term:
                    return True
            elif isinstance(st, (ast.While,)):
                pos, _neg = self._guards(st.test)
                self._scan(st.test, guarded)
                self._block(st.body, guarded | pos)
                self._block(st.orelse, guarded)
            elif isinstance(st, ast.For):
                self._scan(st.iter, guarded)
                self._block(st.body, guarded)
                self._block(st.orelse, guarded)
            elif isinstance(st, ast.With):
                for item in st.items:
                    self._scan(item.context_expr, guarded)
                self._block(st.body, guarded)
            elif isinstance(st, ast.Try):
                self._block(st.body, guarded)
                for handler in st.handlers:
                    self._block(handler.body, guarded)
                self._block(st.orelse, guarded)
                self._block(st.finalbody, guarded)
            elif isinstance(st, ast.Expr):
                self._scan(st.value, guarded)
            elif isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _GuardWalker(self.ctx).run(st)
            elif isinstance(st, ast.ClassDef):
                for inner in st.body:
                    if isinstance(inner, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                        _GuardWalker(self.ctx).run(inner)
            elif isinstance(st, (ast.Assert, ast.Delete, ast.Global,
                                 ast.Nonlocal, ast.Import, ast.ImportFrom,
                                 ast.Pass)):
                pass
            else:
                for child in ast.iter_child_nodes(st):
                    if isinstance(child, ast.expr):
                        self._scan(child, guarded)
        return False

    def _assign(self, st, guarded: Set[str]) -> None:
        value = getattr(st, "value", None)
        targets = (st.targets if isinstance(st, ast.Assign)
                   else [st.target])
        if value is not None:
            skey = self._sentinel_key(value)
            if (skey is not None and isinstance(st, ast.Assign)
                    and len(targets) == 1
                    and isinstance(targets[0], ast.Name)):
                # Alias binding: `obs = self._obs`.  The bare sentinel
                # load on the right-hand side is free; guard status
                # transfers to the alias.
                name = targets[0].id
                self.aliases.add(name)
                if skey in guarded:
                    guarded.add(name)
                else:
                    guarded.discard(name)
                return
            self._scan(value, guarded)
        for target in targets:
            if isinstance(target, ast.Name):
                # Rebinding a local kills any alias/guard it carried.
                self.aliases.discard(target.id)
                guarded.discard(target.id)
            elif isinstance(target, ast.Attribute):
                if target.attr in SENTINEL_ATTRS:
                    key = expr_key(target)
                    if key is not None:
                        guarded.discard(key)
                # Target chains (`a.b[c].d = x`) may still *use* a
                # sentinel on the way to the attribute.
                self._scan(target.value, guarded)
            else:
                self._scan(target, guarded)

    # ------------------------------------------------------------------
    # expression scan
    def _scan(self, node: ast.AST, guarded: Set[str]) -> None:
        if node is None:
            return
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            acc = set(guarded)
            for value in node.values:
                self._scan(value, acc)
                pos, _neg = self._guards(value)
                acc |= pos
            return
        if isinstance(node, ast.IfExp):
            pos, neg = self._guards(node.test)
            self._scan(node.test, guarded)
            self._scan(node.body, guarded | pos)
            self._scan(node.orelse, guarded | neg)
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            key = self._sentinel_key(node.value)
            if key is not None and key not in guarded:
                self.ctx.report(
                    node,
                    f"use of obs sentinel `{key}` (`.{node.attr}`) is not "
                    f"dominated by an `is not None` guard")
        if isinstance(node, ast.Call):
            key = self._sentinel_key(node.func)
            if key is not None and key not in guarded:
                self.ctx.report(
                    node,
                    f"call through obs sentinel `{key}` is not dominated "
                    f"by an `is not None` guard")
        for child in ast.iter_child_nodes(node):
            self._scan(child, guarded)
