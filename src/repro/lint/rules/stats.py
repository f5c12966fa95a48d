"""REPRO-S0xx — stat hygiene.

PR 2's stall-attribution taxonomy is *exact by construction*: every
scheduler issue slot and every stalled LSU cycle lands in exactly one
class, and the classes sum to the engine totals.  That exactness is
easy to lose through typos — a stall-reason literal outside the
taxonomy, an ``if``/``elif`` chain that silently drops a class.  These
rules machine-check it:

* **REPRO-S002** — stall-reason literals passed to
  ``StallTable.bump_sched`` / ``bump_lsu`` must belong to the declared
  scheduler / LSU taxonomy; mechanism literals passed to
  ``PhaseSampler.log_adapt`` must belong to the declared adaptation
  mechanisms.
* **REPRO-S003** — an ``if``/``elif`` chain that classifies into stall
  (or adaptation-mechanism) constants must be exhaustive: it needs a
  final ``else`` (the ``STALL_OTHER`` residual), otherwise
  unclassified slots silently break the exact-sum invariant.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.lint.rules import Rule
from repro.lint.scope import SRC_SCOPE
from repro.obs.stalls import ISSUED, LSU_STALL_REASONS, SCHED_STALL_REASONS
from repro.obs.timeline import ADAPT_MECHANISMS

#: valid scheduler issue-slot outcomes (taxonomy + the issued class).
SCHED_REASONS: Set[str] = set(SCHED_STALL_REASONS) | {ISSUED}
LSU_REASONS: Set[str] = set(LSU_STALL_REASONS)
ALL_REASONS: Set[str] = SCHED_REASONS | LSU_REASONS
#: adaptation-mechanism labels (phase-telemetry event log taxonomy).
ADAPT_REASONS: Set[str] = set(ADAPT_MECHANISMS)

#: names of the taxonomy constants as they appear in source.
TAXONOMY_CONST_NAMES: Set[str] = {"ISSUED", "ADAPT_MIL", "ADAPT_QBMI"} | {
    f"STALL_{reason.upper()}" for reason in SCHED_STALL_REASONS
}

#: string literals that mark a classification chain for REPRO-S003.
CHAIN_LITERALS: Set[str] = ALL_REASONS | ADAPT_REASONS


class StallReasonRule(Rule):
    """REPRO-S002: stall-reason literals must be taxonomy members."""

    id = "REPRO-S002"
    name = "stall-reason"
    rationale = (
        "StallTable accumulates by raw reason string (and the phase "
        "sampler's adaptation log by raw mechanism string); a literal "
        "outside the taxonomy creates a class the reports never "
        "display, breaking the slots-sum-exactly invariant checked by "
        "the stall tests.")
    hint = ("use the constants from repro.obs.stalls (STALL_*, ISSUED, "
            "LSU_STALL_REASONS members) / repro.obs.timeline (ADAPT_*)")
    scope = SRC_SCOPE
    bad = 'table.bump_sched(sm, sched, k, "warp_jam")'
    good = "table.bump_sched(sm, sched, k, STALL_SCOREBOARD)"

    #: method name -> (positional index of the class argument, family).
    _SITES = {
        "bump_sched": (3, "scheduler stall"),
        "bump_lsu": (2, "LSU stall"),
        "log_adapt": (0, "adaptation mechanism"),
    }

    #: family -> (allowed class literals, keyword spelling of the arg).
    _FAMILIES = {
        "scheduler stall": (SCHED_REASONS, "reason"),
        "LSU stall": (LSU_REASONS, "reason"),
        "adaptation mechanism": (ADAPT_REASONS, "mechanism"),
    }

    def check(self, tree: ast.AST, ctx) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            site = self._SITES.get(func.attr)
            if site is None:
                continue
            index, family = site
            allowed, keyword = self._FAMILIES[family]
            reason_arg = None
            if len(node.args) > index:
                reason_arg = node.args[index]
            else:
                for kw in node.keywords:
                    if kw.arg == keyword:
                        reason_arg = kw.value
            if (isinstance(reason_arg, ast.Constant)
                    and isinstance(reason_arg.value, str)
                    and reason_arg.value not in allowed):
                ctx.report(reason_arg,
                           f"{reason_arg.value!r} is not a declared "
                           f"{family} class "
                           f"({', '.join(sorted(allowed))})")


class ExhaustiveStallChainRule(Rule):
    """REPRO-S003: stall-classification chains need an else residual."""

    id = "REPRO-S003"
    name = "stall-chain-else"
    rationale = (
        "A stall-classification if/elif chain with no else drops "
        "same-cycle races on the floor, so the per-reason counts stop "
        "summing to cycles x SMs x schedulers — the taxonomy's "
        "defining invariant.")
    hint = "end the chain with `else: reason = STALL_OTHER` (the residual)"
    scope = SRC_SCOPE
    bad = ("if gated: reason = STALL_SMK_GATE\n"
           "elif full: reason = STALL_LSU_FULL  # no else")
    good = ("if gated: reason = STALL_SMK_GATE\n"
            "elif full: reason = STALL_LSU_FULL\n"
            "else: reason = STALL_OTHER")

    def check(self, tree: ast.AST, ctx) -> None:
        heads = self._chain_heads(tree)
        for head in heads:
            branches, final_else = self._chain(head)
            targets: List[str] = []
            for body in branches:
                target = self._taxonomy_assign_target(body)
                if target is not None:
                    targets.append(target)
            if len(targets) >= 2 and not final_else:
                common = {t for t in targets if targets.count(t) >= 2}
                if common:
                    ctx.report(head,
                               f"if/elif chain assigning stall classes to "
                               f"{sorted(common)[0]!r} has no else: "
                               f"unmatched cases escape the taxonomy")

    @staticmethod
    def _chain_heads(tree: ast.AST) -> List[ast.If]:
        elifs = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.If) and len(node.orelse) == 1
                    and isinstance(node.orelse[0], ast.If)):
                elifs.add(id(node.orelse[0]))  # repro-lint: disable=REPRO-D004 (intra-walk identity only)
        return [node for node in ast.walk(tree)
                if isinstance(node, ast.If) and id(node) not in elifs]  # repro-lint: disable=REPRO-D004 (intra-walk identity only)

    @staticmethod
    def _chain(head: ast.If):
        branches = []
        node = head
        while True:
            branches.append(node.body)
            if len(node.orelse) == 1 and isinstance(node.orelse[0], ast.If):
                node = node.orelse[0]
                continue
            return branches, bool(node.orelse)

    @staticmethod
    def _taxonomy_assign_target(body) -> Optional[str]:
        for st in body:
            if (isinstance(st, ast.Assign) and len(st.targets) == 1
                    and isinstance(st.targets[0], ast.Name)):
                value = st.value
                if (isinstance(value, ast.Name)
                        and value.id in TAXONOMY_CONST_NAMES):
                    return st.targets[0].id
                if (isinstance(value, ast.Constant)
                        and isinstance(value.value, str)
                        and value.value in CHAIN_LITERALS):
                    return st.targets[0].id
        return None
