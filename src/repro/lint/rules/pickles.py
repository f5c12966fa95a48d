"""REPRO-P0xx — process-boundary picklability.

Parallel campaigns start workers from a runner and a fault plan and
push jobs and results through worker-process pipes: everything listed in :data:`PICKLED_CLASSES` crosses the
worker boundary by pickling.  Lambdas, closures over local
state, and live generators do not pickle — a field holding one turns
into a ``PicklingError`` the first time a campaign runs with
``workers > 1``, which the serial test path never sees.

**REPRO-P001** statically rejects the common ways such a field
appears: a lambda / generator expression assigned at class level, in
a dataclass ``field(default=...)``, or stored on ``self`` inside a
method; and a locally ``def``-ed function (a closure) stored on
``self``.  Lambdas that are *used* transiently — sort keys, map
arguments — are fine; only bindings that persist on the instance are
flagged.
"""

from __future__ import annotations

import ast
from typing import Optional, Set

from repro.lint.rules import Rule, SRC_SCOPE

#: classes whose instances cross the run_jobs process boundary
#: (the runner and fault plan a worker starts from, jobs out,
#: results/heartbeats back).
PICKLED_CLASSES: Set[str] = {
    "ExperimentRunner", "FaultPlan", "FaultSpec", "IsoJob", "MixJob",
    "JobHeartbeat", "RunResult", "ObsReport", "IsoRecord",
    "WorkloadOutcome", "StallTable", "KernelStats",
}

_UNPICKLABLE = (ast.Lambda, ast.GeneratorExp)


def _unpicklable_reason(value: ast.AST) -> Optional[str]:
    if isinstance(value, ast.Lambda):
        return "a lambda"
    if isinstance(value, ast.GeneratorExp):
        return "a generator expression"
    if isinstance(value, ast.Call):
        func = value.func
        # dataclass field(default=<lambda>) — default_factory=<lambda> is
        # fine (the factory runs at construction; the *instance* holds
        # its result), but default= stores the lambda itself.
        if isinstance(func, ast.Name) and func.id == "field":
            for kw in value.keywords:
                if kw.arg == "default" and isinstance(kw.value, _UNPICKLABLE):
                    return "a lambda field default"
    return None


class ProcessBoundaryRule(Rule):
    """REPRO-P001: no unpicklable state on process-crossing classes."""

    id = "REPRO-P001"
    name = "process-boundary-pickle"
    rationale = (
        "Instances of the campaign job/result classes are pickled "
        "across the run_jobs worker boundary; a lambda, closure or "
        "generator stored on one raises PicklingError only when "
        "workers > 1, so serial tests stay green while parallel "
        "campaigns crash.")
    hint = ("store plain data (names, tuples, dicts) and rebuild "
            "callables worker-side; use field(default_factory=...) for "
            "mutable defaults")
    scope = SRC_SCOPE
    bad = "self.score = lambda r: r.ipc  # on a MixJob/RunResult"
    good = "self.score_field = \"ipc\"  # resolve worker-side"

    def check(self, tree: ast.AST, ctx) -> None:
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef)
                    and node.name in PICKLED_CLASSES):
                self._check_class(node, ctx)

    # ------------------------------------------------------------------
    def _check_class(self, cls: ast.ClassDef, ctx) -> None:
        for st in cls.body:
            if isinstance(st, (ast.Assign, ast.AnnAssign)):
                value = getattr(st, "value", None)
                if value is not None:
                    reason = _unpicklable_reason(value)
                    if reason is not None:
                        ctx.report(value,
                                   f"class {cls.name} crosses the "
                                   f"run_jobs process boundary but binds "
                                   f"{reason} at class level")
            elif isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_method(cls, st, ctx)

    def _check_method(self, cls: ast.ClassDef, fn, ctx) -> None:
        local_defs: Set[str] = {
            inner.name for inner in ast.walk(fn)
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
            and inner is not fn
        }
        for node in ast.walk(fn):
            if not isinstance(node, (ast.Assign, ast.AnnAssign,
                                     ast.AugAssign)):
                continue
            value = getattr(node, "value", None)
            if value is None:
                continue
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if not any(self._is_self_attr(t) for t in targets):
                continue
            reason = _unpicklable_reason(value)
            if reason is None and isinstance(value, ast.Name):
                if value.id in local_defs:
                    reason = f"the locally defined closure {value.id!r}"
            if reason is not None:
                ctx.report(value,
                           f"class {cls.name} crosses the run_jobs "
                           f"process boundary but stores {reason} on "
                           f"self in {fn.name}()")

    @staticmethod
    def _is_self_attr(target: ast.AST) -> bool:
        return (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self")
