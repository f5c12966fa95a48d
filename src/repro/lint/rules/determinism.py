"""REPRO-D0xx — determinism rules.

The repo's headline guarantees (fast cycle loop bit-identical to the
reference loop; obs-on bit-identical to obs-off; campaign results
bit-identical serial vs parallel) all assume the simulator is a pure
function of its configuration and seed.  These rules machine-check the
coding invariants that assumption rests on:

* **REPRO-D001** — no iteration over unordered collections (``set`` /
  ``frozenset`` literals, ``set()``/``frozenset()`` calls, set
  comprehensions, ``.keys()`` views) in the simulator hot-path
  packages.  Iterate a ``sorted(...)`` wrapper or an ordered container
  instead; membership tests are fine.
* **REPRO-D002** — no shared-global-state RNG (module-level
  ``random.*`` calls, unseeded ``random.Random()``, ``np.random.*``
  globals) anywhere in ``src/repro``.  Construct
  ``random.Random(seed)`` explicitly.
* **REPRO-D003** — no wall-clock reads (``time.time`` /
  ``perf_counter`` / ``monotonic`` / ``datetime.now`` ...) outside the
  harness and the telemetry module: simulated behaviour must never
  observe host time.
* **REPRO-D004** — no ``id()`` in the simulator packages: object
  identity is allocation-order dependent, so ``id()``-keyed maps or
  sort keys are nondeterministic across runs/processes.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional

from repro.lint.rules import Rule, iter_scopes, local_statements
from repro.lint.scope import SIM_SCOPE, SRC_SCOPE

#: builtins whose call consumes its argument in iteration order.
_ORDER_SENSITIVE_CONSUMERS = ("list", "tuple", "enumerate", "iter",
                              "reversed")

#: ``time`` module functions that read the host clock.
_TIME_FNS = frozenset((
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns",
))

#: ``datetime``/``date`` constructors that read the host clock.
_DATETIME_FNS = frozenset(("now", "utcnow", "today"))

#: ``numpy.random`` module-level (global RNG) entry points.
_NP_GLOBAL_FNS = frozenset((
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "seed", "normal", "uniform",
))


def _setlike_reason(node: ast.AST) -> Optional[str]:
    """Why ``node`` evaluates to an unordered collection, or None."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}(...)"
        if isinstance(func, ast.Attribute) and func.attr == "keys":
            return ".keys() view"
    return None


class SetIterationRule(Rule):
    """REPRO-D001: no unordered iteration in simulator hot paths."""

    id = "REPRO-D001"
    name = "set-iteration"
    rationale = (
        "Iterating a set/frozenset (or consuming one in order) makes "
        "warp/request ordering depend on hash seeding and allocation "
        "history, silently breaking the fast-loop and obs-on/off "
        "bit-identity guarantees.")
    hint = ("wrap the collection in sorted(...) before iterating, or "
            "use an insertion-ordered container (list/dict)")
    scope = SIM_SCOPE
    bad = "for sm in {0, 1, 2}: tick(sm)"
    good = "for sm in sorted({0, 1, 2}): tick(sm)"

    def check(self, tree: ast.AST, ctx) -> None:
        for _scope, body in iter_scopes(tree):
            bindings = self._set_bindings(body)
            for node in local_statements(body):
                if isinstance(node, ast.For):
                    self._flag(ctx, node.iter, bindings, "for-loop")
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp)):
                    for gen in node.generators:
                        self._flag(ctx, gen.iter, bindings, "comprehension")
                elif isinstance(node, ast.Starred):
                    self._flag(ctx, node.value, bindings, "unpacking")
                elif (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in _ORDER_SENSITIVE_CONSUMERS
                        and node.args):
                    self._flag(ctx, node.args[0], bindings,
                               f"{node.func.id}(...)")

    @staticmethod
    def _set_bindings(body) -> Dict[str, str]:
        """Local names bound to a set-like value anywhere in scope."""
        bindings: Dict[str, str] = {}
        for node in local_statements(body):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                reason = _setlike_reason(node.value)
                if isinstance(target, ast.Name) and reason is not None:
                    bindings[target.id] = reason
        return bindings

    def _flag(self, ctx, expr: ast.AST, bindings: Dict[str, str],
              where: str) -> None:
        reason = _setlike_reason(expr)
        if reason is None and isinstance(expr, ast.Name):
            reason = bindings.get(expr.id)
            if reason is not None:
                reason = f"{expr.id!r} (bound to {reason})"
        if reason is not None:
            ctx.report(expr, f"{where} iterates {reason}: unordered "
                             f"iteration is nondeterministic")


class UnseededRandomRule(Rule):
    """REPRO-D002: no global-state or unseeded RNG in library code."""

    id = "REPRO-D002"
    name = "unseeded-random"
    rationale = (
        "Module-level random.* calls and unseeded random.Random() draw "
        "from process-global or OS-entropy state, so two runs of the "
        "same experiment diverge — reproducibility of cycle-level "
        "studies requires every RNG to be an explicitly seeded "
        "instance.")
    hint = "construct random.Random(seed) from config/profile seeds"
    scope = SRC_SCOPE
    bad = "delay = random.randint(1, 8)"
    good = "delay = self._rng.randint(1, 8)  # rng = random.Random(seed)"

    def check(self, tree: ast.AST, ctx) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                self._check_call(node, ctx)
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = [a.name for a in node.names if a.name != "Random"]
                if bad:
                    ctx.report(node,
                               f"importing {', '.join(sorted(bad))} from "
                               f"random binds the shared global RNG")

    @staticmethod
    def _check_call(node: ast.Call, ctx) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        value = func.value
        if isinstance(value, ast.Name) and value.id == "random":
            if func.attr == "Random":
                if not node.args and not node.keywords:
                    ctx.report(node, "random.Random() without a seed draws "
                                     "from OS entropy")
            else:
                ctx.report(node, f"random.{func.attr}() uses the shared "
                                 f"global RNG")
        elif (isinstance(value, ast.Attribute) and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in ("np", "numpy")
                and func.attr in _NP_GLOBAL_FNS):
            ctx.report(node, f"{value.value.id}.random.{func.attr}() uses "
                             f"numpy's global RNG")


class WallClockRule(Rule):
    """REPRO-D003: no host-clock reads in simulated code."""

    id = "REPRO-D003"
    name = "wall-clock"
    rationale = (
        "Simulated behaviour that observes host time (time.time, "
        "perf_counter, datetime.now) differs run to run; only the "
        "harness (wall-clock benchmarks) and the telemetry module "
        "(heartbeat timestamps) legitimately read clocks.")
    hint = ("thread the simulated cycle through instead; wall-clock "
            "measurement belongs in repro.harness / repro.obs.telemetry")
    scope = SRC_SCOPE
    exclude = ("src/repro/harness", "src/repro/obs/telemetry.py")
    bad = "t0 = time.perf_counter()"
    good = "started_at_cycle = cycle  # simulated time only"

    def check(self, tree: ast.AST, ctx) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                value = func.value
                if (isinstance(value, ast.Name) and value.id == "time"
                        and func.attr in _TIME_FNS):
                    ctx.report(node, f"time.{func.attr}() reads the host "
                                     f"clock")
                elif func.attr in _DATETIME_FNS and self._is_datetime(value):
                    ctx.report(node, f"datetime {func.attr}() reads the "
                                     f"host clock")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                bad = [a.name for a in node.names if a.name in _TIME_FNS]
                if bad:
                    ctx.report(node, f"importing {', '.join(sorted(bad))} "
                                     f"from time pulls host-clock reads "
                                     f"into simulated code")

    @staticmethod
    def _is_datetime(value: ast.AST) -> bool:
        if isinstance(value, ast.Name):
            return value.id in ("datetime", "date")
        if isinstance(value, ast.Attribute):
            return value.attr in ("datetime", "date")
        return False


class IdOrderingRule(Rule):
    """REPRO-D004: no id()-derived keys or ordering in hot paths."""

    id = "REPRO-D004"
    name = "id-ordering"
    rationale = (
        "id() exposes allocation addresses, which vary across runs, "
        "interpreters and campaign worker processes — any map key or "
        "sort key derived from it is nondeterministic.")
    hint = ("key on a stable field (slot, sm_id, warp age) or attach an "
            "explicit monotonically assigned index")
    scope = SIM_SCOPE
    bad = "order = sorted(warps, key=id)"
    good = "order = sorted(warps, key=lambda w: w.age)"

    def check(self, tree: ast.AST, ctx) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "id":
                ctx.report(node, "id() is allocation-dependent and "
                                 "nondeterministic across runs/processes")
            # `key=id` passes the builtin without calling it.
            for kw in node.keywords:
                if (kw.arg == "key" and isinstance(kw.value, ast.Name)
                        and kw.value.id == "id"):
                    ctx.report(kw.value, "sort/group key=id orders by "
                                         "allocation address")
