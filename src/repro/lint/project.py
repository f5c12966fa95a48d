"""Phase one of the whole-program linter: the project index.

``repro lint --project`` runs in two phases.  This module is phase
one: every collected file is parsed once and distilled into a small,
JSON-able **module summary** — imports, string/tuple/dict constants,
module-level mutable objects, the class table (bases, methods, mutable
class attributes), and one **function summary** per function/method
(plus a ``<module>`` pseudo-function for module-level statements).
Function summaries record exactly the facts the interprocedural rule
families consume:

* outgoing calls (dotted callee keys) and worker-pool entry-point
  references — the raw material for :mod:`repro.lint.callgraph`;
* leap-visible state mutations and wheel posts (REPRO-W0xx);
* writes/loads of module-level and class-level shared state
  (REPRO-R0xx);
* stall-reason/mechanism arguments and registry-leaf literals
  (REPRO-S004/S005).

Because summaries are plain JSON, the index is **incrementally
cached**: ``--index-cache FILE`` stores each file's summary keyed by
``(mtime, size)``, so a CI run with a warm cache only re-parses files
that actually changed.  The cache is invalidated wholesale whenever
:data:`INDEX_VERSION` changes (bump it when the summary schema grows a
field).

Everything here is an *under-approximation by construction*: an alias
the summarizer cannot follow simply produces no record.  Rules built
on the index therefore never guess — they only act on facts the
summaries prove.
"""

from __future__ import annotations

import ast
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.scope import module_name, rel_posix

#: bump when the summary schema changes; stale caches are discarded.
INDEX_VERSION = 2

#: conventional cache location under the repo root (directory is
#: covered by .gitignore and excluded from lint walks).
DEFAULT_CACHE_RELPATH = os.path.join(".repro_cache", "lint-index.json")

#: method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset((
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "clear", "remove", "discard", "appendleft",
    "popleft", "sort", "reverse",
))

#: pool-ish receiver method names whose first positional argument is a
#: function executed in a worker process.
POOL_DISPATCH_METHODS = frozenset((
    "submit", "map", "imap", "imap_unordered", "apply", "apply_async",
    "starmap", "starmap_async",
))

#: stall/mechanism call sites: method -> (positional index, keyword).
REASON_SITES = {
    "bump_sched": (3, "reason"),
    "bump_lsu": (2, "reason"),
    "log_adapt": (0, "mechanism"),
}

#: registry methods whose first argument is a dotted metric name
#: (mirrors repro.lint.rules.stats._REGISTRY_METHODS).
REGISTRY_METHODS = frozenset(("counter", "gauge", "bump", "set", "scoped"))

#: placeholder standing in for an f-string interpolation in recorded
#: metric-name patterns (same token the per-file rules use).
HOLE = "\x00"


def _expr_key(node: ast.AST) -> Optional[str]:
    """Dotted-name string for a plain Name/Attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _expr_key(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def _literal_pattern(node: ast.AST) -> Optional[str]:
    """String value of a str constant / f-string (interpolations become
    :data:`HOLE`); None otherwise."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts: List[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            else:
                parts.append(HOLE)
        return "".join(parts)
    return None


def _is_mutable_value(node: ast.AST) -> bool:
    """Conservatively true for values that denote shared mutable
    objects when bound at module/class level: container displays,
    comprehensions, and constructor calls.  Immutable literals,
    tuples of immutables and arithmetic stay out."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        key = (_expr_key(node.func) or "").rsplit(".", 1)[-1]
        # frozenset/tuple/str/int/... produce immutable objects;
        # everything else constructed at module level is assumed shared
        # mutable state (CounterRegistry(), OrderedDict(), dict(), ...).
        return key not in ("frozenset", "tuple", "str", "int", "float",
                           "bool", "bytes", "namedtuple")
    return False


class _FunctionSummarizer(ast.NodeVisitor):
    """Single pass over one function body (module-level statements are
    treated as the body of a ``<module>`` pseudo-function).

    Nested functions/lambdas are *not* given their own summaries: their
    statements are folded into the enclosing function, which is the
    conservative reading for closures (whoever calls the outer function
    may trigger the inner one)."""

    def __init__(self, name: str, qualname: str, cls: str, lineno: int,
                 params: Sequence[str]):
        self.summary: Dict[str, object] = {
            "name": name, "qualname": qualname, "cls": cls,
            "lineno": lineno, "params": list(params),
            "calls": [], "entry_refs": [], "posts_wheel": False,
            "leap_writes": [], "queue_calls": [], "writes": [],
            "loads": [], "reason_calls": [], "leaf_uses": [],
        }
        self._params = set(params)
        self._locals = set(params)
        self._globals: set = set()
        self._pending_leap: List[Tuple[str, ast.AST]] = []
        # late import: the leap registry lives next to the EventWheel.
        from repro.sim import wheel as _wheel
        self._leap_attrs = set(_wheel.LEAP_STATE_ATTRS)
        self._leap_methods = set(_wheel.LEAP_QUEUE_METHODS)

    # -- local-name bookkeeping ---------------------------------------
    def _bind(self, target: ast.AST) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name) and node.id not in self._globals:
                self._locals.add(node.id)

    def _root(self, key: str) -> str:
        return key.split(".", 1)[0]

    def _is_candidate_root(self, root: str) -> bool:
        """A dotted key rooted here may denote shared state: it is not a
        plain local (params included), or it was declared ``global``."""
        if root in ("self", "cls"):
            return True
        if root in self._globals:
            return True
        return root not in self._locals

    # -- recorded facts ------------------------------------------------
    def _record_write(self, key: str, kind: str, node: ast.AST) -> None:
        if self._is_candidate_root(self._root(key)):
            self.summary["writes"].append(
                [key, kind, node.lineno, node.col_offset])

    def _record_load(self, key: str, node: ast.AST) -> None:
        if self._is_candidate_root(self._root(key)):
            self.summary["loads"].append([key, node.lineno])

    def _record_target(self, target: ast.AST, kind: str) -> None:
        if isinstance(target, ast.Name):
            if target.id in self._globals:
                self._record_write(target.id, kind, target)
            else:
                self._locals.add(target.id)
        elif isinstance(target, ast.Attribute):
            key = _expr_key(target)
            if key is not None:
                self._record_write(key, kind, target)
                attr = target.attr
                if attr in self._leap_attrs:
                    self._pending_leap.append((attr, target))
        elif isinstance(target, ast.Subscript):
            key = _expr_key(target.value)
            if key is not None:
                self._record_write(key, "subscript", target)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_target(elt, kind)

    def _value_kind(self, value: ast.AST) -> str:
        """Leap-safety classification of an assigned horizon value:
        ``zero`` (reset to always-awake) and ``param`` (the caller
        already owns the cycle, so the lowering can only wake the
        engine earlier or exactly on time) are safe; anything else
        (``other``) must discharge through a wheel post."""
        if isinstance(value, ast.Constant) and value.value == 0:
            return "zero"
        if isinstance(value, ast.Name) and value.id in self._params:
            return "param"
        return "other"

    # -- visitors -------------------------------------------------------
    def visit_Global(self, node: ast.Global) -> None:
        self._globals.update(node.names)
        self._locals.difference_update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._pending_leap = []
        for target in node.targets:
            self._record_target(target, "assign")
        vkind = self._value_kind(node.value)
        for attr, tnode in self._pending_leap:
            self.summary["leap_writes"].append(
                [attr, tnode.lineno, tnode.col_offset, vkind])
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._pending_leap = []
            self._record_target(node.target, "assign")
            vkind = self._value_kind(node.value)
            for attr, tnode in self._pending_leap:
                self.summary["leap_writes"].append(
                    [attr, tnode.lineno, tnode.col_offset, vkind])
            self.visit(node.value)
        elif isinstance(node.target, ast.Name):
            self._locals.add(node.target.id)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._pending_leap = []
        if isinstance(node.target, ast.Name):
            # += on a bare local is a rebind; on a global, a write.
            if node.target.id in self._globals:
                self._record_write(node.target.id, "augassign", node.target)
        else:
            self._record_target(node.target, "augassign")
        for attr, tnode in self._pending_leap:
            # += always needs discharge: it moves the horizon by an
            # amount the summarizer cannot bound.
            self.summary["leap_writes"].append(
                [attr, tnode.lineno, tnode.col_offset, "other"])
        self.visit(node.value)

    def visit_For(self, node: ast.For) -> None:
        self._bind(node.target)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if item.optional_vars is not None:
                self._bind(item.optional_vars)
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.name:
            self._locals.add(node.name)
        self.generic_visit(node)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        self._bind(node.target)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._bind(node.target)
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._locals.add(alias.asname or alias.name.split(".")[0])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            self._locals.add(alias.asname or alias.name)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # nested def: bind the name, fold the body in (closure-conservative)
        self._locals.add(node.name)
        for stmt in node.body:
            self.visit(stmt)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.visit(node.body)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._locals.add(node.name)
        # nested class bodies are rare and not summarized per-function

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._record_load(node.id, node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            key = _expr_key(node)
            if key is not None:
                self._record_load(key, node)
                return
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        key = _expr_key(func)
        if key is not None:
            self.summary["calls"].append([key, node.lineno])
        if isinstance(func, ast.Attribute):
            recv = _expr_key(func.value) or ""
            attr = func.attr
            # wheel discharge: a post on a wheel-ish receiver, or an
            # explicit next-activity recompute.
            if (attr == "post" and "wheel" in recv.lower()) \
                    or attr == "next_activity":
                self.summary["posts_wheel"] = True
            # leap-checked queue pushes
            if attr in self._leap_methods:
                self.summary["queue_calls"].append(
                    [attr, node.lineno, node.col_offset])
            # in-place mutation of a shared root
            if attr in MUTATOR_METHODS and recv:
                self._record_write(recv, "mutcall", node)
            # worker-pool dispatch: first positional arg runs worker-side
            if attr in POOL_DISPATCH_METHODS and node.args:
                low = recv.lower()
                if "pool" in low or "executor" in low:
                    ref = _expr_key(node.args[0])
                    if ref is not None:
                        self.summary["entry_refs"].append(ref)
            # stall-reason / mechanism argument (non-literal only: the
            # per-file REPRO-S002 rule owns literals)
            site = REASON_SITES.get(attr)
            if site is not None:
                index, keyword = site
                arg = None
                if len(node.args) > index:
                    arg = node.args[index]
                else:
                    for kw in node.keywords:
                        if kw.arg == keyword:
                            arg = kw.value
                if arg is not None:
                    akey = _expr_key(arg)
                    aval = arg.value if (isinstance(arg, ast.Constant)
                                         and isinstance(arg.value, str)) \
                        else None
                    if akey is not None \
                            and self._is_candidate_root(self._root(akey)):
                        self.summary["reason_calls"].append(
                            [attr, akey, None, arg.lineno, arg.col_offset])
                    elif aval is not None:
                        self.summary["reason_calls"].append(
                            [attr, None, aval, arg.lineno, arg.col_offset])
            # registry metric names (leaf drift, REPRO-S005)
            if attr in REGISTRY_METHODS and node.args \
                    and "trace" not in recv.lower():
                pattern = _literal_pattern(node.args[0])
                if pattern is not None:
                    self.summary["leaf_uses"].append(
                        [pattern, node.args[0].lineno,
                         node.args[0].col_offset])
        # initializer= kwarg anywhere is a worker entry (pool ctor),
        # and so is the target= of a [ctx.]Process(...) construction
        is_process = key is not None and key.rpartition(".")[2] == "Process"
        for kw in node.keywords:
            if kw.arg == "initializer" or (kw.arg == "target"
                                           and is_process):
                ref = _expr_key(kw.value)
                if ref is not None:
                    self.summary["entry_refs"].append(ref)
        self.generic_visit(node)


def _params_of(node: ast.AST) -> List[str]:
    args = getattr(node, "args", None)
    if args is None:
        return []
    names = [a.arg for a in args.posonlyargs] if args.posonlyargs else []
    names += [a.arg for a in args.args]
    if args.vararg:
        names.append(args.vararg.arg)
    names += [a.arg for a in args.kwonlyargs]
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def summarize_source(source: str, rel_path: str) -> Dict[str, object]:
    """Build one module summary from source text.  Raises SyntaxError
    for unparseable files (callers surface that as REPRO-E000)."""
    tree = ast.parse(source, filename=rel_path)
    summary: Dict[str, object] = {
        "rel_path": rel_path,
        "module": module_name(rel_path),
        "imports": {},
        "str_constants": {},
        "tuple_constants": {},
        "dict_constants": {},
        "module_mutables": {},
        "classes": {},
        "functions": {},
    }
    body = list(tree.body)

    # ---- imports + module-level constants/mutables --------------------
    for stmt in body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    # `import repro.sim.wheel as wheel`
                    summary["imports"][alias.asname] = alias.name
                else:
                    # `import os.path` binds the root package name
                    local = alias.name.split(".")[0]
                    summary["imports"][local] = local
        elif isinstance(stmt, ast.ImportFrom) and stmt.module \
                and stmt.level == 0:
            for alias in stmt.names:
                local = alias.asname or alias.name
                summary["imports"][local] = f"{stmt.module}.{alias.name}"
        elif (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
              and isinstance(stmt.targets[0], ast.Name)) \
                or (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.value is not None):
            if isinstance(stmt, ast.Assign):
                name = stmt.targets[0].id
            else:
                name = stmt.target.id
            value = stmt.value
            if isinstance(value, ast.Constant) \
                    and isinstance(value.value, str):
                summary["str_constants"][name] = value.value
            elif isinstance(value, ast.Tuple):
                elems: List[List[str]] = []
                for elt in value.elts:
                    if isinstance(elt, ast.Constant) \
                            and isinstance(elt.value, str):
                        elems.append(["str", elt.value])
                    else:
                        key = _expr_key(elt)
                        elems.append(["name", key] if key is not None
                                     else ["opaque", ""])
                summary["tuple_constants"][name] = {
                    "elems": elems, "lineno": stmt.lineno}
            elif isinstance(value, ast.Dict):
                keys: List[str] = []
                literal = True
                for k in value.keys:
                    if isinstance(k, ast.Constant) \
                            and isinstance(k.value, str):
                        keys.append(k.value)
                    else:
                        literal = False
                if literal and keys:
                    summary["dict_constants"][name] = {
                        "keys": keys, "lineno": stmt.lineno}
                summary["module_mutables"][name] = stmt.lineno
            elif _is_mutable_value(value):
                if not (name.startswith("__") and name.endswith("__")):
                    summary["module_mutables"][name] = stmt.lineno

    # ---- functions, classes, module-level pseudo-function -------------
    def summarize_fn(node, qualname: str, cls: str) -> Dict[str, object]:
        fs = _FunctionSummarizer(
            getattr(node, "name", "<module>"), qualname, cls,
            getattr(node, "lineno", 1), _params_of(node))
        for stmt in node.body:
            fs.visit(stmt)
        out = fs.summary
        # a load that is merely the receiver of a same-line write
        # (`_TRACES.clear()`, `_HITS.value += 1`) is part of the
        # mutation, not an observation — drop it so the race rules
        # don't count mutation sites as reads.
        write_sites = {(w[0].split(".")[0], w[2]) for w in out["writes"]}
        out["loads"] = [ld for ld in out["loads"]
                        if (ld[0].split(".")[0], ld[1]) not in write_sites]
        return out

    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary["functions"][stmt.name] = summarize_fn(
                stmt, stmt.name, "")
        elif isinstance(stmt, ast.ClassDef):
            cls_name = stmt.name
            bases = [key for key in (_expr_key(b) for b in stmt.bases)
                     if key is not None]
            methods: List[str] = []
            mutable_attrs: Dict[str, int] = {}
            self_assigned: List[str] = []
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    qual = f"{cls_name}.{item.name}"
                    fsum = summarize_fn(item, qual, cls_name)
                    summary["functions"][qual] = fsum
                    methods.append(item.name)
                    for key, kind, _ln, _col in fsum["writes"]:
                        parts = key.split(".")
                        if parts[0] == "self" and len(parts) == 2 \
                                and kind in ("assign", "augassign"):
                            self_assigned.append(parts[1])
                elif isinstance(item, ast.Assign) \
                        and len(item.targets) == 1 \
                        and isinstance(item.targets[0], ast.Name) \
                        and _is_mutable_value(item.value):
                    mutable_attrs[item.targets[0].id] = item.lineno
                elif isinstance(item, ast.AnnAssign) \
                        and isinstance(item.target, ast.Name) \
                        and item.value is not None \
                        and _is_mutable_value(item.value):
                    mutable_attrs[item.target.id] = item.lineno
            summary["classes"][cls_name] = {
                "lineno": stmt.lineno, "bases": bases, "methods": methods,
                "mutable_attrs": mutable_attrs,
                "self_assigned": sorted(set(self_assigned)),
            }

    module_stmts = [stmt for stmt in body
                    if not isinstance(stmt, (ast.FunctionDef,
                                             ast.AsyncFunctionDef,
                                             ast.ClassDef))]
    holder = ast.Module(body=module_stmts, type_ignores=[])
    summary["functions"]["<module>"] = summarize_fn(
        holder, "<module>", "")
    return summary


# ======================================================================
class ProjectIndex:
    """Phase-one output: every module summary plus cross-module lookup.

    ``summaries`` maps root-relative posix paths to module summaries;
    ``by_module`` maps dotted module names (``repro.sim.sm``) back to
    paths for import resolution."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self.summaries: Dict[str, Dict[str, object]] = {}
        self.by_module: Dict[str, str] = {}
        #: rel paths that failed to parse (engine reports E000 for them).
        self.parse_failures: List[str] = []

    def add(self, summary: Dict[str, object]) -> None:
        rel = summary["rel_path"]
        self.summaries[rel] = summary
        mod = summary.get("module") or ""
        if mod:
            self.by_module[mod] = rel

    # -- lookups --------------------------------------------------------
    def module(self, dotted: str) -> Optional[Dict[str, object]]:
        rel = self.by_module.get(dotted)
        return self.summaries.get(rel) if rel else None

    def functions(self):
        """Yield ``(rel_path, module_summary, function_summary)``."""
        for rel in sorted(self.summaries):
            msum = self.summaries[rel]
            for qual in sorted(msum["functions"]):
                yield rel, msum, msum["functions"][qual]

    def resolve_import(self, msum: Dict[str, object],
                       name: str) -> Optional[str]:
        """Dotted target for a local name bound by an import, else
        None."""
        return msum["imports"].get(name)

    def resolve_str_constant(self, msum: Dict[str, object], key: str,
                             _depth: int = 0) -> Optional[str]:
        """Follow ``key`` (a dotted expr in ``msum``'s namespace) to a
        string constant, across imports; None when unresolvable."""
        if _depth > 4:
            return None
        parts = key.split(".")
        head = parts[0]
        if len(parts) == 1:
            if head in msum["str_constants"]:
                return msum["str_constants"][head]
            target = msum["imports"].get(head)
            if target and "." in target:
                mod, _, sym = target.rpartition(".")
                other = self.module(mod)
                if other is not None:
                    return self.resolve_str_constant(other, sym,
                                                     _depth + 1)
            return None
        # dotted: head must be a module alias
        target = msum["imports"].get(head)
        if target is None:
            return None
        other = self.module(target)
        if other is None:
            return None
        return self.resolve_str_constant(other, ".".join(parts[1:]),
                                         _depth + 1)

    def resolve_tuple_values(self, msum: Dict[str, object],
                             name: str) -> Optional[List[Optional[str]]]:
        """Element string values of a module-level tuple constant
        (None entries for unresolvable elements)."""
        entry = msum["tuple_constants"].get(name)
        if entry is None:
            return None
        out: List[Optional[str]] = []
        for kind, val in entry["elems"]:
            if kind == "str":
                out.append(val)
            elif kind == "name":
                out.append(self.resolve_str_constant(msum, val))
            else:
                out.append(None)
        return out


class ProjectContext:
    """What a :class:`~repro.lint.rules.ProjectRule` receives: the
    index plus shared, lazily-built derived structures (the call graph
    is built once and reused across every project rule)."""

    def __init__(self, index: ProjectIndex):
        self.index = index
        self._graph = None

    def callgraph(self):
        if self._graph is None:
            from repro.lint.callgraph import CallGraph
            self._graph = CallGraph(self.index)
        return self._graph


# ======================================================================
# incremental cache
def default_cache_path(root: str) -> str:
    return os.path.join(os.path.abspath(root), DEFAULT_CACHE_RELPATH)


def _load_cache(cache_path: str) -> Dict[str, Dict[str, object]]:
    try:
        with open(cache_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return {}
    if not isinstance(payload, dict) \
            or payload.get("version") != INDEX_VERSION:
        return {}
    files = payload.get("files")
    return files if isinstance(files, dict) else {}


def _save_cache(cache_path: str,
                files: Dict[str, Dict[str, object]]) -> None:
    try:
        os.makedirs(os.path.dirname(cache_path) or ".", exist_ok=True)
        tmp = cache_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"version": INDEX_VERSION, "files": files}, fh)
        os.replace(tmp, cache_path)
    except OSError:
        pass  # a cache that cannot be written is just a cold cache


def build_index(root: str, abs_paths: Sequence[str],
                cache_path: Optional[str] = None) -> ProjectIndex:
    """Summarize every file (cache-aware) into a ProjectIndex.

    ``cache_path=None`` disables caching entirely.  Cache entries are
    keyed by ``(mtime, size)``: any touch re-summarizes that file only.
    """
    index = ProjectIndex(root)
    cached = _load_cache(cache_path) if cache_path else {}
    fresh: Dict[str, Dict[str, object]] = {}
    for abs_path in abs_paths:
        rel = rel_posix(abs_path, root)
        try:
            stat = os.stat(abs_path)
            mtime, size = stat.st_mtime, stat.st_size
        except OSError:
            index.parse_failures.append(rel)
            continue
        entry = cached.get(rel)
        if entry is not None and entry.get("mtime") == mtime \
                and entry.get("size") == size:
            summary = entry["summary"]
        else:
            try:
                with open(abs_path, "r", encoding="utf-8") as fh:
                    source = fh.read()
                summary = summarize_source(source, rel)
            except (OSError, SyntaxError):
                index.parse_failures.append(rel)
                continue
        fresh[rel] = {"mtime": mtime, "size": size, "summary": summary}
        index.add(summary)
    if cache_path:
        _save_cache(cache_path, fresh)
    return index
