"""Shared path-scoping helpers for the linter.

The engine walk and the rule base class need the same three path
answers — "what is this file's root-relative posix path?", "does that
path fall under a scope prefix?", and "which ``.py`` files does a
target expand to?" — so they live in one module: a rule scope and an
engine walk can never disagree about what a path means.
"""

from __future__ import annotations

import os
from typing import List, Sequence, Set, Tuple

#: directory names never descended into during directory walks.
#: (Explicitly named files bypass this — the fixture tests rely on it.)
DEFAULT_EXCLUDE_DIRS: Set[str] = {
    "__pycache__", ".git", ".repro_cache", ".pytest_cache",
    ".ruff_cache", "build", "dist", ".venv", "venv", "lint_fixtures",
}

#: the simulator hot-path packages whose coding invariants back the
#: repo's bit-identity guarantees (fast loop == reference loop,
#: obs-on == obs-off).
SIM_SCOPE: Tuple[str, ...] = (
    "src/repro/sim",
    "src/repro/mem",
    "src/repro/core",
    "src/repro/cke",
)

#: everything shipped as library code (rules that guard repo-wide
#: invariants, e.g. RNG seeding and picklability).
SRC_SCOPE: Tuple[str, ...] = ("src/repro",)


def rel_posix(abs_path: str, root: str) -> str:
    """``abs_path`` relative to ``root``, posix separators (scope
    prefixes are spelled posix-style regardless of host OS)."""
    return os.path.relpath(os.path.abspath(abs_path),
                           os.path.abspath(root)).replace(os.sep, "/")


def path_in_scope(rel_path: str, prefixes: Sequence[str]) -> bool:
    """True when ``rel_path`` (posix, root-relative) equals one of the
    ``prefixes`` or lives underneath one of them."""
    for prefix in prefixes:
        if rel_path == prefix or rel_path.startswith(prefix + "/"):
            return True
    return False


def collect_py_files(root: str, paths: Sequence[str],
                     exclude_dirs: Set[str]) -> List[str]:
    """Expand files/directories into a sorted, de-duplicated list of
    absolute ``.py`` paths.  Directory walks skip ``exclude_dirs``;
    explicitly named files are always taken."""
    seen: Set[str] = set()
    out: List[str] = []

    def add(abs_path: str) -> None:
        if abs_path not in seen:
            seen.add(abs_path)
            out.append(abs_path)

    for path in paths:
        abs_path = os.path.abspath(
            path if os.path.isabs(path) else os.path.join(root, path))
        if os.path.isfile(abs_path):
            add(abs_path)
            continue
        for dirpath, dirnames, filenames in os.walk(abs_path):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in exclude_dirs)
            for name in sorted(filenames):
                if name.endswith(".py"):
                    add(os.path.join(dirpath, name))
    out.sort()
    return out
