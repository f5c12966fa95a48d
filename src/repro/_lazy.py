"""Lazily re-exported package names (PEP 562).

``python -m repro lint|dash|compare|schemes`` import the ``repro`` and
``repro.harness`` packages and must neither pay for nor depend on the
simulator those packages re-export, so their ``__init__`` modules
resolve the re-exports on first attribute access instead of at import.
"""

import importlib
from typing import Callable, Dict


def lazy_getattr(package: str, exports: Dict[str, str]) -> Callable:
    """A module ``__getattr__`` for ``package`` serving ``exports``:
    public name -> the module that defines it (the module itself when
    the name *is* that submodule).  Resolved names are cached in the
    package's namespace, so each is looked up once."""

    def __getattr__(name: str):
        target = exports.get(name)
        if target is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(target)
        value = (module if target == f"{package}.{name}"
                 else getattr(module, name))
        setattr(importlib.import_module(package), name, value)
        return value

    return __getattr__
