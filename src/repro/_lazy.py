"""Lazily re-exported package names (PEP 562).

The contract: a process imports the code it runs, and nothing more.
Every ``repro`` package whose ``__init__`` re-exports names from its
leaf modules (``repro``, ``harness``, ``sim``, ``mem``, ``core``,
``cke``, ``obs``, ``workloads``, ``metrics``) declares an export map
(``_EXPORTS``: public name -> the leaf module that defines it) and
serves it through :func:`lazy_getattr`, with ``__all__`` listing its
keys.  Importing a package therefore imports none of its leaves; a
name's defining module loads on first access, and ``from pkg import
X`` / ``from pkg import *`` behave as with eager re-exports.  So
``python -m repro lint|dash|compare|schemes`` never load the
simulator, and a fully journaled ``campaign --resume`` loads the
harness, the pickled records' classes and the ledger, but none of the
cycle model (``tests/test_cli_and_report.py`` probes both).
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
