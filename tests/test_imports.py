"""Import contract: every name has one import path, its defining
module — a package ``__init__`` binds nothing but its docstring (and
``repro.obs`` its one exception) — and the cycle model imports none of
the harness or the reporting half of ``repro.obs``."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

PACKAGES = ("repro", "repro.harness", "repro.sim", "repro.mem", "repro.core",
            "repro.cke", "repro.obs", "repro.workloads", "repro.metrics",
            "repro.lint")
#: package -> {the one class or function it binds: its defining
#: module}; ``benchmarks/e2e`` imports that name from the package.
BOUND = {"repro.obs": {"process_registry": "repro.obs.registry"}}


def _fresh(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC))


@pytest.mark.parametrize("name", PACKAGES)
def test_all_is_the_export_map(name):
    """No package serves names of its own: no export map, no
    ``__all__`` and no module ``__getattr__``."""
    package = importlib.import_module(name)
    for hook in ("_EXPORTS", "__all__", "__getattr__"):
        assert not hasattr(package, hook), (name, hook)


@pytest.mark.parametrize("name", PACKAGES)
def test_each_name_resolves_to_its_defining_module(name):
    """With every leaf loaded, each public name a package binds is one
    of its own submodules: a class or function is imported from the
    module that defines it, never from the package."""
    package = importlib.import_module(name)
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{name}.{info.name}")
    for public, value in vars(package).items():
        if public.startswith("_"):
            continue
        if public in BOUND.get(name, {}):
            module = importlib.import_module(BOUND[name][public])
            assert value is getattr(module, public), public
            continue
        assert inspect.ismodule(value), (name, public)
        assert value.__name__ == f"{name}.{public}", (name, public)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        getattr(package, "nope")


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_every_public_name(name):
    """``from pkg import *`` binds no class or function (bar the one
    ``repro.obs`` keeps)."""
    done = _fresh(f"import inspect\n"
                  f"from {name} import *\n"
                  "bound = sorted(n for n, v in list(globals().items())\n"
                  "               if not n.startswith('_')\n"
                  "               and (inspect.isclass(v)\n"
                  "                    or inspect.isfunction(v)))\n"
                  f"assert bound == {sorted(BOUND.get(name, {}))!r}, bound\n")
    assert done.returncode == 0, done.stderr


def test_importing_a_package_imports_none_of_its_leaves():
    done = _fresh(
        "import sys\n"
        f"import {', '.join(PACKAGES)}\n"
        "leaves = sorted(m for m in sys.modules if m.startswith('repro.')\n"
        f"                and m not in {PACKAGES!r})\n"
        "assert leaves == ['repro.obs.registry'], leaves\n")
    assert done.returncode == 0, done.stderr


def test_the_engine_loads_no_harness_and_no_reporting():
    """The cycle model's import closure stops at the simulator: no
    harness, no TB partitioner, of ``repro.obs`` only the stall
    taxonomy and the counter registry, and no digest at all (neither
    ``hashlib`` nor ``repro._digest``): compiled traces are keyed in
    memory by their profile fingerprint."""
    done = _fresh(
        "import sys\n"
        "import repro.sim.engine\n"
        "print(' '.join(sorted(m for m in sys.modules\n"
        "                      if m.startswith('repro.')\n"
        "                      or m in ('hashlib', '_hashlib'))))\n")
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "repro.sim.engine" in loaded
    assert "repro._digest" not in loaded
    assert "hashlib" not in loaded and "_hashlib" not in loaded, loaded
    banned = [m for m in loaded if m.startswith(("repro.harness",
                                                 "repro.cke"))
              or m in ("repro.obs.dash", "repro.obs.compare",
                       "repro.obs.ledger", "repro.obs.telemetry")]
    assert not banned, banned


def test_an_unobserved_run_loads_no_collector():
    """The collector, and the timeline and trace recorders behind it,
    load when a run is observed, not with the engine."""
    done = _fresh(
        "import sys\n"
        "import repro.sim.engine\n"
        "from repro.config import scaled_config\n"
        "from repro.sim.engine import GPU, make_launches\n"
        "from repro.workloads.profiles import get_profile\n"
        "cfg = scaled_config()\n"
        "GPU(cfg, make_launches([get_profile('bp')], [2], cfg)).run(200)\n"
        "print(' '.join(sorted(m for m in sys.modules\n"
        "                      if m.startswith('repro.obs.'))))\n")
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "repro.obs.stalls" in loaded
    assert not {"repro.obs.collector", "repro.obs.timeline",
                "repro.obs.trace"} & set(loaded), loaded


def test_signatures_load_no_runner():
    """``perfbench`` names the runner's types for annotations only."""
    done = _fresh("import sys\n"
                  "import repro.harness.perfbench\n"
                  "assert 'repro.harness.runner' not in sys.modules\n")
    assert done.returncode == 0, done.stderr
