"""Import contract: every ``repro`` package serves its re-exports
lazily through an export map (``repro._lazy.lazy_getattr``), and the
cycle model imports none of the harness or the reporting half of
``repro.obs``."""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: every package whose ``__init__`` re-exports leaf names.
LAZY_PACKAGES = ("repro", "repro.harness", "repro.sim", "repro.mem",
                 "repro.core", "repro.cke", "repro.obs", "repro.workloads",
                 "repro.metrics")
#: the only names a package binds eagerly: the root's ``repro.config``
#: re-exports (the config module is imported by everything anyway)
#: and ``__version__``.
EAGER = {"repro": {"CacheConfig", "GPUConfig", "MAXWELL_CONFIG",
                   "scaled_config", "__version__"}}


def _fresh(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC))


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_all_is_the_export_map(name):
    package = importlib.import_module(name)
    assert [n for n in package.__all__ if n not in EAGER.get(name, ())] \
        == list(package._EXPORTS)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_each_name_resolves_to_its_defining_module(name):
    package = importlib.import_module(name)
    for public, target in package._EXPORTS.items():
        module = importlib.import_module(target)
        value = getattr(package, public)
        if target == f"{name}.{public}":
            assert value is module
            continue
        assert value is getattr(module, public), (public, target)
        if inspect.isclass(value) or inspect.isfunction(value):
            # Defined there, not re-imported from elsewhere.
            assert value.__module__ == target, public
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        getattr(package, "nope")


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_star_import_binds_every_public_name(name):
    done = _fresh(f"from {name} import *\n"
                  f"import {name} as pkg\n"
                  "missing = [n for n in pkg.__all__ if n not in globals()]\n"
                  "assert not missing, missing\n")
    assert done.returncode == 0, done.stderr


def test_importing_a_package_imports_none_of_its_leaves():
    done = _fresh(
        "import sys\n"
        f"import {', '.join(LAZY_PACKAGES)}\n"
        "leaves = sorted(m for m in sys.modules if m.startswith('repro.')\n"
        f"                and m not in {LAZY_PACKAGES!r})\n"
        "assert leaves == ['repro._lazy', 'repro.config'], leaves\n")
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
