"""Shared fixtures for the figure bench (``bench_figures.py``).

Every case regenerates one paper table/figure on the scaled
configuration.  Isolated-profiling runs are cached on disk under
``.repro_cache`` so the whole suite amortises Warped-Slicer profiling.

Cycle budgets scale with the ``REPRO_BENCH_SCALE`` environment variable
(default 1.0, must be > 0); raise it for higher-fidelity numbers.
Scheme sweeps fan their grids over worker processes;
``REPRO_BENCH_WORKERS`` caps the pool size (see
``repro.harness.parallel``).
"""

import os

import pytest

from repro.config import scaled_config
from repro.harness.runner import ExperimentRunner, RunnerSettings

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
if not SCALE > 0:
    raise ValueError(f"REPRO_BENCH_SCALE must be > 0, got {SCALE!r}")
CACHE_DIR = os.path.join(os.path.dirname(__file__), "..", ".repro_cache")


def bench_settings(scale: float = 1.0) -> RunnerSettings:
    factor = SCALE * scale
    return RunnerSettings(
        iso_cycles=int(6000 * factor),
        curve_cycles=int(4000 * factor),
        concurrent_cycles=int(8000 * factor),
    )


@pytest.fixture(scope="session")
def runner():
    """Session-wide runner on the default scaled config."""
    return ExperimentRunner(scaled_config(), bench_settings(),
                            cache_dir=CACHE_DIR)


def run_once(benchmark, fn, *args, **kwargs):
    """Run a driver exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
