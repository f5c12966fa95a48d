"""Shared fixtures for the figure bench (``bench_figures.py``).

Every case regenerates one paper table/figure on the scaled
configuration at the ``bench`` budget of ``repro.harness.runner``
(``repro report`` runs the longer ``report`` budget).  Isolated-profiling
runs are cached on disk under ``.repro_cache`` so the whole suite
amortises Warped-Slicer profiling.  Scheme sweeps fan their grids over
worker processes; ``REPRO_BENCH_WORKERS`` caps the pool size (see
``repro.harness.parallel``).
"""

import os

import pytest

from repro.config import scaled_config
from repro.harness.runner import BUDGETS, ExperimentRunner

CACHE_DIR = os.path.join(os.path.dirname(__file__), "..", ".repro_cache")


@pytest.fixture(scope="session")
def runner():
    """Session-wide runner on the default scaled config."""
    return ExperimentRunner(scaled_config(), BUDGETS["bench"],
                            cache_dir=CACHE_DIR)


def run_once(benchmark, fn, *args, **kwargs):
    """Run a driver exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
