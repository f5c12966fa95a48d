"""Every paper table, figure and study as one bench case.

One ``bench_figure[<key>]`` case per entry of the figure registry
(``repro.harness.experiments.FIGURES``): run the entry's driver once
under pytest-benchmark timing on the scaled configuration, print its
rendering, and require every paper-shape verdict to hold::

    pytest benchmarks/bench_figures.py --benchmark-disable -s
"""

import pytest
from conftest import run_once

from repro.harness.experiments import FIGURES


@pytest.mark.parametrize("figure", FIGURES, ids=lambda figure: figure.key)
def bench_figure(benchmark, runner, figure):
    data = run_once(benchmark, figure.run, runner)
    print(f"\n{figure.title}\n{figure.render(data)}")
    failed = [claim for claim, holds in figure.verdicts(data) if not holds]
    assert not failed, failed
