#!/usr/bin/env python3
"""Characterise the benchmark suite the way the paper's §2.4 does:
run every kernel in isolation, measure utilization / LSU stalls / L1D
behaviour, and classify kernels as compute- or memory-intensive.

This runs the Table 2 and Figure 2 entries of the figure registry
(``repro.harness.experiments.FIGURES``) — the same tables and
paper-shape verdicts ``repro report`` prints — and shows the
classification rule in action.

Usage::

    python examples/characterize_workloads.py
"""

import argparse

from repro import scaled_config
from repro.harness import ExperimentRunner
from repro.harness.experiments import FIGURES
from repro.harness.reporting import format_verdicts


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    figures = {figure.key: figure for figure in FIGURES}
    runner = ExperimentRunner(scaled_config())
    for key in ("table2", "fig2"):
        figure = figures[key]
        data = figure.run(runner)
        print(f"{figure.title}\n{figure.render(data)}\n"
              f"{format_verdicts(figure.verdicts(data))}\n")
    print("Classification rule (paper §2.4): LSU stalls > 20% => "
          "memory-intensive (M).")


if __name__ == "__main__":
    main()
