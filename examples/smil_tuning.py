#!/usr/bin/env python3
"""Offline SMIL tuning vs online DMIL (paper §3.3).

Sweeps static in-flight memory-instruction limits for a 2-kernel
workload (the Figure 9 experiment), reports the best static point, and
compares it with what DMIL reaches adaptively — the trade-off the
paper uses to motivate the dynamic scheme.

Usage::

    python examples/smil_tuning.py [kernel_a] [kernel_b]
"""

import sys

from repro.config import scaled_config
from repro.harness.reporting import format_table
from repro.harness.runner import ExperimentRunner
from repro.workloads.mixes import mix

LIMITS = (1, 2, 4, 8, None)


def spec(la, lb) -> str:
    fmt = lambda v: "inf" if v is None else str(v)
    return f"ws-smil:{fmt(la)},{fmt(lb)}"


def main() -> None:
    a = sys.argv[1] if len(sys.argv) > 1 else "sv"
    b = sys.argv[2] if len(sys.argv) > 2 else "ks"
    runner = ExperimentRunner(scaled_config())
    workload = mix(a, b)
    print(f"SMIL sweep for {workload.name} ({workload.mix_class}); "
          f"values are weighted speedup\n")

    surface = {}
    for la in LIMITS:
        for lb in LIMITS:
            out = runner.run_mix(workload, spec(la, lb))
            surface[(la, lb)] = out

    header = ["Limit_k0 \\ k1"] + [str(l or "Inf") for l in LIMITS]
    rows = [[str(la or "Inf")] + [surface[(la, lb)].weighted_speedup
                                  for lb in LIMITS]
            for la in LIMITS]
    print(format_table(header, rows, precision=2))

    best_key = max(surface, key=lambda k: surface[k].weighted_speedup)
    best = surface[best_key]
    base = surface[(None, None)]
    dmil = runner.run_mix(workload, "ws-dmil")
    print(f"\nno limiting:      WS {base.weighted_speedup:.2f}  "
          f"ANTT {base.antt:.2f}  fairness {base.fairness:.2f}")
    print(f"best static point {tuple('Inf' if k is None else k for k in best_key)}: "
          f"WS {best.weighted_speedup:.2f}  ANTT {best.antt:.2f}  "
          f"fairness {best.fairness:.2f}")
    print(f"DMIL (adaptive):  WS {dmil.weighted_speedup:.2f}  "
          f"ANTT {dmil.antt:.2f}  fairness {dmil.fairness:.2f}")
    print("\nSMIL needs this offline sweep for every workload/input/"
          "architecture change; DMIL gets close without any profiling "
          "(paper §3.3.2).")


if __name__ == "__main__":
    main()
