#!/usr/bin/env python3
"""Quickstart: run two kernels concurrently on one GPU and compare the
baseline intra-SM sharing (Warped-Slicer) against the paper's DMIL.

Usage::

    python examples/quickstart.py [kernel_a] [kernel_b]

Defaults to the paper's running example bp (backprop, compute-
intensive) + sv (spmv, memory-intensive).
"""

import sys

from repro.config import scaled_config
from repro.harness.runner import ExperimentRunner
from repro.workloads.mixes import mix


def main() -> None:
    a = sys.argv[1] if len(sys.argv) > 1 else "bp"
    b = sys.argv[2] if len(sys.argv) > 2 else "sv"

    runner = ExperimentRunner(scaled_config())
    workload = mix(a, b)
    print(f"workload: {workload.name} (class {workload.mix_class})")

    for name in (a, b):
        profile = workload.profiles[0] if name == a else workload.profiles[1]
        iso = runner.isolated(profile)
        print(f"  {name}: isolated IPC {iso.ipc:.2f}, "
              f"L1D miss {iso.l1d_miss_rate:.2f}, "
              f"LSU stalls {iso.lsu_stall_pct:.0%}")

    print("\nscheme comparison (normalized IPC per kernel):")
    for scheme in ("spatial", "ws", "ws-qbmi", "ws-dmil"):
        out = runner.run_mix(workload, scheme)
        norms = ", ".join(f"{k}={n:.2f}"
                          for k, n in zip((a, b), out.norm_ipcs))
        print(f"  {scheme:10s} TBs/SM {out.partition}  "
              f"weighted speedup {out.weighted_speedup:.2f}  "
              f"ANTT {out.antt:.2f}  fairness {out.fairness:.2f}  ({norms})")

    base = runner.run_mix(workload, "ws")
    dmil = runner.run_mix(workload, "ws-dmil")
    print(f"\nDMIL vs plain Warped-Slicer: "
          f"ANTT {base.antt:.2f} -> {dmil.antt:.2f}, "
          f"fairness {base.fairness:.2f} -> {dmil.fairness:.2f}")


if __name__ == "__main__":
    main()
