#!/usr/bin/env python3
"""Scenario: a shared GPU runs a latency-sensitive compute-heavy
service (modelled by ``bp``) next to a bandwidth-hungry batch
analytics job (modelled by ``ks``) — the consolidation problem that
motivates the paper's introduction.

The operator cares about the service's slowdown (its normalized
turnaround), while keeping batch throughput reasonable.  This example
walks the scheme stack from the naive left-over policy to WS-DMIL and
reports, for each, the service-level picture.
"""

from repro.config import scaled_config
from repro.harness.reporting import format_table
from repro.harness.runner import ExperimentRunner
from repro.workloads.mixes import mix

SERVICE, BATCH = "bp", "ks"
SCHEMES = [
    ("leftover", "naive left-over (Hyper-Q style)"),
    ("spatial", "spatial multitasking (SM split)"),
    ("ws", "intra-SM sharing (Warped-Slicer)"),
    ("ws-qbmi", "  + balanced memory issuing"),
    ("ws-dmil", "  + dynamic memory instruction limiting"),
]


def main() -> None:
    runner = ExperimentRunner(scaled_config())
    workload = mix(SERVICE, BATCH)
    print(f"consolidating service '{SERVICE}' with batch job '{BATCH}'\n")

    rows = []
    for scheme, label in SCHEMES:
        out = runner.run_mix(workload, scheme)
        service_slowdown = 1.0 / out.norm_ipcs[0] if out.norm_ipcs[0] else float("inf")
        rows.append([
            label, str(out.partition),
            out.norm_ipcs[0], service_slowdown,
            out.norm_ipcs[1], out.weighted_speedup, out.fairness,
        ])
    print(format_table(
        ["scheme", "TBs/SM", "service perf", "service slowdown",
         "batch perf", "weighted speedup", "fairness"],
        rows, precision=2))

    best = min(rows[2:], key=lambda r: r[3])
    print(f"\nbest intra-SM option for the service: {best[0].strip()} "
          f"(slowdown {best[3]:.1f}x vs {rows[2][3]:.1f}x under plain sharing)")
    print("note how memory-instruction throttling protects the compute-"
          "bound service from the batch job's memory pipeline stalls.")


if __name__ == "__main__":
    main()
