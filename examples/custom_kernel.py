#!/usr/bin/env python3
"""Define a *new* synthetic kernel and study it under CKE.

The library's kernels are calibrated stand-ins for the paper's
benchmarks, but :class:`~repro.workloads.kernel.KernelProfile` is a
public extension point: describe any workload by its instruction mix,
coalescing degree, footprint and MLP, and every scheme in the library
applies to it unchanged.

Here we model a graph-analytics kernel ("pagerank-like"): poorly
coalesced gather reads with a small hot vertex set, and co-run it with
the library's ``hs`` (hotspot).
"""

from repro.config import scaled_config
from repro.harness.runner import ExperimentRunner
from repro.workloads.address import MixPattern
from repro.workloads.coalescer import ThreadAddressPattern, strided
from repro.workloads.kernel import KernelProfile
from repro.workloads.mixes import WorkloadMix
from repro.workloads.profiles import get_profile


def make_pagerank_like() -> KernelProfile:
    return KernelProfile(
        name="pr", full_name="pagerank-like", suite="custom", kind="M",
        # a gather per edge with little arithmetic, 8 lines per warp
        # access (poor coalescing), deep MLP.
        cinst_per_minst=2, reqs_per_minst=8, sfu_frac=0.0, write_frac=0.05,
        mlp=4,
        threads_per_tb=64, regs_per_thread=24, smem_per_tb=0,
        # hot vertices (reused) + cold edge lists (streamed)
        pattern_factory=lambda: MixPattern(32, 0.40),
        iters_per_warp=120,
    )


def make_strided_copy() -> KernelProfile:
    """Alternatively, describe accesses per *thread* and let the
    coalescer derive the transaction count: a stride-8 copy kernel
    coalesces each warp access into 8 line transactions."""
    pattern = ThreadAddressPattern(strided(8))
    measured = pattern.measured_req_per_minst()
    return KernelProfile(
        name="sc", full_name="strided-copy", suite="custom", kind="M",
        cinst_per_minst=1, reqs_per_minst=round(measured), mlp=4,
        threads_per_tb=32, regs_per_thread=16,
        pattern_factory=lambda: ThreadAddressPattern(strided(8)),
        iters_per_warp=80,
    )


def main() -> None:
    runner = ExperimentRunner(scaled_config())
    pr = make_pagerank_like()
    hs = get_profile("hs")

    iso = runner.isolated(pr)
    kind = "M" if iso.lsu_stall_pct > 0.20 else "C"
    print(f"custom kernel '{pr.name}': IPC {iso.ipc:.2f}, "
          f"L1D miss {iso.l1d_miss_rate:.2f}, "
          f"rsfail/access {iso.l1d_rsfail_rate:.2f}, "
          f"LSU stalls {iso.lsu_stall_pct:.0%} -> classified {kind}")

    workload = WorkloadMix((hs, pr))
    print(f"\nco-running with '{hs.name}' ({workload.mix_class}):")
    for scheme in ("ws", "ws-qbmi", "ws-dmil"):
        out = runner.run_mix(workload, scheme)
        print(f"  {scheme:8s} TBs/SM {out.partition}  "
              f"WS {out.weighted_speedup:.2f}  ANTT {out.antt:.2f}  "
              f"norm IPC hs={out.norm_ipcs[0]:.2f} pr={out.norm_ipcs[1]:.2f}")

    sc = make_strided_copy()
    iso_sc = runner.isolated(sc)
    print(f"\ncoalescer-derived kernel '{sc.name}' "
          f"(Req/Minst measured = {sc.reqs_per_minst}): "
          f"IPC {iso_sc.ipc:.2f}, LSU stalls {iso_sc.lsu_stall_pct:.0%}")


if __name__ == "__main__":
    main()
