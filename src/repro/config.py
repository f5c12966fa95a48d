"""Architecture configuration for the simulated GPU (paper Table 1).

Two configurations are provided:

* :data:`MAXWELL_CONFIG` — the paper's Maxwell-like baseline (Table 1):
  16 SMs, 4 GTO warp schedulers per SM, 24KB 6-way L1D, 128 MSHRs,
  2MB L2, 16-channel DRAM.
* :func:`scaled_config` — a proportionally scaled-down configuration
  used by the experiment harness so that a pure-Python cycle-level
  simulation finishes in seconds rather than hours.  The scaling
  preserves the ratios that drive the paper's phenomena (warps per
  scheduler, MSHRs per warp, cache lines per warp, DRAM bandwidth per
  SM) — see DESIGN.md §2.

All cycle counts are in SM core cycles (the paper clocks core,
interconnect and L2 at the same 1.4 GHz; DRAM timing is folded into the
service-rate model in :mod:`repro.mem.dram`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and miss-handling resources of one cache.

    ``lines = size_bytes // line_size`` and ``sets = lines // assoc``;
    construction validates divisibility so a typo cannot silently build
    a different cache than intended.  Write policies are fixed: L1D
    write-evict (``L1DCache.access``), L2 write-back with no write
    allocation (``MemorySubsystem._l2_write``).
    """

    size_bytes: int
    line_size: int
    assoc: int
    mshrs: int
    miss_queue: int
    #: xor-index the set bits with higher address bits (Table 1).
    xor_index: bool = True
    #: maximum outstanding misses a single MSHR entry can merge.
    mshr_merge: int = 8

    def __post_init__(self) -> None:
        if self.size_bytes % self.line_size:
            raise ValueError("cache size must be a multiple of line size")
        lines = self.size_bytes // self.line_size
        if lines % self.assoc:
            raise ValueError("line count must be a multiple of associativity")
        if self.assoc < 1 or self.mshrs < 1 or self.miss_queue < 1:
            raise ValueError("assoc, mshrs and miss_queue must be positive")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.assoc


@dataclass(frozen=True)
class GPUConfig:
    """Full-GPU configuration (paper Table 1).  Issue is fixed in
    ``repro.sim.sm``: one instruction per scheduler and one SFU
    instruction per SM each cycle, ``SFU_ISSUE_INTERVAL``."""

    num_sms: int = 16
    warp_size: int = 32
    schedulers_per_sm: int = 4
    #: warp scheduling policy: "gto" (Greedy-Then-Oldest, Table 1
    #: default) or "lrr" (Loose Round-Robin, used in §4.3).
    scheduler_policy: str = "gto"

    # Per-SM static resource limits (Table 1).
    max_threads_per_sm: int = 3072
    max_warps_per_sm: int = 96
    max_tbs_per_sm: int = 16
    registers_per_sm: int = 65536
    smem_per_sm: int = 98304  # 96KB

    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=24 * 1024, line_size=128, assoc=6,
            mshrs=128, miss_queue=32,
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=2048 * 1024, line_size=128, assoc=16,
            mshrs=128, miss_queue=64,
        )
    )
    #: cycles from an L2 hit to its response leaving the L2.
    l2_hit_latency: int = 30

    # Interconnect: one-way latency in cycles and flits-per-cycle
    # aggregate bandwidth each direction (16x16 crossbar, 32B flits).
    icnt_latency: int = 12
    icnt_flits_per_cycle: int = 16

    # DRAM: channel count and per-channel service model.
    dram_channels: int = 16
    dram_latency: int = 120
    #: cycles a channel is busy per request that hits the open row.
    dram_row_hit_cycles: int = 4
    #: cycles per request that must open a new row.
    dram_row_miss_cycles: int = 12
    #: lines per DRAM row (row-buffer locality granularity).
    dram_row_lines: int = 32

    #: L1D requests the LSU can process per cycle (the L1 is banked;
    #: coalesced requests to distinct banks proceed in parallel).
    lsu_width: int = 4

    #: MILG / QBMI sampling window in memory requests (paper: 1024).
    sample_window: int = 1024

    def __post_init__(self) -> None:
        if self.scheduler_policy not in ("gto", "lrr"):
            raise ValueError(f"unknown scheduler policy {self.scheduler_policy!r}")
        if self.max_warps_per_sm * self.warp_size < self.max_threads_per_sm:
            raise ValueError("warp limit inconsistent with thread limit")
        if self.num_sms < 1:
            raise ValueError("need at least one SM")

    @property
    def warps_per_scheduler(self) -> int:
        return self.max_warps_per_sm // self.schedulers_per_sm

    def replace(self, **kwargs) -> "GPUConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


#: The paper's Table 1 baseline.
MAXWELL_CONFIG = GPUConfig()


def scaled_config(
    num_sms: int = 2,
    scheduler_policy: str = "gto",
    l1d_kb: int = 12,
) -> GPUConfig:
    """Scaled-down configuration used by tests, examples and benches.

    The per-SM ratios of the Table 1 machine are preserved at roughly
    1/6 scale: 16 warps/SM (4 per scheduler), 8 TB slots, a ``l1d_kb``
    KB 4-way L1D with 24 MSHRs, and a DRAM/interconnect bandwidth
    scaled to the SM count so that memory-intensive kernels saturate
    the miss-handling resources exactly as in the paper.

    ``l1d_kb`` scales the L1D (12 ≈ paper 24KB, 24 ≈ 48KB, 48 ≈ 96KB
    for the §4.3 sensitivity study).
    """
    l1d = CacheConfig(
        size_bytes=l1d_kb * 1024, line_size=128, assoc=4,
        mshrs=48, miss_queue=12,
    )
    l2 = CacheConfig(
        size_bytes=64 * 1024 * max(1, num_sms), line_size=128, assoc=8,
        mshrs=64, miss_queue=16,
    )
    return GPUConfig(
        num_sms=num_sms,
        schedulers_per_sm=4,
        scheduler_policy=scheduler_policy,
        max_threads_per_sm=512,
        max_warps_per_sm=16,
        max_tbs_per_sm=8,
        registers_per_sm=16384,
        smem_per_sm=16384,
        l1d=l1d,
        l2=l2,
        l2_hit_latency=8,
        icnt_latency=4,
        icnt_flits_per_cycle=4 * max(1, num_sms),
        dram_channels=2 * max(1, num_sms),
        dram_latency=40,
        dram_row_hit_cycles=3,
        dram_row_miss_cycles=9,
        sample_window=256,
    )
