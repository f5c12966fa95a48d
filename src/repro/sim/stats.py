"""Run statistics: per-kernel counters, utilization, and the sampled
timelines used by the paper's Figure 6 and Figure 8.

The metrics mirror the paper's methodology (§2.3/§2.4):

* per-kernel IPC over the measurement window (warp instructions issued
  per cycle, aggregated over all SMs);
* computing-unit utilization (busy slots / available slots);
* LSU stall percentage (cycles the memory pipeline was blocked by a
  reservation failure);
* L1D miss rate and reservation failures per access (``rsfail rate``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional


#: causes of a whole-SM sleep (production machine), in the order of the
#: SM's per-cause counters: nothing to do at all, the LSU head
#: replaying a memoised reservation failure (the paper's
#: memory-pipeline stall), or — with the LSU drained — every ready warp
#: holding a memory instruction of a kernel at its MIL cap (the
#: paper's mechanism at work).
SLEEP_CAUSES = ("idle", "mem_stall", "mil_capped")

#: ``RunResult.sleep`` key -> the process-registry name the same
#: number accumulates under (``repro.obs.process_registry()``): slept
#: SM-cycles by cause, SM-cycles simulated, LSU stall replays settled
#: in batches, L1 release hooks that ended a memory-stall sleep (each
#: buys one real lookup of the stalled head), memory instructions the
#: SM finished at issue (all-hit loads that never became a ``MemInst``),
#: and issue slots an observed run attributed in batches rather than
#: per cycle.
SELF_OBS_REGISTRY = {
    "idle": "sim.sleep.idle",
    "mem_stall": "sim.sleep.mem_stall",
    "mil_capped": "sim.sleep.mil_capped",
    "sm_cycles": "sim.sleep.sm_cycles",
    "stall_replays_batched": "sim.sleep.stall_replays_batched",
    "stall_wakes": "sim.sleep.stall_wakes",
    "insts_through": "sim.lsu.insts_through",
    "obs_batched_slots": "sim.obs.batched_slots",
}

#: the ``RunResult.sleep`` keys each SM counts (``sleep_counters``);
#: the engine adds ``sm_cycles``.
SM_COUNTERS = SLEEP_CAUSES + ("stall_replays_batched", "stall_wakes",
                              "insts_through", "obs_batched_slots")


class KernelStats:
    """Counters for one kernel slot, aggregated across SMs."""

    __slots__ = ("warp_insts", "alu_insts", "sfu_insts", "mem_insts",
                 "mem_requests", "tbs_completed", "tbs_launched")

    def __init__(self) -> None:
        self.warp_insts = 0
        self.alu_insts = 0
        self.sfu_insts = 0
        self.mem_insts = 0
        self.mem_requests = 0
        self.tbs_completed = 0
        self.tbs_launched = 0

    def ipc(self, cycles: int) -> float:
        return self.warp_insts / cycles if cycles else 0.0


class TimelineRecorder:
    """Per-interval sample series, e.g. L1D accesses per 1K cycles
    (Figure 6) or warp instructions issued per 1K cycles (Figure 8)."""

    def __init__(self, interval: int = 1000):
        if interval < 1:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.series: Dict[str, Dict[int, List[int]]] = defaultdict(dict)

    def bump(self, series: str, kernel: int, cycle: int, amount: int = 1) -> None:
        bucket = cycle // self.interval
        samples = self.series[series].setdefault(kernel, [])
        gap = bucket + 1 - len(samples)
        if gap > 0:
            # Single C-level extend instead of a per-slot append loop:
            # O(1) amortized even after a long quiet stretch.
            samples.extend([0] * gap)
        samples[bucket] += amount

    def get(self, series: str, kernel: int) -> List[int]:
        return list(self.series.get(series, {}).get(kernel, []))

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form: ``{series: {kernel: [samples...]}}`` plus the
        sampling interval."""
        return {
            "interval": self.interval,
            "series": {series: {kernel: list(samples)
                                for kernel, samples in per_kernel.items()}
                       for series, per_kernel in self.series.items()},
        }


@dataclass
class RunResult:
    """Everything measured in one simulation run."""

    cycles: int
    kernel_names: List[str]
    kernels: Dict[int, KernelStats]
    #: per-kernel L1D rates aggregated over SMs.
    l1d_accesses: Dict[int, int] = field(default_factory=dict)
    l1d_hits: Dict[int, int] = field(default_factory=dict)
    l1d_misses: Dict[int, int] = field(default_factory=dict)
    l1d_rsfails: Dict[int, int] = field(default_factory=dict)
    lsu_stall_cycles: int = 0
    lsu_busy_cycles: int = 0
    alu_busy: int = 0
    sfu_busy: int = 0
    alu_slots: int = 0
    sfu_slots: int = 0
    timeline: Optional[TimelineRecorder] = None
    dram_row_hit_rate: float = 0.0
    num_sms: int = 1
    # backend activity (for the energy model)
    l2_accesses: int = 0
    l2_misses: int = 0
    dram_accesses: int = 0
    icnt_flits: int = 0
    #: observability report (stall taxonomy, counter snapshot, trace
    #: events) when the run was observed; None otherwise.
    obs: Optional[object] = None
    #: the simulator's own accounting of its machinery — host-side,
    #: not a simulated quantity, so it is kept out of
    #: ``result_signature`` (the oracle never sleeps or batches):
    #: slept SM-cycles by cause (:data:`SLEEP_CAUSES`),
    #: ``sm_cycles`` (cycles x SMs), ``stall_replays_batched`` (LSU
    #: stall replays settled in batches instead of replayed against the
    #: L1), ``stall_wakes`` (L1 release hooks that woke a stalled SM to
    #: retry), ``insts_through`` (all-hit loads finished at issue) and
    #: ``obs_batched_slots``, keyed as in :data:`SELF_OBS_REGISTRY`.
    sleep: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    def ipc(self, kernel: int) -> float:
        return self.kernels[kernel].ipc(self.cycles)

    def total_ipc(self) -> float:
        insts = sum(k.warp_insts for k in self.kernels.values())
        return insts / self.cycles if self.cycles else 0.0

    def total_insts(self) -> int:
        return sum(k.warp_insts for k in self.kernels.values())

    def l1d_miss_rate(self, kernel: int) -> float:
        acc = self.l1d_accesses.get(kernel, 0)
        return self.l1d_misses.get(kernel, 0) / acc if acc else 0.0

    def l1d_rsfail_rate(self, kernel: int) -> float:
        acc = self.l1d_accesses.get(kernel, 0)
        return self.l1d_rsfails.get(kernel, 0) / acc if acc else 0.0

    def sleep_ratio(self, cause: Optional[str] = None) -> float:
        """Share of SM-cycles the SMs slept through (all causes,
        or one of :data:`SLEEP_CAUSES`)."""
        sleep = self.sleep
        if not sleep or not sleep["sm_cycles"]:
            return 0.0
        slept = (sleep[cause] if cause is not None
                 else sum(sleep[c] for c in SLEEP_CAUSES))
        return slept / sleep["sm_cycles"]

    def lsu_stall_pct(self) -> float:
        total = self.cycles * self.num_sms
        return self.lsu_stall_cycles / total if total else 0.0

    def alu_utilization(self) -> float:
        return self.alu_busy / self.alu_slots if self.alu_slots else 0.0

    def sfu_utilization(self) -> float:
        return self.sfu_busy / self.sfu_slots if self.sfu_slots else 0.0

    def compute_utilization(self) -> float:
        slots = self.alu_slots + self.sfu_slots
        return (self.alu_busy + self.sfu_busy) / slots if slots else 0.0

    def summary(self, include_stalls: bool = False) -> Dict[str, object]:
        """Flat dict of headline numbers (used by the reporting layer).

        With ``include_stalls`` and an observed run, the scheduler
        stall-attribution shares (``stall[<reason>]``, fractions of all
        issue slots) are appended."""
        out: Dict[str, object] = {
            "cycles": self.cycles,
            "lsu_stall_pct": self.lsu_stall_pct(),
            "compute_utilization": self.compute_utilization(),
        }
        for slot, name in enumerate(self.kernel_names):
            out[f"ipc[{name}#{slot}]"] = self.ipc(slot)
            out[f"l1d_miss[{name}#{slot}]"] = self.l1d_miss_rate(slot)
            out[f"l1d_rsfail[{name}#{slot}]"] = self.l1d_rsfail_rate(slot)
        if include_stalls and self.obs is not None:
            for reason, share in sorted(self.obs.sched_stall_shares().items()):
                out[f"stall[{reason}]"] = share
        return out
