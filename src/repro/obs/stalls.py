"""Stall-attribution taxonomy (paper §2.3–§2.4, Figure 3).

Every cycle a warp scheduler fails to issue an instruction is
classified by *why* the highest-priority latency-ready warp (the one
the hardware would have issued) could not go:

====================  ==================================================
``scoreboard``        every owned warp is blocked on a data dependence
                      (outstanding load, SFU/ALU initiation interval, or
                      the MLP cap on outstanding loads)
``no_warp``           the scheduler owns no warp with work left
``smk_gate``          SMK-(P+W)'s warp-instruction quota gate denied the
                      warp's kernel this epoch
``lsu_full``          the warp's next instruction is a memory op and the
                      LSU queue is full — memory-pipeline backpressure,
                      the §2.4 congestion signal
``mil_capped``        the MIL limiter caps the kernel's in-flight memory
                      instructions (§3.3)
``bmi_loss``          the scheduler proposed a memory instruction but
                      lost the single-LSU-slot arbitration (§3.2) and
                      had no compute fallback
``exec_port``         a compute warp was ready but its execution port
                      (the shared SFU) was taken this cycle
``other``             residual same-cycle races (e.g. a quota consumed
                      between selection and attribution)
====================  ==================================================

Separately, every cycle the **LSU pipeline itself** stalls on an L1D
reservation failure is attributed to the missing resource — line slot,
MSHR entry, MSHR merge list, or miss-queue entry (``rsfail_line`` /
``rsfail_mshr`` / ``rsfail_merge`` / ``rsfail_missq``).  These per-cycle
counts sum exactly to ``RunResult.lsu_stall_cycles``, so the reported
LSU-reservation-failure share is consistent with
``RunResult.lsu_stall_pct()`` by construction.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

#: scheduler-level issue outcomes / stall classes.
ISSUED = "issued"
STALL_SCOREBOARD = "scoreboard"
STALL_NO_WARP = "no_warp"
STALL_SMK_GATE = "smk_gate"
STALL_LSU_FULL = "lsu_full"
STALL_MIL_CAPPED = "mil_capped"
STALL_BMI_LOSS = "bmi_loss"
STALL_EXEC_PORT = "exec_port"
STALL_OTHER = "other"

SCHED_STALL_REASONS: Tuple[str, ...] = (
    STALL_SCOREBOARD, STALL_NO_WARP, STALL_SMK_GATE, STALL_LSU_FULL,
    STALL_MIL_CAPPED, STALL_BMI_LOSS, STALL_EXEC_PORT, STALL_OTHER,
)

#: LSU-level stall classes (one per stalled LSU cycle), named after the
#: L1D resource whose reservation failed — mirrors
#: :class:`repro.mem.cache.AccessResult`.
LSU_STALL_REASONS: Tuple[str, ...] = (
    "rsfail_line", "rsfail_mshr", "rsfail_merge", "rsfail_missq",
)

#: kernel slot used when a stall cannot be pinned on one kernel
#: (e.g. a scheduler with no ready warp at all).
KERNEL_NONE = -1


class StallTable:
    """Accumulated stall attribution for one run.

    ``sched`` is keyed ``(sm_id, sched_id, kernel, reason)`` — one
    entry per scheduler issue slot outcome; ``lsu`` is keyed
    ``(sm_id, kernel, reason)`` — one entry per stalled LSU cycle.
    Plain dict-of-int state: it pickles across campaign workers, and
    :meth:`~repro.obs.collector.ObsReport.merged` sums it key by key.
    """

    __slots__ = ("sched", "lsu")

    def __init__(self) -> None:
        self.sched: Dict[Tuple[int, int, int, str], int] = {}
        self.lsu: Dict[Tuple[int, int, str], int] = {}

    # ------------------------------------------------------------------
    # hot-side accumulation (callers sentinel-check the obs handle)
    def bump_sched(self, sm_id: int, sched_id: int, kernel: int,
                   reason: str, amount: int = 1) -> None:
        key = (sm_id, sched_id, kernel, reason)
        self.sched[key] = self.sched.get(key, 0) + amount

    def bump_lsu(self, sm_id: int, kernel: int, reason: str,
                 amount: int = 1) -> None:
        key = (sm_id, kernel, reason)
        self.lsu[key] = self.lsu.get(key, 0) + amount

    # ------------------------------------------------------------------
    # aggregation
    def sched_by_reason(self, kernel: Optional[int] = None) -> Dict[str, int]:
        """Scheduler outcomes summed over SMs/schedulers, optionally
        restricted to one kernel slot."""
        out: Dict[str, int] = {}
        for (_sm, _sched, k, reason), value in self.sched.items():
            if kernel is not None and k != kernel:
                continue
            out[reason] = out.get(reason, 0) + value
        return out

    def lsu_by_reason(self, kernel: Optional[int] = None) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for (_sm, k, reason), value in self.lsu.items():
            if kernel is not None and k != kernel:
                continue
            out[reason] = out.get(reason, 0) + value
        return out

    def kernels(self) -> List[int]:
        seen = {k for (_sm, _sched, k, _r) in self.sched if k != KERNEL_NONE}
        seen.update(k for (_sm, k, _r) in self.lsu if k != KERNEL_NONE)
        return sorted(seen)

    def lsu_stall_cycles(self) -> int:
        """Total stalled LSU cycles — equals the engine's
        ``lsu_stall_cycles`` counter by construction."""
        return sum(self.lsu.values())


# ----------------------------------------------------------------------
# reporting
def _share_row(label: str, counts: Dict[str, int], reasons: Iterable[str],
               denom: int) -> str:
    cells = []
    for reason in reasons:
        value = counts.get(reason, 0)
        pct = 100.0 * value / denom if denom else 0.0
        cells.append(f"{reason}={pct:5.1f}%")
    return f"  {label:<14} " + "  ".join(cells)


def format_stall_report(report) -> str:
    """Human-readable per-kernel stall breakdown for an
    :class:`~repro.obs.collector.ObsReport` (``repro run --obs``)."""
    stalls = report.stall_table()
    lines: List[str] = []
    issue_slots = report.issue_slots()
    sm_cycles = report.cycles * report.num_sms

    lines.append(f"scheduler issue-slot breakdown "
                 f"({report.cycles} cycles x {report.num_sms} SMs x "
                 f"{report.schedulers_per_sm} schedulers = "
                 f"{issue_slots} slots)")
    overall = stalls.sched_by_reason()
    reasons = [ISSUED] + [r for r in SCHED_STALL_REASONS
                          if overall.get(r, 0)]
    lines.append(_share_row("all kernels", overall, reasons, issue_slots))
    for slot in stalls.kernels():
        name = report.kernel_label(slot)
        lines.append(_share_row(name, stalls.sched_by_reason(slot),
                                reasons, issue_slots))

    lines.append("")
    total_rsfail = stalls.lsu_stall_cycles()
    pct = 100.0 * total_rsfail / sm_cycles if sm_cycles else 0.0
    lines.append(f"LSU memory-pipeline stalls (reservation failures): "
                 f"{total_rsfail} cycles = {pct:.1f}% of SM-cycles")
    lsu_overall = stalls.lsu_by_reason()
    lsu_reasons = [r for r in LSU_STALL_REASONS if lsu_overall.get(r, 0)]
    if lsu_reasons:
        lines.append(_share_row("all kernels", lsu_overall, lsu_reasons,
                                sm_cycles))
        for slot in stalls.kernels():
            counts = stalls.lsu_by_reason(slot)
            if any(counts.values()):
                lines.append(_share_row(report.kernel_label(slot), counts,
                                        lsu_reasons, sm_cycles))
    else:
        lines.append("  (none)")
    return "\n".join(lines)
