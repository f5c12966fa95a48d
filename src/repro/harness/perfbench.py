"""Bit-identity signatures: every stat a run or a campaign cell
carries, as one comparable tuple.  The identity tests (production
machine vs oracle, serial vs worker processes, fault-free vs retried)
and ``benchmarks/e2e`` compare these.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # annotations only: a signature loads no harness
    from repro.harness.runner import WorkloadOutcome
    from repro.sim.stats import RunResult


# ----------------------------------------------------------------------
# bit-identity signatures
def result_signature(result: RunResult) -> Tuple:
    """Every stat a RunResult carries, as a comparable tuple."""
    return (
        result.cycles,
        tuple(result.kernel_names),
        tuple(sorted(
            (slot, k.warp_insts, k.alu_insts, k.sfu_insts, k.mem_insts,
             k.mem_requests, k.tbs_launched, k.tbs_completed)
            for slot, k in result.kernels.items())),
        tuple(sorted(result.l1d_accesses.items())),
        tuple(sorted(result.l1d_hits.items())),
        tuple(sorted(result.l1d_misses.items())),
        tuple(sorted(result.l1d_rsfails.items())),
        result.lsu_stall_cycles,
        result.lsu_busy_cycles,
        result.alu_busy,
        result.sfu_busy,
        result.dram_row_hit_rate,
        result.l2_accesses,
        result.l2_misses,
        result.dram_accesses,
        result.icnt_flits,
    )


def outcome_signature(outcome: WorkloadOutcome) -> Tuple:
    """A campaign cell's full identity: metrics + run stats.

    Floats are compared exactly — the fast paths must be bit-identical
    to the reference loop, not merely close."""
    return (
        outcome.mix_name,
        outcome.mix_class,
        outcome.scheme,
        tuple(outcome.partition),
        tuple(outcome.iso_ipcs),
        tuple(outcome.shared_ipcs),
        tuple(outcome.norm_ipcs),
        outcome.weighted_speedup,
        outcome.antt,
        outcome.fairness,
        result_signature(outcome.result),
    )
